"""Tests for the wavefront replay tier (precomputed KBA dependency DAG
with vectorized level-set replay, :mod:`repro.spechpc.wavefront`).

Eight layers of evidence:

* a hand-computed 3-rank DAG whose level-set clocks and statistics are
  derived inline with the engine's documented arithmetic and compared
  to the bit;
* the floating-point identities the branch-free wait kernel relies on,
  property-tested;
* property-based minisweep configurations (rank count => chain length,
  block count, send/recv ordering) that must be fingerprint-identical
  with the tier on and off;
* eligibility: anything that perturbs or observes individual steps
  declines the tier, with the decline reason surfaced as a metric;
* exact decline: a validation failure forced after the ranks parked
  gives the tiers-off fingerprint, for skewed and synchronized
  boundaries alike, and a decision decline records its own code;
* the step journal: the dry run's ops lower to the exact replay tuples
  with the communicator's pricing, and a body whose dry-run step is
  not the step the engine observed, or that reads the clock, declines
  with the tiers-off fingerprint;
* the golden-corpus grid replayed with the tier *forced* on
  (``fast_forward=False`` leaves only the level-set program) against the
  full-fidelity reference;
* every code's recorded journal replayed on the scalar replayer (the
  reference), the level-set program and the column program; the
  committed program chosen by journal shape alone, synchronized
  non-uniform journals on the level-set program, and twenty-step runs
  on skewed and synchronized boundaries against full DES.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, SlowRank
from repro.harness import run
from repro.harness.runner import engine_run_count
from repro.machine import CLUSTER_A
from repro.machine.registry import get_cluster
from repro.model.execution import ExecutionModel
from repro.predict.profile import (
    ProfileUnsupported, RecvPost, WaitOne, profile_rank,
)
from repro.smpi import collectives as coll
from repro.smpi.comm import Communicator
from repro.smpi.runtime import COUNTER_NAMES, MpiRuntime, RankStats
from repro.spechpc import get_benchmark
from repro.spechpc.base import Benchmark, BenchmarkInfo, RunContext, Workload
from repro.spechpc.fastforward import (
    ReplayController, Replayer, ReplayUnsupported, VectorReplayer, _wait_step,
    lower_step,
)
from repro.spechpc.minisweep import Minisweep
from repro.spechpc.suite import SUITE_ORDER
from repro.spechpc.wavefront import WavefrontProgram
from repro.validate.golden import fingerprint, golden_cases


# --------------------------------------------------------------------------
# hand-computed level-set replay
# --------------------------------------------------------------------------

# a 3-rank pipeline exercising every wait shape: an eager send 0 -> 1, a
# rendezvous send 1 -> 2, an eager send 2 -> 0 whose wait completes
# during rank 2's compute (a zero increment), and a closing
# full-communicator collective
E_XF, E_OV = 0.5, 0.1                                # eager: transfer, overhead
R_RTS, R_HS, R_LAT, R_XF, R_OV = 0.03125, 0.0625, 0.03125, 2.0, 0.125
C0, C1, C2 = 1.0, 2.0, 0.5                           # compute seconds
COLL_COST = 0.25

_COMPUTE = [
    ("compute", C0, 10.0, 5.0, 100.0, 50.0, 25.0, 0.9, 0.8, 0.7),
    ("compute", C1, 20.0, 9.0, 200.0, 80.0, 40.0, 1.8, 1.7, 1.6),
    ("compute", C2, 5.0, 2.0, 50.0, 20.0, 10.0, 0.45, 0.4, 0.35),
]

_JOURNALS = [
    [  # rank 0: compute, eager send to 1, wait, recv from 2, collective
        # (both waits of kind MPI_Wait: two increments of one kind a step)
        _COMPUTE[0],
        ("isend", 11, 1, 0, 4096, ("e", E_XF, E_OV)),
        ("wait", 11, "MPI_Wait"),
        ("irecv", 12, 2, 1),
        ("wait", 12, "MPI_Wait"),
        ("coll", "MPI_Allreduce", 0, COLL_COST, 8.0),
    ],
    [  # rank 1: recv from 0, compute, rendezvous send to 2, collective
        ("irecv", 21, 0, 0),
        _COMPUTE[1],
        ("wait", 21, "MPI_Recv"),
        ("isend", 22, 2, 0, 65536, ("r", R_RTS, R_HS, R_LAT, R_XF, R_OV)),
        ("wait", 22, "MPI_Wait"),
        ("coll", "MPI_Allreduce", 0, COLL_COST, 8.0),
    ],
    [  # rank 2: recv from 1, eager send to 0, compute, waits, collective
        ("irecv", 31, 1, 0),
        ("isend", 32, 0, 1, 1024, ("e", E_XF, E_OV)),
        _COMPUTE[2],
        ("wait", 32, "MPI_Wait"),
        ("wait", 31, "MPI_Recv"),
        ("coll", "MPI_Allreduce", 0, COLL_COST, 8.0),
    ],
]

#: the compute counters in the order the communicator adds them
_COUNTERS = ("flops", "simd_flops", "mem_bytes", "l3_bytes", "l2_bytes",
             "busy_seconds", "heat_seconds", "heat_busy_seconds")


def _ws(t: float, fire: float, fin: float) -> float:
    """The engine's ``_wait_step``: resume at the fire time, then pay
    the remaining completion delta — written out so the expected values
    below share no code with the module under test."""
    resume = fire if fire > t else t
    return resume + (fin - resume) if fin > resume else resume


class _Acc:
    """One rank's statistics, updated as the communicator updates them:
    a time kind only when the call took time, counters always."""

    def __init__(self, time_by_kind: dict, counters: dict) -> None:
        self.time_by_kind = dict(time_by_kind)
        self.counters = dict(counters)

    def compute(self, op: tuple) -> None:
        tbk = self.time_by_kind
        tbk["compute"] = tbk.get("compute", 0.0) + op[1]
        for name, value in zip(_COUNTERS, op[2:]):
            self.counters[name] += value

    def message(self, nbytes: float) -> None:
        self.counters["messages"] += 1
        self.counters["msg_bytes"] += nbytes

    def waited(self, kind: str, pre: float, post: float) -> float:
        if post > pre:
            self.time_by_kind[kind] = self.time_by_kind.get(kind, 0.0) + (
                post - pre
            )
        return post


def _hand_step(t: list, acc: list) -> list[float]:
    """One step of the pipeline above, computed scalar-by-scalar with
    the engine's exact expressions (left-associated sums, max-then-add
    — never precomputed path weights); ``acc`` takes every statistics
    update in each rank's program order."""
    t0, t1, t2 = t
    s0, s1, s2 = acc
    # rank 0: compute, post the eager send (arrival = post + transfer),
    # wait completes locally at post + overhead
    a = t0 + C0
    s0.compute(_COMPUTE[0])
    arr0 = a + E_XF
    s0.message(4096)
    t0 = s0.waited("MPI_Wait", a, _ws(a, a, a + E_OV))
    post0 = t0

    # rank 2 posts its receive from rank 1 and its eager send to rank 0
    # at its own clock, then computes; the send's wait finds its
    # completion (post + overhead) already past: no time, no key
    post2 = t2
    arr2 = t2 + E_XF
    s2.message(1024)
    d = t2 + C2
    s2.compute(_COMPUTE[2])
    d = s2.waited("MPI_Wait", d, _ws(d, t2, t2 + E_OV))

    # rank 0's receive posted after its send's wait
    start = post0 if post0 > arr2 else arr2
    t0 = s0.waited("MPI_Wait", t0, _ws(t0, start, start + E_OV))

    # rank 1: the receive posts at its own clock *before* computing;
    # the wait starts at max(post, arrival) and costs the sender overhead
    post1 = t1
    b = t1 + C1
    s1.compute(_COMPUTE[1])
    start = post1 if post1 > arr0 else arr0
    t1 = s1.waited("MPI_Recv", b, _ws(b, start, start + E_OV))
    # rendezvous send to rank 2: posts now, RTS arrives after the wire
    # latency; completion needs rank 2's receive post
    arr1 = t1 + R_RTS
    s1.message(65536)

    # both rendezvous halves complete at the same left-associated sum
    start_r = post2 if post2 > arr1 else arr1
    fin_r = start_r + R_HS + R_LAT + R_XF + R_OV
    t1 = s1.waited("MPI_Wait", t1, _ws(t1, start_r, fin_r))
    t2 = s2.waited("MPI_Recv", d, _ws(d, start_r, fin_r))

    # the collective counts its message on arrival, fires at the last
    # arrival and costs the max cost
    for s in acc:
        s.message(8.0)
    t_fire = max(t0, t1, t2)
    finish = t_fire + COLL_COST
    return [s.waited("MPI_Allreduce", x, _ws(x, t_fire, finish))
            for s, x in zip(acc, (t0, t1, t2))]


def _hex(values: dict) -> dict:
    return {k: float(v).hex() for k, v in values.items()}


def test_hand_computed_dag_bitwise():
    """Four steps from skewed start clocks and non-empty statistics: the
    vectorized level-set program must land on the hand-derived clocks,
    per-kind times and counters to the bit, and the scalar replayer on
    the clocks.  Rank 2's eager-send wait never takes time, so its
    ``MPI_Wait`` key must stay absent."""
    prog = WavefrontProgram.compile(_JOURNALS, 3)
    t_start = [0.0, 0.3, 0.7]
    stats = [
        RankStats(0, 0, 0, {"compute": 0.3, "MPI_Wait": 7.77},
                  {name: 0.1 for name in COUNTER_NAMES}),
        RankStats(1, 0, 0, {"MPI_Allreduce": 0.7},
                  {name: 0.7 for name in COUNTER_NAMES}),
        RankStats(2, 0, 0, {}, {name: 0.0 for name in COUNTER_NAMES}),
    ]
    acc = [_Acc(s.time_by_kind, s.counters) for s in stats]

    expected = list(t_start)
    for _ in range(4):
        expected = _hand_step(expected, acc)

    assert prog.run(t_start, 4, stats) == expected
    assert prog.run(t_start, 4) == expected
    assert Replayer(_JOURNALS, 3).run(t_start, 4) == expected
    for s, want in zip(stats, acc):
        assert _hex(s.time_by_kind) == _hex(want.time_by_kind)
        assert _hex(s.counters) == _hex(want.counters)
    assert "MPI_Wait" in stats[0].time_by_kind
    assert "MPI_Wait" not in stats[2].time_by_kind


def test_hand_computed_dag_levels():
    """The leveling is the hand-derived antidiagonal schedule: rank 1's
    rendezvous wait levels after rank 2's receive post, the gate one
    past the deepest arrival."""
    prog = WavefrontProgram.compile(_JOURNALS, 3)
    assert prog.nlevels == 6
    assert prog.total_ops == sum(len(ops) for ops in _JOURNALS)


def test_compile_rejects_unbalanced_channels():
    """A send whose matching receive is missing within the step means
    the FIFO pairing would cross the step boundary — the tier declines
    at compile time rather than replaying a lie."""
    journals = [
        [("isend", 1, 1, 0, 64, ("e", 0.1, 0.01)), ("wait", 1, "MPI_Wait")],
        [("compute", 1.0, 0, 0, 0, 0, 0, 0, 0, 0)],
    ]
    with pytest.raises(ReplayUnsupported, match="cross"):
        WavefrontProgram.compile(journals, 2)


def test_compile_rejects_cyclic_structure():
    """Two ranks each waiting on the other's un-postable receive stall
    the work list: compile must raise, not loop."""
    journals = [
        [
            ("irecv", 1, 1, 0),
            ("wait", 1, "MPI_Recv"),
            ("isend", 2, 1, 0, 64, ("e", 0.1, 0.01)),
            ("wait", 2, "MPI_Wait"),
        ],
        [
            ("irecv", 1, 0, 0),
            ("wait", 1, "MPI_Recv"),
            ("isend", 2, 0, 0, 64, ("e", 0.1, 0.01)),
            ("wait", 2, "MPI_Wait"),
        ],
    ]
    with pytest.raises(ReplayUnsupported, match="cyclic|stall"):
        WavefrontProgram.compile(journals, 2)


_clock = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


def _bits(x) -> str:
    return float(x).hex()


@settings(max_examples=300, deadline=None)
@given(
    r=_clock,
    f=st.floats(allow_nan=False, allow_infinity=False),
    gap=st.sampled_from(["any", "equal", "ulp-above", "ulp-below"]),
)
def test_wait_kernel_identities(r, f, gap):
    """The bitwise identities the level-set wait kernel relies on, for a
    finite clock ``r >= +0.0`` and a finite completion ``f``: the
    branch-free ``max(r + (f - r), r)`` is the engine's wait step, a
    ``0.0`` pad constant is exact, and the ``-inf`` sentinel never wins
    a ``max`` — so a sentinel leg leaves the clock unchanged."""
    assume(math.copysign(1.0, r) > 0)
    if gap == "equal":
        f = r
    elif gap == "ulp-above":
        f = math.nextafter(r, math.inf)
    elif gap == "ulp-below":
        f = math.nextafter(r, -math.inf)
    assume(math.isfinite(f))
    rv, fv = np.array([r]), np.array([f])
    assert _bits(np.maximum(rv + (fv - rv), rv)[0]) == _bits(_wait_step(r, r, f))
    assert _bits((rv + 0.0)[0]) == _bits(r)
    assert _bits(np.maximum(fv, -np.inf)[0]) == _bits(f)
    sentinel = np.array([-np.inf])
    resume = np.maximum(sentinel, rv)
    assert _bits(np.maximum(resume + (sentinel - resume), resume)[0]) == _bits(r)


# --------------------------------------------------------------------------
# property-based: minisweep configurations, tier on vs. off
# --------------------------------------------------------------------------


def _minisweep(blocks: int, recv_first: bool) -> Minisweep:
    bench = Minisweep(recv_first=recv_first)
    tiny = Minisweep.workloads["tiny"]
    bench.workloads = {
        "tiny": replace(tiny, params={**tiny.params, "blocks": blocks})
    }
    return bench


@settings(max_examples=10, deadline=None)
@given(
    nprocs=st.integers(min_value=2, max_value=10),
    blocks=st.sampled_from([1, 2, 4]),
    recv_first=st.booleans(),
)
def test_minisweep_configs_fingerprint_identical(nprocs, blocks, recv_first):
    """Random rank counts (=> chain lengths via the decomposition),
    block counts, and send/recv orderings: the wavefront tier engages
    and reproduces the full-fidelity reference fingerprint exactly."""
    on = run(_minisweep(blocks, recv_first), CLUSTER_A, nprocs, sim_steps=6)
    off = run(
        _minisweep(blocks, recv_first), CLUSTER_A, nprocs, sim_steps=6,
        fast_forward=False, wavefront=False, matcher="linear",
    )
    assert on.meta["wavefront"] is True
    assert off.meta["wavefront"] is False
    assert fingerprint(on) == fingerprint(off)


# --------------------------------------------------------------------------
# eligibility
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("kwargs", "code"),
    [
        (dict(noise_sigma=0.02), "noise"),
        (dict(faults=FaultPlan(slow_ranks=(SlowRank(rank=1, factor=2.0),))),
         "faults"),
        (dict(trace=True), "tracing"),
        (dict(perturb_seed=0), "perturb"),
        (dict(sim_steps=2), "steps"),
        (dict(fast_forward=False, wavefront=False), "disabled"),
    ],
    ids=["noise", "faults", "tracing", "perturb", "short", "disabled"],
)
def test_wavefront_declines(kwargs, code):
    """Perturbing or observing individual steps forces full fidelity;
    the decline reason is surfaced as a ``wavefront.declined.<code>``
    metric for ``repro sweep --metrics``."""
    kwargs.setdefault("sim_steps", 6)
    r = run(get_benchmark("minisweep"), CLUSTER_A, 8, **kwargs)
    assert r.meta["wavefront"] is False
    assert r.meta["fast_forward"] is False
    assert r.meta["metrics"]["wavefront"] == {f"declined.{code}": 1.0}


def test_wavefront_engages_at_three_steps():
    """Three steps leave two steps after the one-step prologue: the tier
    engages and the result is bit-identical to full simulation."""
    bench = get_benchmark("minisweep")
    on = run(bench, CLUSTER_A, 8, sim_steps=3)
    off = run(bench, CLUSTER_A, 8, sim_steps=3,
              fast_forward=False, wavefront=False)
    assert on.meta["wavefront"] is True
    assert fingerprint(on) == fingerprint(off)


def test_wavefront_engaged_metrics():
    """An engaged run reports eligibility, the DAG depth, and the event
    count the level-set replay avoided."""
    r = run(get_benchmark("minisweep"), CLUSTER_A, 8, sim_steps=8)
    assert r.meta["wavefront"] is True
    wf = r.meta["metrics"]["wavefront"]
    assert wf["eligible"] == 1.0
    assert wf["levels"] > 0
    assert wf["events_saved"] > 0


# --------------------------------------------------------------------------
# exact decline
# --------------------------------------------------------------------------


def _fail_validation(monkeypatch):
    """Make the scalar cross-check (the one step the scalar replayer
    replays) land 1 s late."""
    scalar_run = Replayer.run

    def scalar(self, t_start, nsteps):
        return [t + 1.0 for t in scalar_run(self, t_start, nsteps)]

    monkeypatch.setattr(Replayer, "run", scalar)


@pytest.mark.parametrize(
    ("bench_name", "tier"),
    [
        ("minisweep", "wavefront"),
        ("weather", "wavefront"),
        ("lbm", "fast_forward"),
        ("tealeaf", "fast_forward"),
    ],
)
def test_forced_decline_gives_full_des_answer(bench_name, tier, monkeypatch):
    """A validation failure after every rank parked stops the world and
    re-runs the job in full DES, so the result equals the tiers-off
    reference.  minisweep and weather park at skewed clocks: resuming
    them in place would restart every early rank at the last arrival's
    clock."""
    bench = get_benchmark(bench_name)
    ref = run(bench, CLUSTER_A, 72, sim_steps=8,
              fast_forward=False, wavefront=False)
    assert run(bench, CLUSTER_A, 72, sim_steps=8).meta[tier] is True
    _fail_validation(monkeypatch)
    before = engine_run_count()
    declined = run(bench, CLUSTER_A, 72, sim_steps=8)
    assert engine_run_count() - before == 2
    assert declined.meta["metrics"]["wavefront"] == {"declined.validation": 1.0}
    assert declined.meta["fast_forward"] is False
    assert declined.meta["wavefront"] is False
    assert fingerprint(declined) == fingerprint(ref)


def test_decision_decline_records_its_code():
    """A decline at the program choice re-runs the job in full DES like
    a validation failure, and records the choice's own code: minisweep's
    journal is not column-uniform, so with only the column program
    allowed no program applies."""
    bench = get_benchmark("minisweep")
    ref = run(bench, CLUSTER_A, 8, sim_steps=8,
              fast_forward=False, wavefront=False)
    before = engine_run_count()
    column_only = run(bench, CLUSTER_A, 8, sim_steps=8, wavefront=False)
    assert engine_run_count() - before == 2
    assert column_only.meta["metrics"]["wavefront"] == {
        "declined.structure": 1.0
    }
    assert column_only.meta["fast_forward"] is False
    assert fingerprint(column_only) == fingerprint(ref)


# --------------------------------------------------------------------------
# the step journal: one dry-run step, lowered
# --------------------------------------------------------------------------

BIG = 1 << 20   # rendezvous (above the 64 KiB eager threshold)


def test_lowering_prices_like_the_communicator():
    """A body using every recorded call lowers to the exact replay
    tuples: per-step request and collective ordinals, the eager and
    rendezvous constants the communicator and the match use, and the
    collective costs the communicator passes to its gates.  Work before
    and after the step loop is not part of the step."""
    nprocs = 73                     # rank 72 sits on ClusterA's 2nd node
    ctx = RunContext(
        cluster=CLUSTER_A, nprocs=nprocs,
        workload=Workload("tiny"),
        exec_model=ExecutionModel(CLUSTER_A.node.cpu),
    )

    def body(comm):
        yield comm.compute(9.0)
        loop = ctx.step_loop(comm)
        while (yield loop.next_step()):
            yield comm.compute(1.0, flops=2.0)
            a = comm.isend(1, 8, tag=5)
            b = comm.irecv(72, tag=6)
            yield comm.wait(a)
            c = comm.isend(72, BIG, tag=7)
            yield comm.waitall([b, c], kind="MPI_Waitall")
            yield comm.send(72, 16, tag=8)
            yield comm.recv(1, tag=9)
            yield comm.sendrecv(1, BIG, 72, BIG, tag=10)
            yield comm.barrier()
            yield comm.allreduce(8)
            yield comm.bcast(16)
            yield comm.reduce(24)
            yield comm.allgather(32)
            yield comm.scatter(40)
            yield comm.gather(48)
            yield comm.alltoall(56)
        yield comm.compute(7.0)

    rt = MpiRuntime(CLUSTER_A, nprocs)
    net = rt.network
    assert rt.same_node(0, 1) and not rt.same_node(0, 72)
    ov = net.per_message_overhead

    def eager(nbytes, intra):
        return ("e", net.transfer_time(nbytes, intra), ov)

    def rndv(nbytes, intra):
        lat = net.intra_node_latency if intra else net.latency
        bw = net.intra_node_bandwidth if intra else net.effective_bandwidth
        return ("r", lat, net.rendezvous_handshake, lat, nbytes / bw, ov)

    nn = rt.nnodes
    assert nn == 2
    expected = [
        ("compute", 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.85, 0.85),
        ("isend", 0, 1, 5, 8, eager(8, True)),
        ("irecv", 1, 72, 6),
        ("wait", 0, "MPI_Wait"),
        ("isend", 2, 72, 7, BIG, rndv(BIG, False)),
        ("wait", 1, "MPI_Waitall"),
        ("wait", 2, "MPI_Waitall"),
        ("isend", 3, 72, 8, 16, eager(16, False)),
        ("wait", 3, "MPI_Send"),
        ("irecv", 4, 1, 9),
        ("wait", 4, "MPI_Recv"),
        ("irecv", 5, 72, 10),
        ("isend", 6, 1, 10, BIG, rndv(BIG, True)),
        ("srwait", 6, 5),
        ("coll", "MPI_Barrier", 0, coll.barrier_cost(net, nprocs, nn), None),
        ("coll", "MPI_Allreduce", 1,
         coll.allreduce_cost(net, nprocs, nn, 8), 8),
        ("coll", "MPI_Bcast", 2, coll.bcast_cost(net, nprocs, nn, 16), 16),
        ("coll", "MPI_Reduce", 3, coll.reduce_cost(net, nprocs, nn, 24), 24),
        ("coll", "MPI_Allgather", 4,
         coll.allgather_cost(net, nprocs, nn, 32), 32),
        ("coll", "MPI_Scatter", 5,
         coll.scatter_cost(net, nprocs, nn, 40), 40),
        ("coll", "MPI_Gather", 6, coll.gather_cost(net, nprocs, nn, 48), 48),
        ("coll", "MPI_Alltoall", 7,
         coll.alltoall_cost(net, nprocs, nn, 56), 56),
    ]
    ops = profile_rank(body, nprocs, 0).ops
    assert lower_step(ops, 0, rt, {}) == expected


@pytest.mark.parametrize(
    "ops",
    [[WaitOne(99, "MPI_Wait")], [RecvPost(1, 0, -1)]],
    ids=["foreign-request", "wildcard-tag"],
)
def test_lowering_rejects_what_replay_cannot_price(ops):
    with pytest.raises(ProfileUnsupported):
        lower_step(ops, 0, MpiRuntime(CLUSTER_A, 2), {})


class _Ring(Benchmark):
    """A 4-rank halo ring with a closing allreduce, bent by ``twist``:
    ``"flops"`` makes the dry run see other flop counts than the engine,
    ``"step0"`` adds work to step 0 only, ``"step1"`` to step 1 only,
    ``"now"`` reads the clock."""

    info = BenchmarkInfo(
        name="ring", benchmark_id=0, language="C", loc=0,
        collective="MPI_Allreduce", numerics="-", domain="-",
        memory_bound=False,
    )
    workloads = {"tiny": Workload("tiny", steps=8)}

    def __init__(self, twist=None) -> None:
        self.twist = twist

    def local_units(self, ctx, rank):
        return 1.0

    def make_body(self, ctx):
        twist = self.twist

        def body(comm):
            left = (comm.rank - 1) % comm.size
            right = (comm.rank + 1) % comm.size
            loop = ctx.step_loop(comm)
            step = 0
            while (yield loop.next_step()):
                dry = not isinstance(comm, Communicator)
                flops = 2e6 if twist == "flops" and dry else 1e6
                yield comm.compute(1e-3 * (comm.rank + 1), flops=flops)
                if twist == f"step{step}":
                    yield comm.compute(5e-4)
                if twist == "now" and comm.now < 0.0:
                    yield comm.compute(1.0)
                rreq = comm.irecv(left, tag=3)
                yield comm.send(right, 4096, tag=3)
                yield comm.wait(rreq, kind="MPI_Recv")
                yield comm.allreduce(8)
                step += 1

        return body


def test_untwisted_ring_engages():
    r = run(_Ring(), CLUSTER_A, 4, sim_steps=6)
    ref = run(_Ring(), CLUSTER_A, 4, sim_steps=6,
              fast_forward=False, wavefront=False)
    assert r.meta["fast_forward"] is True
    assert fingerprint(r) == fingerprint(ref)


@pytest.mark.parametrize(
    ("twist", "code"),
    [("flops", "validation"), ("step0", "validation"),
     ("step1", "validation"), ("now", "unsupported-op")],
)
def test_journal_mismatch_declines_exactly(twist, code):
    """The journal is trusted only by observation and the dry run's
    periodicity proof: a dry run whose step differs from the engine's
    only in a counter (the clocks agree), a body whose step 0 or step 1
    differs from its other steps, and a body the dry run cannot follow
    all decline — and the re-run gives the tiers-off answer."""
    bench = _Ring(twist)
    ref = run(bench, CLUSTER_A, 4, sim_steps=6,
              fast_forward=False, wavefront=False)
    before = engine_run_count()
    r = run(bench, CLUSTER_A, 4, sim_steps=6)
    assert engine_run_count() - before == 2
    assert r.meta["metrics"]["wavefront"] == {f"declined.{code}": 1.0}
    assert fingerprint(r) == fingerprint(ref)


# --------------------------------------------------------------------------
# golden corpus with the tier forced on
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case", list(golden_cases(scales=(1,))), ids=lambda c: c.slug
)
def test_golden_corpus_tier_forced_on(case):
    """Every corpus benchmark on both clusters: ``fast_forward=False``
    disables the column program, so the wavefront DAG alone must
    carry the run — and land bit-identical to the full-fidelity
    reference."""
    bench = get_benchmark(case.benchmark)
    cluster = get_cluster(case.cluster)
    ref = run(bench, cluster, case.nprocs, sim_steps=8,
              fast_forward=False, wavefront=False)
    forced = run(bench, cluster, case.nprocs, sim_steps=8,
                 fast_forward=False)
    assert forced.meta["wavefront"] is True
    assert ref.meta["wavefront"] is False
    assert fingerprint(forced) == fingerprint(ref)


# --------------------------------------------------------------------------
# one step journal, three replayers
# --------------------------------------------------------------------------


def _recorded(name: str, cluster, nprocs: int):
    """Every rank's step journal, dry-run and lowered by the controller
    exactly as at the PARK boundary, plus the runtime's fresh stats."""
    bench = get_benchmark(name)
    ctx = RunContext(
        cluster=cluster, nprocs=nprocs, workload=bench.workload("tiny"),
        exec_model=ExecutionModel(cluster.node.cpu), sim_steps=8,
    )
    ctx.runtime = runtime = MpiRuntime(cluster, nprocs)
    ctl = ReplayController(runtime, bench.make_body(ctx), 8)
    assert ctl._record() is None
    return ctl.journals, runtime.stats


def _scramble(stats: list, rng: random.Random) -> None:
    """Random non-empty statistics, as a boundary-0 copy carries: some
    time kinds already present, every counter non-zero."""
    for s in stats:
        for kind in ("compute", "MPI_Wait", "MPI_Recv", "MPI_Sendrecv",
                     "MPI_Allreduce"):
            if rng.random() < 0.5:
                s.time_by_kind[kind] = rng.uniform(0.0, 1e-2)
        for name in s.counters:
            s.counters[name] = rng.uniform(0.0, 1e6)


@pytest.mark.parametrize("cluster_name", ["A", "B"])
@pytest.mark.parametrize("name", SUITE_ORDER)
def test_replayers_agree_on_recorded_journals(name, cluster_name):
    """Every code's recorded journal, on one node and across two: the
    scalar replayer, the level-set program and (where the journal is
    column-uniform) the column program replay 1-3 steps from random
    per-rank clocks to bitwise-equal clocks, and the two compiled
    programs land bitwise-equal statistics from the same random
    non-empty start."""
    cluster = get_cluster(cluster_name)
    rng = random.Random(f"{name}/{cluster_name}")
    for nprocs in (4, 18, cluster.cores_per_node + 4):
        journals, start_stats = _recorded(name, cluster, nprocs)
        _scramble(start_stats, rng)
        starts = [rng.uniform(0.0, 1e-3) for _ in range(nprocs)]
        nsteps = rng.randint(1, 3)
        clocks = Replayer(journals, nprocs).run(starts, nsteps)

        dag_stats = copy.deepcopy(start_stats)
        dag = WavefrontProgram.compile(journals, nprocs)
        assert dag.run(starts, nsteps, dag_stats) == clocks, nprocs
        try:
            vec = VectorReplayer.compile(journals, nprocs)
        except ReplayUnsupported:
            continue
        vec_stats = copy.deepcopy(start_stats)
        assert vec.run(starts, nsteps, vec_stats) == clocks, nprocs
        assert all(
            a.time_by_kind == b.time_by_kind and a.counters == b.counters
            for a, b in zip(dag_stats, vec_stats)
        ), nprocs


#: the codes whose recorded journals are column-uniform at 72 and 104 ranks
COLUMN_CODES = ("lbm", "soma")


@pytest.mark.parametrize(("cluster_name", "nprocs"), [("A", 72), ("B", 104)])
@pytest.mark.parametrize("name", SUITE_ORDER)
def test_program_follows_journal_shape_alone(name, cluster_name, nprocs,
                                             monkeypatch):
    """One rule picks the committed program, whatever the boundary
    shape: the column program exactly when it compiles the recorded
    journal, else the level-set program.  Each flag allows one program:
    ``fast_forward=False`` puts every code on the level-set program,
    ``wavefront=False`` engages only column-uniform codes and declines
    ``structure`` for the rest.  Every engaged run compiles one program
    and replays only the one-step clock cross-check on the scalar
    replayer.  Every run lands on the tiers-off fingerprint."""
    commits, compiled, scalar_steps = [], [], []
    commit = ReplayController._commit
    dag_compile, scalar_run = WavefrontProgram.compile.__func__, Replayer.run

    def spy_commit(self):
        finals = commit(self)
        commits.append((self.journals, self.program))
        return finals

    def spy_compile(cls, journals, nprocs):
        compiled.append(dag_compile(cls, journals, nprocs))
        return compiled[-1]

    def spy_scalar(self, t_start, nsteps):
        scalar_steps.append(nsteps)
        return scalar_run(self, t_start, nsteps)

    monkeypatch.setattr(ReplayController, "_commit", spy_commit)
    monkeypatch.setattr(WavefrontProgram, "compile", classmethod(spy_compile))
    monkeypatch.setattr(Replayer, "run", spy_scalar)
    bench, cluster = get_benchmark(name), get_cluster(cluster_name)

    def go(**flags):
        commits.clear()
        compiled.clear()
        scalar_steps.clear()
        return run(bench, cluster, nprocs, sim_steps=4, **flags)

    ref = go(fast_forward=False, wavefront=False)
    assert not commits
    default = go()
    ((journals, program),) = commits
    try:
        VectorReplayer.compile(journals, nprocs)
        column = True
    except ReplayUnsupported:
        column = False
    assert column is (name in COLUMN_CODES)
    assert isinstance(program, VectorReplayer) is column
    assert default.meta["fast_forward"] is True
    assert default.meta["wavefront"] is not column
    assert scalar_steps == [1]
    assert len(compiled) == (0 if column else 1)
    if not column:
        assert default.meta["metrics"]["wavefront"]["levels"] == (
            compiled[0].nlevels
        )

    dag = go(fast_forward=False)
    ((_, program),) = commits
    assert isinstance(program, WavefrontProgram)
    assert dag.meta["fast_forward"] is dag.meta["wavefront"] is True

    column_only = go(wavefront=False)
    assert column_only.meta["fast_forward"] is column
    assert column_only.meta["wavefront"] is False
    if not column:
        assert column_only.meta["metrics"]["wavefront"] == {
            "declined.structure": 1.0
        }
    for r in (default, dag, column_only):
        assert fingerprint(r) == fingerprint(ref)


@pytest.mark.parametrize(
    ("name", "cluster_name", "nprocs", "boundaries"),
    [
        ("minisweep", "B", 104, "wavefront"),
        ("weather", "A", 72, "wavefront"),
        ("tealeaf", "B", 104, "sync"),
        ("hpgmgfv", "A", 72, "sync"),
    ],
)
def test_twenty_step_replay_matches_full_des(name, cluster_name, nprocs,
                                             boundaries, monkeypatch):
    """Twenty steps: the level-set program replays 19 of them, so its
    per-step statistics fold runs 19 times on each rank's accumulators,
    and the run stays fingerprint-identical to the tiers-off run.  The
    same program carries skewed (``wavefront``) and synchronized
    (``sync``) step boundaries."""
    compiled, parked = [], []
    dag_compile = WavefrontProgram.compile.__func__
    commit = ReplayController._commit

    def spy_compile(cls, journals, nprocs):
        compiled.append(dag_compile(cls, journals, nprocs))
        return compiled[-1]

    def spy_commit(self):
        parked.append(self._clocks[ReplayController.PARK])
        return commit(self)

    monkeypatch.setattr(WavefrontProgram, "compile", classmethod(spy_compile))
    monkeypatch.setattr(ReplayController, "_commit", spy_commit)
    bench = get_benchmark(name)
    cluster = get_cluster(cluster_name)
    on = run(bench, cluster, nprocs, sim_steps=20)
    monkeypatch.undo()
    assert on.meta["fast_forward"] is True
    assert on.meta["wavefront"] is True
    (clocks,) = parked
    assert (len(set(clocks)) == 1) is (boundaries == "sync")
    assert len(compiled) == 1
    assert on.meta["metrics"]["wavefront"]["events_saved"] == 19 * (
        compiled[0].total_ops
    )
    off = run(bench, cluster, nprocs, sim_steps=20,
              fast_forward=False, wavefront=False)
    assert fingerprint(on) == fingerprint(off)


def test_sync_journal_neither_program_compiles_declines_structure(monkeypatch):
    """A journal that neither compiled program accepts declines
    ``structure`` and re-runs in full DES."""
    def reject(cls, journals, nprocs):
        raise ReplayUnsupported("rejected")

    bench = get_benchmark("lbm")
    ref = run(bench, CLUSTER_A, 8, sim_steps=8,
              fast_forward=False, wavefront=False)
    monkeypatch.setattr(VectorReplayer, "compile", classmethod(reject))
    monkeypatch.setattr(WavefrontProgram, "compile", classmethod(reject))
    before = engine_run_count()
    r = run(bench, CLUSTER_A, 8, sim_steps=8)
    assert engine_run_count() - before == 2
    assert r.meta["metrics"]["wavefront"] == {"declined.structure": 1.0}
    assert fingerprint(r) == fingerprint(ref)
