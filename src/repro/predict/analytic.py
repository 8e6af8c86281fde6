"""Tier A: closed-form Roofline/ECM + LogGP step pricing (no simulator).

The evaluator prices one representative step from the dry-run profile
(:mod:`repro.predict.profile`) with a per-rank *local clock*:

* compute ops advance the clock by their Roofline/ECM-priced duration
  (the same :class:`~repro.model.execution.ExecutionModel` numbers the
  DES uses);
* point-to-point completions are estimated from the body's own symmetry —
  halo exchanges are mirror-imaged, so a receive completes at (local post
  time of the rank's matching send) + LogGP point-to-point time;
* collectives cut the step into *segments*; ranks resynchronize at each
  one, so the step's duration is ``sum_seg max_r(seg) + sum coll_cost``
  with the shared Hockney/LogGP formulas of
  :mod:`repro.model.collectives`;
* blocking rendezvous chains (minisweep's KBA sweep) are covered by the
  per-block blocking send/receive pricing itself — charging the full
  point-to-point time on both sides of each face exchange reproduces the
  chain's steady-state ripple within the minisweep band (an explicit
  pipeline fill/drain factor overshot the golden corpus 3-7x).

Energy mirrors :class:`~repro.perfmon.rapl.EnergyMeter` term for term
(idle baselines, heat-weighted dynamic power, MPI spin power, TDP cap,
DRAM slope x bytes) over the weighted rank sample.

Each estimate carries a **stated error band**: the claimed bound on
``|predicted - DES| / DES``, calibrated per benchmark against the golden
fingerprint corpus (see ``validate.prediction_differential``, which
asserts the claim holds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.des.gcpause import gc_paused
from repro.machine.cluster import ClusterSpec
from repro.model.collectives import collective_cost
from repro.model.execution import ExecutionModel
from repro.model.power import STALL_POWER_FRACTION, ChipPowerModel
from repro.perfmon.rapl import SPIN_POWER_FACTOR, EnergyReading
from repro.predict.profile import (
    SAMPLE_LIMIT,
    BlockingRecv,
    BlockingSend,
    Coll,
    ComputeOp,
    ProfileUnsupported,
    RankProfile,
    RecvPost,
    SendPost,
    SendRecv,
    WaitAll,
    WaitOne,
    make_context,
    profile_step,
)
from repro.spechpc.base import Benchmark
from repro.units import GB

#: Claimed |predicted - DES| / DES bound per benchmark, calibrated
#: against the golden fingerprint corpus with ~1.6x headroom (see
#: ``validate.prediction_differential``).  Runtime and energy share the
#: band: energy errors track runtime errors through the idle/spin terms.
ANALYTIC_BAND: dict[str, float] = {
    "lbm": 0.05,
    "soma": 0.05,
    "tealeaf": 0.05,
    "cloverleaf": 0.05,
    "pot3d": 0.05,
    "sph-exa": 0.05,
    "hpgmgfv": 0.12,      # multigrid level skew (worst measured 7.3%)
    "weather": 0.05,
    "minisweep": 0.16,    # rendezvous-chain ripple (worst measured 9.5%)
}

#: Fallback band for benchmarks absent from the calibration table.
DEFAULT_BAND = 0.50

_COUNTER_FIELDS = (
    "flops", "simd_flops", "mem_bytes", "l3_bytes", "l2_bytes",
    "busy_seconds", "heat_seconds", "heat_busy_seconds",
)


@dataclass
class AnalyticEstimate:
    """Tier A output for one ``(benchmark, cluster, nodes)`` query.

    All totals are full-run quantities (per-step values scaled by the
    workload's iteration count, exactly like the harness runner scales
    its simulated representative steps).
    """

    benchmark: str
    cluster: str
    suite: str
    nprocs: int
    nnodes: int
    elapsed: float
    step_seconds: float
    band: float
    chip_energy: float
    dram_energy: float
    counters: dict[str, float]
    time_by_kind: dict[str, float]
    total_iterations: int
    sim_steps: int
    details: dict = field(default_factory=dict)

    @property
    def energy(self) -> EnergyReading:
        return EnergyReading(
            elapsed=self.elapsed,
            chip_energy=self.chip_energy,
            dram_energy=self.dram_energy,
            nnodes=self.nnodes,
        )


# --------------------------------------------------------------------------
# per-rank local-clock walk
# --------------------------------------------------------------------------

@dataclass
class _RankWalk:
    rank: int
    weight: int
    segments: list[float]
    colls: list[tuple[str, int | None]]
    comp: float
    p2p_wait: float
    counters: dict[str, float]
    kinds: dict[str, float]


def _walk_rank(
    prof: RankProfile, cluster: ClusterSpec, threads: int
) -> _RankWalk:
    """Price one rank's recorded step with a local clock."""
    net = cluster.network
    cores = cluster.node.cores
    rank = prof.rank
    my_node = (rank * threads) // cores

    def intra(peer: int) -> bool:
        return (peer * threads) // cores == my_node

    t = 0.0
    seg_start = 0.0
    comp = 0.0
    p2p_wait = 0.0
    counters: dict[str, float] = {f: 0.0 for f in _COUNTER_FIELDS}
    counters["messages"] = 0.0
    counters["msg_bytes"] = 0.0
    kinds: dict[str, float] = {}
    segments: list[float] = []
    colls: list[tuple[str, int | None]] = []
    pending: dict[int, tuple[str, int, int, float]] = {}
    sends_q: list[tuple[float, int, int]] = []   # (post_t, nbytes, dest)
    match_idx = 0
    last_send_bytes = 8

    def completion(rid: int) -> float:
        nonlocal match_idx
        op, peer, nbytes, post_t = pending.pop(rid)
        if op == "send":
            return post_t + net.ptp_time(nbytes, intra(peer))
        # receive: mirror-image the rank's own matching send (halo
        # exchanges are symmetric, so the peer posts at the same local
        # time this rank posted the paired send)
        if match_idx < len(sends_q):
            mp, mb, _ = sends_q[match_idx]
            match_idx += 1
        else:
            mp, mb = post_t, last_send_bytes
        return mp + net.ptp_time(mb, intra(peer))

    def add_kind(kind: str, dt: float) -> None:
        if dt > 0.0:
            kinds[kind] = kinds.get(kind, 0.0) + dt

    # exact-class dispatch: the recorder emits no op subclasses
    for op in prof.ops:
        cls = op.__class__
        if cls is ComputeOp:
            t += op.seconds
            comp += op.seconds
            add_kind("compute", op.seconds)
            counters["flops"] += op.flops
            counters["simd_flops"] += op.simd_flops
            counters["mem_bytes"] += op.mem_bytes
            counters["l3_bytes"] += op.l3_bytes
            counters["l2_bytes"] += op.l2_bytes
            counters["busy_seconds"] += op.busy_seconds
            counters["heat_seconds"] += op.heat_seconds
            counters["heat_busy_seconds"] += op.heat_busy_seconds
        elif cls is SendPost:
            pending[op.req] = ("send", op.dest, op.nbytes, t)
            sends_q.append((t, op.nbytes, op.dest))
            last_send_bytes = op.nbytes
            counters["messages"] += 1
            counters["msg_bytes"] += op.nbytes
        elif cls is RecvPost:
            pending[op.req] = ("recv", op.source, 0, t)
        elif cls is WaitOne or cls is WaitAll:
            rids = (op.req,) if cls is WaitOne else op.reqs
            tc = max((completion(r) for r in rids), default=t)
            if tc > t:
                add_kind(op.kind, tc - t)
                p2p_wait += tc - t
                t = tc
        elif cls is BlockingSend:
            dur = net.ptp_time(op.nbytes, intra(op.dest))
            last_send_bytes = op.nbytes
            counters["messages"] += 1
            counters["msg_bytes"] += op.nbytes
            add_kind("MPI_Send", dur)
            p2p_wait += dur
            t += dur
        elif cls is BlockingRecv:
            dur = net.ptp_time(last_send_bytes, intra(op.source))
            add_kind("MPI_Recv", dur)
            p2p_wait += dur
            t += dur
        elif cls is SendRecv:
            nbytes = max(op.send_bytes, op.recv_bytes)
            dur = net.ptp_time(nbytes, intra(op.dest))
            counters["messages"] += 1
            counters["msg_bytes"] += op.send_bytes
            add_kind("MPI_Sendrecv", dur)
            p2p_wait += dur
            t += dur
        elif cls is Coll:
            segments.append(t - seg_start)
            colls.append((op.kind, op.nbytes))
            seg_start = t
            if op.nbytes is not None:
                counters["messages"] += 1
                counters["msg_bytes"] += op.nbytes
        else:  # pragma: no cover - recorder and walker share the op set
            raise ProfileUnsupported(f"unpriceable op {op!r}")
    segments.append(t - seg_start)
    return _RankWalk(
        rank=prof.rank,
        weight=prof.weight,
        segments=segments,
        colls=colls,
        comp=comp,
        p2p_wait=p2p_wait,
        counters=counters,
        kinds=kinds,
    )


# --------------------------------------------------------------------------
# combination
# --------------------------------------------------------------------------

@gc_paused()
def analytic_prediction(
    benchmark: Benchmark,
    cluster: ClusterSpec,
    suite: str = "tiny",
    nnodes: int | None = None,
    nprocs: int | None = None,
    threads: int = 1,
    sample_limit: int = SAMPLE_LIMIT,
) -> AnalyticEstimate:
    """Price a full run of ``benchmark`` analytically.

    Give either ``nnodes`` (fully populated nodes, the paper's scaling
    axis: :meth:`~repro.machine.cluster.ClusterSpec.full_node_ranks`)
    or an explicit ``nprocs``.  A query leaves no cyclic garbage, so it
    runs with the cyclic collector paused
    (:func:`~repro.des.gcpause.gc_paused`).
    """
    if nprocs is None:
        if nnodes is None:
            raise ValueError("need nnodes or nprocs")
        nprocs = cluster.full_node_ranks(nnodes, threads)
    exec_model = ExecutionModel(cluster.node.cpu)
    ctx = make_context(cluster, benchmark, nprocs, suite, exec_model, threads)
    nnodes_used = ctx.nnodes
    walks = [
        _walk_rank(p, cluster, threads)
        for p in profile_step(benchmark, ctx, sample_limit)
    ]

    # collective sequences must agree across ranks (they do for SPMD
    # bodies; a mismatch means the profile is not segmentable)
    colls = walks[0].colls
    nseg = len(walks[0].segments)
    for w in walks[1:]:
        if w.colls != colls or len(w.segments) != nseg:
            raise ProfileUnsupported(
                f"{benchmark.name}: ranks disagree on the collective sequence"
            )

    net = cluster.network
    seg_max = [max(w.segments[s] for w in walks) for s in range(nseg)]
    coll_costs = [
        collective_cost(kind, net, nprocs, nnodes_used, nbytes)
        for kind, nbytes in colls
    ]
    step_seconds = sum(seg_max) + sum(coll_costs)

    # per-rank collective time: arrival skew + the gate cost, exactly the
    # DES gate accounting (rank waits from its arrival to max + cost)
    for w in walks:
        for c, (kind, _nb) in enumerate(colls):
            skew = seg_max[c] - w.segments[c]
            dt = skew + coll_costs[c]
            if dt > 0.0:
                w.kinds[kind] = w.kinds.get(kind, 0.0) + dt

    # per-rank MPI time for the spin-power term: bodies that end in a
    # collective resynchronize every rank to the step end; collective-free
    # bodies (weather's pure halo pipeline, minisweep's rendezvous chain —
    # whose per-block blocking send/recv pricing above already covers the
    # ripple, measured against the golden corpus) only wait locally
    if colls:
        mpi_by_rank = [max(0.0, step_seconds - w.comp) for w in walks]
    else:
        mpi_by_rank = [w.p2p_wait for w in walks]

    # --- energy: mirror of EnergyMeter.read over the weighted sample -------
    cpu = cluster.node.cpu
    sockets = cluster.node.sockets
    p_max = ChipPowerModel(cpu).core_power_max_w
    chip = nnodes_used * sockets * cpu.idle_power_w * step_seconds
    for w, mpi in zip(walks, mpi_by_rank):
        dyn = p_max * (
            STALL_POWER_FRACTION * w.counters["heat_seconds"]
            + (1.0 - STALL_POWER_FRACTION) * w.counters["heat_busy_seconds"]
        )
        chip += w.weight * (dyn + p_max * SPIN_POWER_FACTOR * mpi)
    chip = min(chip, nnodes_used * sockets * cpu.tdp_w * step_seconds)

    counters: dict[str, float] = {}
    for w in walks:
        for k, v in w.counters.items():
            counters[k] = counters.get(k, 0.0) + w.weight * v
    dram = nnodes_used * sockets * cpu.dram_idle_power_w * step_seconds
    dram += cpu.dram_power_per_gbs * counters["mem_bytes"] / GB

    time_by_kind: dict[str, float] = {}
    for w in walks:
        for k, v in w.kinds.items():
            time_by_kind[k] = time_by_kind.get(k, 0.0) + w.weight * v

    iters = ctx.workload.total_iterations
    return AnalyticEstimate(
        benchmark=benchmark.name,
        cluster=cluster.name,
        suite=suite,
        nprocs=nprocs,
        nnodes=nnodes_used,
        elapsed=step_seconds * iters,
        step_seconds=step_seconds,
        band=ANALYTIC_BAND.get(benchmark.name, DEFAULT_BAND),
        chip_energy=chip * iters,
        dram_energy=dram * iters,
        counters={k: v * iters for k, v in counters.items()},
        time_by_kind={k: v * iters for k, v in time_by_kind.items()},
        total_iterations=iters,
        sim_steps=ctx.sim_steps,
        details={
            "segments": seg_max,
            "collective_costs": coll_costs,
            "sampled_ranks": len(walks),
        },
    )


