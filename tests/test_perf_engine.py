"""Performance-engine tests: DES fast path, memoization, parallel harness.

The optimizations must be invisible in the results: every test here pins
the optimized paths (run-queue fast path, phase-cost memoization, process
-pool sweeps, repeat deduplication) against the reference flavors
(``Simulator(fast_path=False)``, a fresh ``ExecutionModel``, a
``perturb_seed`` run on the pure-heap engine, ``workers=1``,
``reuse_identical_repeats=False``) and demands *bit-identical* output.
"""

import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Delay, Signal, SimStats, Simulator, Wait
from repro.harness import RunSpec, run, run_many, scaling_sweep
from repro.harness.parallel import execute
from repro.machine import CLUSTER_A, CLUSTER_B
from repro.model.dvfs import frequency_grid
from repro.model.execution import ExecutionModel, MemoizedExecutionModel
from repro.model.kernel import KernelModel
from repro.spechpc import get_benchmark
from repro.spechpc.base import RunContext, _HybridModelProxy

ALL_BENCH_NAMES = (
    "lbm", "soma", "tealeaf", "cloverleaf", "minisweep",
    "pot3d", "sph-exa", "hpgmgfv", "weather",
)


# --- DES fast path ----------------------------------------------------------


def _fanout_scenario(fast_path):
    """Signal fan-out + mixed delays: heavy same-timestamp traffic."""
    sim = Simulator(fast_path=fast_path)
    log = []
    gate = Signal("gate")

    def waiter(i):
        v = yield Wait(gate)
        log.append(("woke", i, v, sim.now))
        yield Delay(0.25 if i % 2 else 0.5)
        log.append(("done", i, sim.now))

    def firer():
        yield Delay(1.0)
        log.append(("firing", sim.now))
        gate.fire("go")
        yield Delay(0.25)
        log.append(("firer-done", sim.now))

    def ticker():
        for k in range(4):
            yield Delay(0.5)
            log.append(("tick", k, sim.now))

    for i in range(5):
        sim.spawn(f"w{i}", waiter(i))
    sim.spawn("firer", firer())
    sim.spawn("ticker", ticker())
    end = sim.run()
    return log, end, sim.stats


def test_fast_path_event_order_matches_pure_heap():
    fast_log, fast_end, fast_stats = _fanout_scenario(True)
    ref_log, ref_end, ref_stats = _fanout_scenario(False)
    assert fast_log == ref_log
    assert fast_end == ref_end
    # the fast engine actually took the run-queue (spawns + signal fan-out)
    assert fast_stats.runq_events > 0
    assert ref_stats.runq_events == 0
    assert fast_stats.heap_pushes < ref_stats.heap_pushes
    # same number of dispatched events either way
    assert fast_stats.events == ref_stats.events


def _epsilon_past_callback_scenario(fast_path):
    """A call_at epsilon before ``now`` must beat current-time runq entries.

    ``call_at`` tolerates times up to 1e-15 in the past; such an event has
    ``time < now``, so the pure-heap engine runs it before any
    current-time event regardless of insertion counter — even one that
    landed on the run-queue earlier.
    """
    sim = Simulator(fast_path=fast_path)
    log = []
    gate = Signal("gate")

    def waiter():
        yield Wait(gate)
        log.append("waiter")

    def driver():
        yield Delay(1.0)
        gate.fire(None)  # waiter -> runq (fast path), smaller counter
        sim.call_at(sim.now - 5e-16, lambda: log.append("callback"))

    sim.spawn("waiter", waiter())
    sim.spawn("driver", driver())
    sim.run()
    return log


def test_epsilon_past_callback_beats_current_time_runq():
    fast = _epsilon_past_callback_scenario(True)
    ref = _epsilon_past_callback_scenario(False)
    assert fast == ref == ["callback", "waiter"]


@pytest.mark.parametrize("fast_path", [True, False])
def test_zero_delay_semantics(fast_path):
    def body(n):
        total = 0
        for _ in range(n):
            yield Delay(0.0)
            total += 1
        yield Delay(1.0)
        return total

    sim = Simulator(fast_path=fast_path)
    proc = sim.spawn("z", body(10))
    end = sim.run()
    assert end == 1.0
    assert proc.result == 10
    if fast_path:
        assert sim.stats.zero_delay_continues == 10
    else:
        assert sim.stats.zero_delay_continues == 0


def _zero_delay_contention_scenario(fast_path):
    """One signal wakes two waiters; the first yields Delay(0).

    The pure-heap engine re-queues the Delay(0) continuation behind the
    second waiter (already scheduled at the same timestamp), so the log
    must be [b-woke, c-woke, b-after-zero-delay] — an in-place continue
    here would jump the queue.
    """
    sim = Simulator(fast_path=fast_path)
    log = []
    gate = Signal("gate")

    def b():
        yield Wait(gate)
        log.append("b-woke")
        yield Delay(0.0)
        log.append("b-after-zero-delay")

    def c():
        yield Wait(gate)
        log.append("c-woke")
        yield Delay(0.0)
        log.append("c-after-zero-delay")

    def firer():
        yield Delay(1.0)
        gate.fire("go")

    sim.spawn("b", b())
    sim.spawn("c", c())
    sim.spawn("firer", firer())
    end = sim.run()
    return log, end


def test_zero_delay_under_contention_matches_pure_heap():
    fast_log, fast_end = _zero_delay_contention_scenario(True)
    ref_log, ref_end = _zero_delay_contention_scenario(False)
    assert fast_log == ref_log
    assert fast_end == ref_end
    assert ref_log == [
        "b-woke", "c-woke", "b-after-zero-delay", "c-after-zero-delay",
    ]


@pytest.mark.parametrize("fast_path", [True, False])
def test_run_until_preserves_fifo_across_pause(fast_path):
    # Two processes wake at the same timestamp; pausing in between used to
    # re-push the popped event with a *fresh* counter, demoting it behind
    # its same-time peer and flipping the FIFO order after resume.
    sim = Simulator(fast_path=fast_path)
    order = []

    def worker(name):
        yield Delay(2.0)
        order.append(name)

    sim.spawn("first", worker("first"))
    sim.spawn("second", worker("second"))
    assert sim.run(until=1.0) == 1.0
    assert sim.now == 1.0
    assert order == []
    sim.run()
    assert order == ["first", "second"]


def test_simulator_stats_exposed():
    sim = Simulator()
    assert isinstance(sim.stats, SimStats)

    def body():
        yield Delay(1.0)

    sim.spawn("p", body())
    sim.run()
    d = sim.stats.as_dict()
    assert d["events"] > 0
    assert set(d) == {
        "events", "heap_pushes", "heap_pops", "runq_events",
        "zero_delay_continues", "peak_heap_size",
    }


# --- phase-cost memoization -------------------------------------------------


class _CountingModel:
    """Delegating wrapper that counts phase_cost evaluations."""

    def __init__(self, base):
        self._base = base
        self.calls = 0

    def phase_cost(self, *args, **kwargs):
        self.calls += 1
        return self._base.phase_cost(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._base, name)


def test_memoized_model_caches_by_value():
    counting = _CountingModel(ExecutionModel(CLUSTER_A.node.cpu))
    model = MemoizedExecutionModel(counting)
    def make_kernel():
        return KernelModel(
            name="k", flops_per_unit=100.0, simd_fraction=0.8,
            mem_bytes_per_unit=64.0, l3_bytes_per_unit=96.0,
            l2_bytes_per_unit=128.0, working_set_bytes_per_unit=24.0,
        )

    # an equal-by-value but distinct kernel object must hit the cache
    k1, k2 = make_kernel(), make_kernel()
    assert k1 is not k2
    c1 = model.phase_cost(k1, 1e6, 4)
    c2 = model.phase_cost(k2, 1e6, 4)
    assert counting.calls == 1
    assert model.cache_size == 1
    assert c1 == c2
    # different occupancy is a different key
    model.phase_cost(k1, 1e6, 8)
    assert counting.calls == 2
    # non-phase_cost attributes delegate to the wrapped model
    assert model.saturation_cores() == counting.saturation_cores()


_KERNEL_BASE = dict(
    simd_fraction=0.8, l3_bytes_per_unit=96.0, l2_bytes_per_unit=128.0,
    working_set_bytes_per_unit=24.0,
)
_STREAM = KernelModel(name="stream", flops_per_unit=2.0,
                      mem_bytes_per_unit=24.0, **_KERNEL_BASE)
#: three kernel shapes plus one derived by ``KernelModel.scaled``
_KERNELS = (
    _STREAM,
    KernelModel(name="dense", flops_per_unit=400.0, mem_bytes_per_unit=8.0,
                heat=1.0, **_KERNEL_BASE),
    KernelModel(name="cached", flops_per_unit=40.0, mem_bytes_per_unit=64.0,
                fixed_working_set_bytes=2e6, **_KERNEL_BASE),
    _STREAM.scaled(2.0),
)
_LOW_HZ = frequency_grid(CLUSTER_A)[0]

#: the pricing models a run can wrap: plain, hybrid MPI+OpenMP, re-clocked
_MODELS = {
    "plain": lambda: ExecutionModel(CLUSTER_A.node.cpu),
    "hybrid": lambda: _HybridModelProxy(ExecutionModel(CLUSTER_A.node.cpu), 3),
    "at_frequency": lambda: ExecutionModel(CLUSTER_A.node.cpu).at_frequency(
        _LOW_HZ
    ),
}

# (kernel, units, ranks_in_domain, penalty) drawn from small pools, so
# sequences repeat and interleave keys
_queries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_KERNELS) - 1),
        st.sampled_from((1.0, 3.5e4, 1e6, 2.5e7)),
        st.integers(min_value=1, max_value=CLUSTER_A.node.cores_per_domain),
        st.sampled_from((1.0, 1.03, 1.25)),
    ),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("model", sorted(_MODELS))
@settings(max_examples=60, deadline=None)
@given(queries=_queries)
def test_memoized_model_equals_fresh_pricing(model, queries):
    """Any query sequence: the per-run cache returns exactly what a fresh
    model prices, and misses exactly once per distinct key."""
    make = _MODELS[model]
    counting = _CountingModel(make())
    memo = MemoizedExecutionModel(counting)
    for k, units, rid, penalty in queries:
        kernel = _KERNELS[k]
        got = memo.phase_cost(kernel, units, rid, penalty)
        assert got == make().phase_cost(kernel, units, rid, penalty)
    distinct = {(_KERNELS[k], u, r, p) for k, u, r, p in queries}
    assert counting.calls == memo.cache_size == len(distinct)


@settings(max_examples=60, deadline=None)
@given(
    queries=_queries,
    factors=st.lists(st.sampled_from((1.0, 1.0123, 1.5, 2.0)), min_size=1),
)
def test_stretched_cost_equals_fresh_stretch(queries, factors):
    """The per-run stretch cache returns exactly the uncached stretch."""
    ctx = RunContext(
        cluster=CLUSTER_A, nprocs=2,
        workload=get_benchmark("tealeaf").workload("tiny"),
        exec_model=ExecutionModel(CLUSTER_A.node.cpu),
    )
    for i, (k, units, rid, penalty) in enumerate(queries):
        cost = ctx.exec_model.phase_cost(_KERNELS[k], units, rid, penalty)
        f = factors[i % len(factors)]
        assert ctx.stretched_cost(cost, f) == RunContext._stretch(cost, f)


@pytest.mark.parametrize("bench_name", ALL_BENCH_NAMES)
def test_optimized_run_bit_identical(bench_name):
    """The run-queue fast path must not change a single output bit: the
    production run equals a ``perturb_seed`` run, which executes on the
    pure-heap engine with every replay tier off."""
    bench = get_benchmark(bench_name)
    for cluster, nprocs in ((CLUSTER_A, 1), (CLUSTER_A, 13), (CLUSTER_B, 7)):
        fast = run(bench, cluster, nprocs)
        ref = run(bench, cluster, nprocs, perturb_seed=0)
        assert fast == ref


def test_optimized_run_bit_identical_with_noise():
    # noise is applied post-pricing (stretched_cost), so cached costs stay
    # noise-free and the jittered results still match exactly
    bench = get_benchmark("tealeaf")
    fast = run(bench, CLUSTER_A, 18, noise_sigma=0.02, seed=42)
    ref = run(bench, CLUSTER_A, 18, noise_sigma=0.02, seed=42, perturb_seed=0)
    assert fast == ref


def test_optimized_run_bit_identical_hybrid():
    # memoization wraps *outside* the hybrid repricing proxy
    bench = get_benchmark("tealeaf")
    fast = run(bench, CLUSTER_A, 6, threads_per_rank=3)
    ref = run(bench, CLUSTER_A, 6, threads_per_rank=3, perturb_seed=0)
    assert fast == ref


# --- parallel sweep harness -------------------------------------------------


def test_parallel_sweep_matches_serial():
    bench = get_benchmark("soma")
    kwargs = dict(
        suite="tiny", repeats=2, noise_sigma=0.01, proc_counts=[1, 3, 6],
    )
    serial = scaling_sweep(bench, CLUSTER_A, workers=1, **kwargs)
    fanned = scaling_sweep(bench, CLUSTER_A, workers=2, **kwargs)
    assert serial == fanned


def test_repeat_dedup_matches_full_repeats():
    bench = get_benchmark("tealeaf")
    kwargs = dict(suite="tiny", repeats=3, noise_sigma=0.0, proc_counts=[1, 4])
    dedup = scaling_sweep(bench, CLUSTER_A, **kwargs)
    full = scaling_sweep(
        bench, CLUSTER_A, reuse_identical_repeats=False, **kwargs
    )
    assert dedup == full
    # the dedup path really does replicate: repeats share everything but
    # carry the seed each repeat would have used
    point = dedup.points[0]
    assert len(point.runs) == 3
    assert [r.meta["seed"] for r in point.runs] == [1000, 1001, 1002]


def test_run_many_rejects_trace_with_workers():
    spec = RunSpec(get_benchmark("soma"), CLUSTER_A, 2, trace=True)
    with pytest.raises(ValueError, match="trace"):
        run_many([spec, spec], workers=2)
    # serial traced runs stay allowed
    (result,) = run_many([spec], workers=1)
    assert result.trace is not None


def test_run_many_rejects_bad_worker_count():
    spec = RunSpec(get_benchmark("soma"), CLUSTER_A, 1)
    with pytest.raises(ValueError, match="workers"):
        run_many([spec], workers=0)


def test_run_spec_execute_equals_direct_run():
    spec = RunSpec(
        get_benchmark("pot3d"), CLUSTER_B, 5, noise_sigma=0.01, seed=7,
    )
    assert execute(spec) == run(
        get_benchmark("pot3d"), CLUSTER_B, 5, noise_sigma=0.01, seed=7,
    )


def test_results_pickle_roundtrip():
    # RunResult and its EnergyReading must survive the process boundary
    result = run(get_benchmark("tealeaf"), CLUSTER_A, 4)
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    assert clone.energy == result.energy
    assert clone.gflops == result.gflops


def test_runner_reports_benchmark_on_empty_stats(monkeypatch):
    # A degenerate runtime that records no rank statistics must produce a
    # clear error naming the benchmark, not an IndexError on stats[0].
    from repro.harness import runner as runner_mod

    class _EmptyRuntime(runner_mod.MpiRuntime):
        def launch(self, body_factory, **kwargs):
            job = super().launch(body_factory, **kwargs)
            job.stats.clear()
            return job

    monkeypatch.setattr(runner_mod, "MpiRuntime", _EmptyRuntime)
    with pytest.raises(RuntimeError, match="tealeaf"):
        run(get_benchmark("tealeaf"), CLUSTER_A, 2)


# --- acyclic run teardown ---------------------------------------------------

TWO_NODES_A = 2 * CLUSTER_A.cores_per_node


def _cyclic_garbage(bench, nprocs, **kwargs):
    """Objects only the cyclic collector can free once one ``run`` result
    is dropped, with the collector off from before the run to the count.

    A warm-up run first pays the one-off garbage of lazy imports and
    first-use caches, which is not the run's own.  Returns the count and
    the dropped result's ``meta``.
    """
    run(bench, CLUSTER_A, nprocs, **kwargs)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        meta = run(bench, CLUSTER_A, nprocs, **kwargs).meta
        return gc.collect(), meta
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("bench_name", ALL_BENCH_NAMES)
def test_run_leaves_no_cyclic_garbage(bench_name):
    """A finished run's whole world (processes, mailboxes, rank stats,
    step journals) is freed by reference counting alone when the result
    goes: nothing in it waits for the cyclic collector."""
    garbage, _ = _cyclic_garbage(get_benchmark(bench_name), TWO_NODES_A)
    assert garbage == 0


@pytest.mark.parametrize(
    ("bench_name", "nprocs", "kwargs", "tier"),
    [
        ("minisweep", 8, dict(sim_steps=8), "wavefront"),
        ("lbm", 24, dict(sim_steps=10), "fast_forward"),
        ("hpgmgfv", 4 * CLUSTER_A.cores_per_node, dict(sim_steps=8), None),
    ],
    ids=["wavefront", "sync", "declined"],
)
def test_replay_tier_run_leaves_no_cyclic_garbage(bench_name, nprocs, kwargs, tier):
    """The replay controller holds the runtime; the tier's metrics must
    not be hung back on the runtime, or the pair keeps the run alive.

    The declined row fails validation after the ranks parked, so its
    world is stopped and the job re-runs in full DES: neither the parked
    rank generators nor the raising process's traceback (a process ↔
    error cycle) may outlive the re-run."""
    garbage, meta = _cyclic_garbage(get_benchmark(bench_name), nprocs, **kwargs)
    if tier is None:
        assert meta["metrics"]["wavefront"] == {"declined.validation": 1.0}
    else:
        assert meta[tier] is True
    assert garbage == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(trace=True),
        dict(invariants=True),
        dict(noise_sigma=0.05, seed=3),
        dict(perturb_seed=7),
        dict(matcher="linear", fast_forward=False, wavefront=False),
    ],
    ids=["trace", "invariants", "noise", "perturb", "reference"],
)
def test_instrumented_run_leaves_no_cyclic_garbage(kwargs):
    garbage, _ = _cyclic_garbage(get_benchmark("tealeaf"), TWO_NODES_A, **kwargs)
    assert garbage == 0
