"""Single-run executor: benchmark x cluster x process count -> RunResult."""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from repro.des.gcpause import gc_paused
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.machine.cluster import ClusterSpec
from repro.model.execution import ExecutionModel
from repro.perfmon.rapl import EnergyMeter, EnergyReading
from repro.perfmon.trace import TraceCollector
from repro.smpi.runtime import MpiRuntime
from repro.spechpc.base import Benchmark, RunContext


class _EngineTally:
    """Process-wide count of DES engine executions.

    Each :func:`run` call is exactly one simulator lifecycle, so this
    counter is the ground truth for "how many times did the event
    engine actually execute" — the serving layer's single-flight and
    cache guarantees are asserted against it (a cache or coalesced hit
    must not move it).  Thread-safe: the server runs the DES from a
    thread pool.
    """

    __slots__ = ("_count", "_lock")

    def __init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()

    def bump(self) -> int:
        with self._lock:
            self._count += 1
            return self._count

    @property
    def count(self) -> int:
        return self._count


_engine_tally = _EngineTally()


def engine_run_count() -> int:
    """Total DES engine executions in this process (monotone counter)."""
    return _engine_tally.count


@gc_paused()
def run(
    benchmark: Benchmark,
    cluster: ClusterSpec,
    nprocs: int,
    suite: str = "tiny",
    sim_steps: Optional[int] = None,
    trace: bool | str = False,
    noise_sigma: float = 0.0,
    seed: int = 0,
    threads_per_rank: int = 1,
    fast_path: bool = True,
    memoize: bool = True,
    matcher: str = "indexed",
    fast_forward: bool = True,
    wavefront: bool = True,
    faults: Optional[FaultPlan] = None,
    max_events: Optional[int] = None,
    sim_time_limit: Optional[float] = None,
    perturb_seed: Optional[int] = None,
    invariants: bool = False,
):
    """Execute one simulated benchmark run.

    Parameters
    ----------
    benchmark / cluster / nprocs / suite:
        What to run and where.
    sim_steps:
        Representative steps to simulate (default: the benchmark's own
        choice); results are scaled to the workload's full iteration
        count.
    trace:
        Collect an ITAC-style event trace (slower, more memory).
        ``"streaming"`` collects bounded per-rank aggregates instead of
        every interval (for paper-scale jobs); any tracing disables the
        steady-state fast-forward.
    noise_sigma:
        Relative run-to-run compute jitter (the paper repeats runs and
        reports min/max/avg); 0 disables noise.
    seed:
        Jitter RNG seed — vary it across repeats.
    threads_per_rank:
        > 1 runs the hybrid MPI+OpenMP variant (the paper's future-work
        mode): each rank's kernels are shared by that many cores and the
        rank is pinned to a core block.
    fast_path / memoize:
        Disable the DES run-queue fast path / the per-run phase-cost
        cache.  Results are bit-identical either way; the slow flavors
        exist as the reference for equivalence tests and the engine
        microbenchmark.
    matcher:
        Message-matching implementation: ``"indexed"`` (default, O(1)
        amortized) or ``"linear"`` (the original O(pending) scan kept as
        the reference).  Bit-identical results either way.
    fast_forward:
        Allow the steady-state fast-forward (see
        :mod:`repro.spechpc.fastforward`): once a benchmark's step
        structure is observed to be exactly periodic, remaining steps are
        advanced analytically with bit-identical statistics.  Runs with
        noise, faults, or tracing force full fidelity regardless.
    wavefront:
        Allow the wavefront replay tier (see
        :mod:`repro.spechpc.wavefront`): periodic steps whose boundaries
        are *not* globally synchronized — KBA sweeps, skewed halo
        pipelines — are compiled into a dependency DAG and advanced with
        vectorized level-set replay, bit-identical to full simulation.
        Shares the fast-forward's eligibility gating;
        ``fast_forward=False, wavefront=True`` forces the wavefront tier
        even for structures the synchronized tier could handle (the
        validation configuration).
    faults:
        A :class:`~repro.faults.plan.FaultPlan` to inject (slow ranks,
        OS-noise bursts, degraded links, rank crashes).  ``None`` or an
        empty plan is bit-identical to the fault-free run.
    max_events / sim_time_limit:
        Hang watchdogs: abort with
        :class:`~repro.des.simulator.HangError` after that many DES
        events / past that simulated time.
    perturb_seed:
        Schedule-perturbation sanitizer mode (see
        :mod:`repro.validate.perturb`): same-timestamp event order and
        same-time cross-channel mailbox arrival order are shuffled with
        this seed.  A well-formed model's results are invariant under
        every seed; the fast paths that encode fixed tie-breaks
        (run-queue, fast-forward) are disabled for the perturbed run.
    invariants:
        Attach an :class:`~repro.validate.invariants.InvariantChecker`
        enforcing MPI conformance (non-overtaking, conservation,
        collective completeness, monotonic clocks) on every event; a
        violation raises
        :class:`~repro.validate.invariants.InvariantViolation`.  Forces
        full fidelity (no fast-forward), results otherwise unchanged.

    Raises
    ------
    ValueError
        For out-of-range parameters, before any simulation state is
        built (bad inputs must not surface later as a cryptic mid-run
        failure deep inside the DES).

    Notes
    -----
    The cyclic garbage collector is paused for the whole call (see
    :func:`~repro.des.gcpause.gc_paused`) and restored to the caller's
    state on return or raise.  A successful run allocates no cyclic
    garbage, so its world is freed by reference counting once the
    result no longer needs it.
    """
    from repro.harness.results import RunResult  # local import: no cycle

    if noise_sigma < 0.0:
        raise ValueError(
            f"noise_sigma must be >= 0 (got {noise_sigma}); it is a relative "
            "jitter amplitude"
        )
    if sim_steps is not None and sim_steps < 1:
        raise ValueError(
            f"sim_steps must be >= 1 (got {sim_steps}); a run must simulate "
            "at least one representative step"
        )
    if max_events is not None and max_events < 1:
        raise ValueError(f"max_events must be >= 1 (got {max_events})")
    if sim_time_limit is not None and sim_time_limit <= 0.0:
        raise ValueError(f"sim_time_limit must be > 0 (got {sim_time_limit})")

    workload = benchmark.workload(suite)
    steps = sim_steps if sim_steps is not None else benchmark.default_sim_steps(suite)
    noise = None
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        noise = 1.0 + noise_sigma * np.abs(rng.standard_normal(nprocs))

    ctx = RunContext(
        cluster=cluster,
        nprocs=nprocs,
        workload=workload,
        exec_model=ExecutionModel(cluster.node.cpu),
        sim_steps=steps,
        noise=noise,
        threads=threads_per_rank,
        memoize=memoize,
    )
    # trace=True keeps every interval; trace="streaming" keeps bounded
    # per-rank aggregates only (paper-scale tracing)
    collector = None
    if trace:
        collector = TraceCollector(streaming=(trace == "streaming"))
    injector = None
    if faults is not None and not faults.empty:
        faults.validate_for(nprocs)
        injector = FaultInjector(faults, nprocs=nprocs)
    checker = None
    if invariants:
        # local import: repro.validate imports the harness package
        from repro.validate.invariants import InvariantChecker

        checker = InvariantChecker(nprocs)

    # shared tier gating: full fidelity is forced (no controller)
    # whenever anything can perturb or observe individual steps — noise,
    # faults, tracing, invariants, perturbation, or an un-memoized
    # (generation-less) pricing model
    from repro.spechpc.fastforward import (
        PAPER_SCALE_RANKS,
        FastForwardController,
        replay_ineligibility,
    )

    tier_declined = replay_ineligibility(
        noise=noise,
        faults=injector,
        trace=collector,
        checker=checker,
        perturb_seed=perturb_seed,
        memoize=memoize,
        sim_steps=steps,
    )
    tier_active = tier_declined is None and (fast_forward or wavefront)
    # light-machinery hint: a structurally ineligible small run skips the
    # matching-stamp and virtual-clock bookkeeping nothing will consume
    light = (
        not tier_active and nprocs < PAPER_SCALE_RANKS and perturb_seed is None
    )
    runtime = MpiRuntime(
        cluster,
        nprocs,
        trace=collector,
        threads_per_rank=threads_per_rank,
        fast_path=fast_path,
        faults=injector,
        matcher=matcher,
        perturb_seed=perturb_seed,
        checker=checker,
        light=light,
    )
    ctx.runtime = runtime
    if tier_active:
        if wavefront:
            from repro.spechpc.wavefront import WavefrontController

            ctl = WavefrontController(
                runtime, steps, ctx.exec_model, allow_sync=fast_forward
            )
        else:
            ctl = FastForwardController(runtime, steps, ctx.exec_model)
        ctx.fast_forward = ctl
        tier_metrics = ctl.metrics
    else:
        code = tier_declined[0] if tier_declined is not None else "disabled"
        tier_metrics = lambda code=code: {f"declined.{code}": 1.0}
    _engine_tally.bump()
    job = runtime.launch(
        benchmark.make_body(ctx), max_events=max_events, deadline=sim_time_limit
    )

    if not job.stats:
        raise RuntimeError(
            f"benchmark {benchmark.name!r} recorded no rank statistics — "
            "its body must execute at least one compute or MPI phase"
        )
    scale = ctx.step_scale()
    counters = {
        name: sum(s.counters[name] for s in job.stats) * scale
        for name in job.stats[0].counters
    }
    time_by_kind = {k: v * scale for k, v in job.breakdown().items()}

    raw_energy = EnergyMeter(cluster).read(job)
    energy = EnergyReading(
        elapsed=raw_energy.elapsed * scale,
        chip_energy=raw_energy.chip_energy * scale,
        dram_energy=raw_energy.dram_energy * scale,
        nnodes=raw_energy.nnodes,
    )

    # post-run engine-metrics snapshot (pure counter reads — see
    # repro.obs.metrics; collection cannot perturb the finished run)
    from repro.obs.metrics import run_metrics

    meta = {
        "sim_steps": steps,
        "seed": seed,
        "noise_sigma": noise_sigma,
        "fast_forward": (
            ctx.fast_forward is not None
            and getattr(ctx.fast_forward, "engaged", False)
        ),
        "wavefront": (
            ctx.fast_forward is not None
            and getattr(ctx.fast_forward, "mode", None) == "wavefront"
            and ctx.fast_forward.engaged
        ),
        "metrics": run_metrics(runtime, tier_metrics),
    }
    if perturb_seed is not None:
        meta["perturb_seed"] = perturb_seed
    if checker is not None:
        meta["invariants"] = checker.summary()

    return RunResult(
        benchmark=benchmark.name,
        cluster=cluster.name,
        suite=suite,
        nprocs=nprocs,
        nnodes=job.nnodes,
        elapsed=job.elapsed * scale,
        sim_elapsed=job.elapsed,
        step_scale=scale,
        counters=counters,
        time_by_kind=time_by_kind,
        energy=energy,
        trace=collector,
        meta=meta,
        rank_times=tuple(
            {k: v * scale for k, v in s.time_by_kind.items()} for s in job.stats
        ),
    )
