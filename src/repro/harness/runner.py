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

    Each :func:`run` call is one simulator lifecycle — two when a replay
    tier declines after parking and the job re-runs in full DES — so
    this counter is the ground truth for "how many times did the event
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
    matcher:
        Message-matching implementation: ``"indexed"`` (default, O(1)
        amortized) or ``"linear"`` (the original O(pending) scan kept as
        the reference).  Bit-identical results either way.
    fast_forward / wavefront:
        Each allows one compiled program of the steady-state replay (see
        :mod:`repro.spechpc.fastforward`): once a benchmark's step
        structure is observed to be exactly periodic, the remaining
        steps are advanced analytically with bit-identical statistics.
        One :class:`~repro.spechpc.fastforward.ReplayController` picks
        the program by journal shape alone: a column-uniform journal
        (lbm, soma) replays on the column program
        (:class:`~repro.spechpc.fastforward.VectorReplayer`) if
        ``fast_forward`` allows it, any other journal on the level-set
        program (:class:`~repro.spechpc.wavefront.WavefrontProgram`, a
        dependency DAG that carries KBA sweeps and skewed halo
        pipelines too) if ``wavefront`` allows it.
        ``fast_forward=False`` forces the level-set program for every
        journal (the validation configuration); ``wavefront=False``
        leaves only the column program.  ``meta["fast_forward"]`` reads
        "a replay engaged", ``meta["wavefront"]`` "it runs on the
        level-set program".  Runs with noise, faults, or tracing force
        full fidelity regardless.  The ranks park at the program
        choice; if no allowed program applies there or a check fails,
        the job re-runs with the replay off: the result is the full-DES
        one, ``meta["metrics"]["wavefront"]`` records
        ``declined.<code>`` (e.g. ``declined.validation``), and
        :func:`engine_run_count` counts both executions.
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

    # trace=True keeps every interval; trace="streaming" keeps bounded
    # per-rank aggregates only (paper-scale tracing)
    collector = None
    if trace:
        collector = TraceCollector(
            streaming=(trace == "streaming"), network=cluster.network
        )
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
    # faults, tracing, invariants, perturbation — or no step is left
    from repro.spechpc.fastforward import (
        ReplayController,
        _ParkDeclined,
        replay_ineligibility,
    )
    from repro.spechpc.wavefront import WavefrontProgram

    tier_declined = replay_ineligibility(
        noise=noise,
        faults=injector,
        trace=collector,
        checker=checker,
        perturb_seed=perturb_seed,
        sim_steps=steps,
    )
    if tier_declined is None and not (fast_forward or wavefront):
        tier_declined = ("disabled", "both replay programs switched off")

    def launch(tiers: bool):
        """Build a fresh world and run the job in it."""
        ctx = RunContext(
            cluster=cluster,
            nprocs=nprocs,
            workload=workload,
            exec_model=ExecutionModel(cluster.node.cpu),
            sim_steps=steps,
            noise=noise,
            threads=threads_per_rank,
        )
        runtime = MpiRuntime(
            cluster,
            nprocs,
            trace=collector,
            threads_per_rank=threads_per_rank,
            faults=injector,
            matcher=matcher,
            perturb_seed=perturb_seed,
            checker=checker,
        )
        ctx.runtime = runtime
        body = benchmark.make_body(ctx)
        if tiers:
            ctx.fast_forward = ReplayController(
                runtime, body, steps, fast_forward=fast_forward,
                wavefront=wavefront,
            )
        _engine_tally.bump()
        try:
            job = runtime.launch(
                body, max_events=max_events, deadline=sim_time_limit,
            )
        except _ParkDeclined:
            runtime.sim.abandon()
            raise
        return ctx, runtime, job

    job = None
    if tier_declined is None:
        try:
            ctx, runtime, job = launch(tiers=True)
        except _ParkDeclined as stop:
            # the tier declined after the ranks parked: drop the
            # traceback that pins the stopped world, and re-run in full DES
            stop.__traceback__ = None
            tier_declined = stop.declined
    if job is None:
        ctx, runtime, job = launch(tiers=False)
    ctl = ctx.fast_forward
    program = None
    if ctl is not None:
        program = ctl.program
        tier_metrics = ctl.metrics
    else:
        code = tier_declined[0]
        tier_metrics = lambda code=code: {f"declined.{code}": 1.0}

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
        "fast_forward": program is not None,
        "wavefront": isinstance(program, WavefrontProgram),
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
