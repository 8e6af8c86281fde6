"""Scaling sweeps with repeat statistics and failure tolerance."""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.harness.parallel import RunSpec, run_many
from repro.harness.results import FailedRun, RunResult, ScalingPoint, ScalingSeries
from repro.machine.cluster import ClusterSpec
from repro.spechpc.base import Benchmark


def scaling_sweep(
    benchmark: Benchmark,
    cluster: ClusterSpec,
    proc_counts: Sequence[int],
    suite: str = "tiny",
    repeats: int = 1,
    noise_sigma: float = 0.0,
    sim_steps: Optional[int] = None,
    workers: int = 1,
    reuse_identical_repeats: bool = True,
    faults: Optional[FaultPlan] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.05,
    tolerate_failures: bool = False,
    checkpoint: Optional[str] = None,
    max_events: Optional[int] = None,
    sim_time_limit: Optional[float] = None,
    executor=None,
    tier: str = "des",
    corpus=None,
) -> ScalingSeries:
    """Run ``benchmark`` at each process count, ``repeats`` times each.

    Every (nprocs, repeat) point is an independent simulation seeded
    ``1000 * nprocs + repeat``, so the series is deterministic regardless
    of ``workers``: ``workers > 1`` fans the points out over a process
    pool (see :mod:`repro.harness.parallel`) and reassembles them in
    order, producing a series field-for-field identical to the serial one.

    With ``noise_sigma == 0`` the seed is inert and all repeats of a point
    are bit-identical, so each point is simulated once and replicated
    (only the recorded ``meta['seed']`` differs, patched to what the
    repeat would have used).  ``reuse_identical_repeats=False`` forces the
    redundant simulations — the reference path for the microbenchmark.

    Failure tolerance (``timeout`` / ``retries`` / ``tolerate_failures``
    / ``checkpoint``) is delegated to
    :func:`~repro.harness.parallel.run_many`.  In tolerant mode a point
    stays in the series as long as at least one of its repeats succeeded;
    repeats (or whole points) that did not are collected in
    ``series.failures`` as :class:`~repro.harness.results.FailedRun`
    records.  A sweep where *every* point failed raises ``RuntimeError``
    summarizing the failures — an empty series is never returned.

    ``faults`` applies one :class:`~repro.faults.plan.FaultPlan` to every
    point; ``max_events`` / ``sim_time_limit`` arm the per-run hang
    watchdogs (see :func:`~repro.harness.runner.run`).

    ``executor`` selects where the points run (see
    :mod:`repro.harness.executors`): ``None`` auto-selects as before,
    ``"serial"``/``"local"`` force a backend, and a
    :class:`~repro.harness.fabric.FabricExecutor` instance fans the
    sweep out over TCP workers on other machines — the series is
    field-for-field identical regardless, because every point's seed is
    a pure function of ``(nprocs, repeat)``.

    ``tier`` selects the prediction fidelity (see :mod:`repro.predict`):
    the default ``"des"`` simulates every point with the engine, exactly
    as before; ``"analytic"`` / ``"surrogate"`` / ``"auto"`` answer
    points from the tiered predictor and synthesize the results — with
    ``"auto"``, any point the cheap tiers cannot defend is escalated to
    the DES and fed into ``corpus`` (an ephemeral in-memory corpus by
    default, so escalations within one sweep teach the surrogate the
    later points).  Predicted points are deterministic, so repeats are
    replicated like noiseless DES repeats.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if tier != "des":
        return _predicted_sweep(
            benchmark, cluster, proc_counts, suite=suite, repeats=repeats,
            tier=tier, corpus=corpus, tolerate_failures=tolerate_failures,
            des_kwargs=dict(
                sim_steps=sim_steps, noise_sigma=noise_sigma,
                faults=faults, max_events=max_events,
                sim_time_limit=sim_time_limit,
            ),
        )

    def spec(n: int, rep: int) -> RunSpec:
        return RunSpec(
            benchmark=benchmark,
            cluster=cluster,
            nprocs=n,
            suite=suite,
            sim_steps=sim_steps,
            noise_sigma=noise_sigma,
            seed=1000 * n + rep,
            faults=faults,
            max_events=max_events,
            sim_time_limit=sim_time_limit,
        )

    dedup = reuse_identical_repeats and noise_sigma == 0.0 and repeats > 1
    if dedup:
        specs = [spec(n, 0) for n in proc_counts]
    else:
        specs = [spec(n, rep) for n in proc_counts for rep in range(repeats)]
    results = run_many(
        specs,
        workers=workers,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        tolerate_failures=tolerate_failures,
        checkpoint=checkpoint,
        executor=executor,
    )

    points: list[ScalingPoint] = []
    failures: list[FailedRun] = []
    if dedup:
        for n, first in zip(proc_counts, results):
            if isinstance(first, FailedRun):
                failures.append(first)
                continue
            runs = [first]
            for rep in range(1, repeats):
                # deep-copy so repeats do not share the nested mutable
                # dicts (counters, time_by_kind) with the first run
                clone = copy.deepcopy(first)
                runs.append(
                    replace(clone, meta={**clone.meta, "seed": 1000 * n + rep})
                )
            points.append(ScalingPoint(nprocs=n, runs=tuple(runs)))
    else:
        it = iter(results)
        for n in proc_counts:
            batch = [next(it) for _ in range(repeats)]
            runs = tuple(r for r in batch if isinstance(r, RunResult))
            failures.extend(r for r in batch if isinstance(r, FailedRun))
            if runs:
                points.append(ScalingPoint(nprocs=n, runs=runs))
    if not points:
        details = "; ".join(f.summary() for f in failures[:4])
        raise RuntimeError(
            f"scaling sweep of {benchmark.name!r} on {cluster.name!r} lost "
            f"every point ({len(failures)} failure(s)): {details}"
        )
    return ScalingSeries(
        benchmark=benchmark.name,
        cluster=cluster.name,
        suite=suite,
        points=tuple(points),
        failures=tuple(failures),
    )


def _predicted_sweep(
    benchmark: Benchmark,
    cluster: ClusterSpec,
    proc_counts: Sequence[int],
    suite: str,
    repeats: int,
    tier: str,
    corpus,
    tolerate_failures: bool,
    des_kwargs: dict,
) -> ScalingSeries:
    """Answer a sweep from the tiered predictor (``tier != "des"``).

    Points run in order so that ``tier="auto"`` escalations feed the
    corpus before later (usually larger) points query it.
    """
    import traceback as _tb

    from repro.predict import (
        PredictionCorpus,
        PredictionSpec,
        ProfileUnsupported,
        predict,
        prediction_to_result,
    )

    if corpus is None:
        corpus = PredictionCorpus()
    points: list[ScalingPoint] = []
    failures: list[FailedRun] = []
    for n in proc_counts:
        spec = PredictionSpec(
            benchmark=benchmark.name,
            cluster=cluster.name,
            nnodes=cluster.nodes_for(n),
            suite=suite,
            nprocs=n,
            benchmark_obj=benchmark,
            cluster_obj=cluster,
        )
        try:
            pred = predict(
                spec, tier=tier, corpus=corpus,
                seed=1000 * n, **des_kwargs,
            )
            first = prediction_to_result(pred)
        except (ProfileUnsupported, ValueError) as exc:
            if not tolerate_failures:
                raise
            failures.append(FailedRun(
                benchmark=benchmark.name,
                cluster=cluster.name,
                suite=suite,
                nprocs=n,
                seed=1000 * n,
                error_type=type(exc).__name__,
                error_message=str(exc),
                traceback=_tb.format_exc(),
            ))
            continue
        runs = [first]
        for rep in range(1, repeats):
            clone = copy.deepcopy(first)
            runs.append(
                replace(clone, meta={**clone.meta, "seed": 1000 * n + rep})
            )
        points.append(ScalingPoint(nprocs=n, runs=tuple(runs)))
    if not points:
        details = "; ".join(f.summary() for f in failures[:4])
        raise RuntimeError(
            f"predicted sweep of {benchmark.name!r} on {cluster.name!r} lost "
            f"every point ({len(failures)} failure(s)): {details}"
        )
    return ScalingSeries(
        benchmark=benchmark.name,
        cluster=cluster.name,
        suite=suite,
        points=tuple(points),
        failures=tuple(failures),
    )


def domain_fill_counts(cluster: ClusterSpec, stride: int = 1) -> list[int]:
    """Process counts 1..cores-per-node (the x-axis of Figs. 1-4)."""
    return list(range(1, cluster.node.cores + 1, stride))


def node_counts(cluster: ClusterSpec, max_nodes: int | None = None) -> list[int]:
    """Power-of-two node counts for multi-node sweeps (Figs. 5-6)."""
    limit = max_nodes or cluster.max_nodes
    counts = []
    n = 1
    while n <= limit:
        counts.append(n)
        n *= 2
    return counts
