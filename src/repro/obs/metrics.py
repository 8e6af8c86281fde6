"""One queryable, JSON-exportable metrics snapshot per run.

Engine-health counters have accumulated in several places over the
repo's life: :class:`~repro.des.simulator.SimStats` (event/heap/run-queue
throughput), the per-rank :class:`~repro.smpi.mailbox.Mailbox` queues,
the :class:`~repro.faults.injector.FaultInjector` plan, and the
:class:`~repro.perfmon.trace.TraceCollector` interval count.  This
module gathers them into one snapshot:

* every *source* is a function returning a flat ``{metric: value}``
  dict — reading is a pure post-run inspection, never a mutation, so
  collection is zero-perturbation by construction;
* :func:`run_metrics` reads the standard sources of an
  :class:`~repro.smpi.runtime.MpiRuntime` into the nested
  ``{source: {metric: value}}`` dict that the runner stores in
  ``RunResult.meta["metrics"]`` and :func:`aggregate_metrics` sums
  across a sweep's runs.

Every value is a plain int/float, so snapshots survive JSON round-trips
(sweep checkpoints, exported artifacts) losslessly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.results import ScalingSeries
    from repro.smpi.runtime import MpiRuntime

MetricSource = Callable[[], Mapping[str, float]]


# --- standard sources ---------------------------------------------------------


def engine_metrics(sim: Any) -> dict[str, float]:
    """DES throughput counters from :class:`~repro.des.simulator.SimStats`."""
    st = sim.stats
    return {
        "events": st.events,
        "heap_pushes": st.heap_pushes,
        "heap_pops": st.heap_pops,
        "runq_events": st.runq_events,
        "zero_delay_continues": st.zero_delay_continues,
        "peak_heap_size": st.peak_heap_size,
    }


def mailbox_metrics(mailboxes: Iterable[Any]) -> dict[str, float]:
    """Matching-layer totals over all ranks' mailboxes."""
    ops = 0
    pending_arrivals = 0
    pending_posts = 0
    n = 0
    for mb in mailboxes:
        n += 1
        ops += mb._seq
        pending_arrivals += mb.pending_arrivals
        pending_posts += mb.pending_posts
    return {
        "mailboxes": n,
        "matching_ops": ops,
        "pending_arrivals": pending_arrivals,
        "pending_posts": pending_posts,
    }


def fault_metrics(injector: Any) -> dict[str, float]:
    """Plan shape of an attached :class:`~repro.faults.injector.FaultInjector`."""
    plan = injector.plan
    return {
        "slow_ranks": len(plan.slow_ranks),
        "os_noise_sources": len(plan.os_noise),
        "degraded_links": len(plan.links),
        "planned_crashes": len(plan.crashes),
    }


def trace_metrics(trace: Any) -> dict[str, float]:
    """Collection counters of an attached trace collector."""
    return {
        "intervals_recorded": len(trace),
        "intervals_retained": len(trace.intervals),
        "streaming": int(bool(getattr(trace, "streaming", False))),
    }


def run_metrics(
    runtime: "MpiRuntime", tier: MetricSource | None = None
) -> dict[str, dict[str, float]]:
    """The standard post-run snapshot stored in
    ``RunResult.meta["metrics"]``: always ``engine`` and ``mailboxes``;
    ``faults``/``trace`` when the corresponding subsystem is attached;
    ``wavefront`` when the runner passes the tier-decision counters as
    ``tier`` (``eligible``/``levels``/``events_saved`` on engage,
    ``declined.<reason>`` otherwise).  ``tier`` is passed in, not kept
    on the runtime: the replay controller holds the runtime, so the
    runtime holding the controller's ``metrics`` would be a cycle.
    Sources are keyed in sorted order, so the snapshot (and its JSON
    form) is deterministic."""
    snap = {
        "engine": engine_metrics(runtime.sim),
        "mailboxes": mailbox_metrics(runtime.mailboxes),
    }
    if runtime.faults is not None:
        snap["faults"] = fault_metrics(runtime.faults)
    if runtime.trace is not None:
        snap["trace"] = trace_metrics(runtime.trace)
    if tier is not None:
        snap["wavefront"] = dict(tier())
    return dict(sorted(snap.items()))


def aggregate_metrics(series: "ScalingSeries") -> dict[str, dict[str, float]]:
    """Sum the per-run snapshots of every run in a sweep series.

    ``peak_heap_size`` and ``peak_power_w`` aggregate as a max (they are
    high-water marks, not flows); everything else sums.  Runs recorded
    before metrics existed (resumed pre-observability checkpoints)
    contribute no engine counters, but every run contributes to the
    ``energy`` source — chip/DRAM joules and EDP are first-class
    :class:`~repro.harness.results.RunResult` fields, not an optional
    engine snapshot.
    """
    total: dict[str, dict[str, float]] = {}
    for point in series.points:
        for run in point.runs:
            energy = total.setdefault("energy", {})
            for metric, value in (
                ("chip_energy_j", run.energy.chip_energy),
                ("dram_energy_j", run.energy.dram_energy),
                ("total_energy_j", run.total_energy),
                ("edp_js", run.edp),
            ):
                energy[metric] = energy.get(metric, 0.0) + value
            energy["peak_power_w"] = max(
                energy.get("peak_power_w", 0.0), run.avg_power
            )
            snap = run.meta.get("metrics")
            if not snap:
                continue
            for source, values in snap.items():
                bucket = total.setdefault(source, {})
                for metric, value in values.items():
                    if metric == "peak_heap_size":
                        bucket[metric] = max(bucket.get(metric, 0.0), value)
                    else:
                        bucket[metric] = bucket.get(metric, 0.0) + value
    return total
