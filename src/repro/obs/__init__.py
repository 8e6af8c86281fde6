"""Observability: turn raw traces into explanations.

The simulator's raw event trace (:mod:`repro.perfmon.trace`) says *what
call* each rank was in; this package says *why the time was spent* and
makes the answer inspectable — the ITAC-style workflow the paper builds
its whole MPI analysis on (Fig. 2 insets, Sects. 4.1.4-4.1.5):

* :mod:`repro.obs.timeline` — per-rank timelines with every interval
  classified as ``compute`` / ``eager-send`` / ``rendezvous-wait`` /
  ``recv-wait`` / ``network-transfer`` / ``collective-wait``;
* :mod:`repro.obs.patterns` — detectors for the paper's two signature
  pathologies: the minisweep rendezvous serialization ripple and the
  lbm one-slow-rank collective skew, with per-rank attribution;
* :mod:`repro.obs.metrics` — the engine's scattered counters gathered
  into one JSON-exportable per-run snapshot;
* :mod:`repro.obs.export_chrome` / :mod:`repro.obs.export_svg` /
  :mod:`repro.obs.report` — exporters: Chrome ``trace_event`` JSON
  (loadable in Perfetto), an SVG timeline, a markdown waiting-time
  report.

Everything here is a pure *read* of finished run state.  Attaching
observability never changes results: golden fingerprints are
bit-identical with and without it, enforced by
:func:`repro.validate.differential.observability_differential`.

The one-call entry point::

    from repro.harness import run
    from repro.machine import CLUSTER_A
    from repro.spechpc import get_benchmark

    result = run(get_benchmark("minisweep"), CLUSTER_A, 59, trace=True)
    obs = result.observability()          # or repro.obs.observe(result)
    print(obs.analysis.ripple.summary())
    obs.write("trace_out/minisweep")      # .chrome.json + .svg + .md
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.obs.export_chrome import (
    chrome_trace_json,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export_svg import render_svg_timeline, write_svg_timeline
from repro.obs.metrics import aggregate_metrics, run_metrics
from repro.obs.patterns import (
    RippleReport,
    SkewReport,
    WaitingTimeAnalysis,
    analyze_waiting,
    detect_collective_skew,
    detect_ripples,
)
from repro.obs.report import waiting_time_report, write_report
from repro.obs.timeline import (
    CATEGORIES,
    COLLECTIVE_WAIT,
    COMPUTE,
    EAGER_SEND,
    NETWORK_TRANSFER,
    RECV_WAIT,
    RENDEZVOUS_WAIT,
    WAIT_CATEGORIES,
    Segment,
    Timelines,
    build_timelines,
    classify_kind,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.results import RunResult

__all__ = [
    "CATEGORIES",
    "COMPUTE",
    "EAGER_SEND",
    "RENDEZVOUS_WAIT",
    "RECV_WAIT",
    "NETWORK_TRANSFER",
    "COLLECTIVE_WAIT",
    "WAIT_CATEGORIES",
    "Segment",
    "Timelines",
    "build_timelines",
    "classify_kind",
    "RippleReport",
    "SkewReport",
    "WaitingTimeAnalysis",
    "analyze_waiting",
    "detect_ripples",
    "detect_collective_skew",
    "run_metrics",
    "aggregate_metrics",
    "to_chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "render_svg_timeline",
    "write_svg_timeline",
    "waiting_time_report",
    "write_report",
    "ObsBundle",
    "observe",
]


@dataclass(frozen=True)
class ObsBundle:
    """Everything observability derives from one traced run."""

    result: "RunResult"
    timelines: Timelines
    analysis: WaitingTimeAnalysis

    @property
    def metrics(self) -> dict[str, dict[str, float]]:
        """The run's engine-metrics snapshot (empty for pre-metrics
        results restored from old checkpoints)."""
        return self.result.meta.get("metrics", {})

    def report(self, title: Optional[str] = None, top_ranks: int = 10) -> str:
        """The markdown waiting-time report for this run."""
        r = self.result
        return waiting_time_report(
            self.timelines,
            self.analysis,
            title=title
            or (
                f"Waiting-time report — {r.benchmark} ({r.suite}) on "
                f"{r.cluster} ({r.nprocs} ranks, {r.nnodes} node(s))"
            ),
            meta={
                "benchmark": r.benchmark,
                "cluster": r.cluster,
                "suite": r.suite,
                "ranks": r.nprocs,
                "nodes": r.nnodes,
                "simulated makespan": f"{r.sim_elapsed:.6g} s",
                "full-run elapsed": f"{r.elapsed:.6g} s",
            },
            metrics=self.metrics or None,
            top_ranks=top_ranks,
        )

    def write(
        self,
        prefix: str,
        ranks: Optional[Iterable[int]] = None,
        svg_width: int = 1000,
    ) -> dict[str, str]:
        """Write all three artifacts next to each other.

        ``prefix`` is the path stem: writes ``<prefix>.chrome.json``,
        ``<prefix>.svg``, and ``<prefix>.md``; returns the mapping of
        artifact kind to written path.
        """
        r = self.result
        label = f"{r.benchmark}/{r.suite} on {r.cluster} x{r.nprocs}"
        paths = {
            "chrome": write_chrome_trace(
                f"{prefix}.chrome.json", self.timelines, label=label
            ),
            "svg": write_svg_timeline(
                f"{prefix}.svg",
                self.timelines,
                ranks=ranks,
                width=svg_width,
                title=label,
            ),
            "markdown": write_report(f"{prefix}.md", self.report()),
        }
        return paths


def observe(
    result: "RunResult",
    network: Any = None,
    ranks: Optional[Iterable[int]] = None,
    min_ripple_wait: Optional[float] = None,
    min_ripple_depth: int = 4,
    skew_ratio_threshold: float = 1.02,
) -> ObsBundle:
    """Build the full observability bundle from a traced
    :class:`~repro.harness.results.RunResult`.

    The run must have been executed with ``trace=True`` (or a streaming
    trace with a ring); ``network`` defaults to the spec of the result's
    own cluster.  Raises ``ValueError`` for an untraced result.
    """
    if result.trace is None:
        raise ValueError(
            "result carries no trace — run with trace=True to observe it"
        )
    if network is None:
        from repro.machine.registry import get_cluster

        network = get_cluster(result.cluster).network
    timelines = build_timelines(result.trace, network, ranks=ranks)
    analysis = analyze_waiting(
        timelines,
        min_ripple_wait=min_ripple_wait,
        min_ripple_depth=min_ripple_depth,
        skew_ratio_threshold=skew_ratio_threshold,
    )
    return ObsBundle(result=result, timelines=timelines, analysis=analysis)
