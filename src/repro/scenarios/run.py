"""Executing scenarios, including mid-run frequency plans.

A *fixed* frequency plan is just a re-clocked cluster, so every
consumer prices it through the ordinary single-run path.  A
*segmented* plan (clock down after N iterations, turbo the first
phase, ...) is priced here: each active segment is one independent
:func:`repro.harness.runner.run` at its own
:func:`~repro.model.dvfs.apply_frequency` cluster.  Each segment run
therefore builds its own :class:`~repro.model.execution.MemoizedExecutionModel`
— the per-run phase-cost cache can never serve a cost computed at a
different frequency, because a cache never outlives its segment.
Staleness is ruled out by construction, not by invalidation (the
energy-edge tests pin this down by fingerprinting each segment against
a standalone fixed run).

Composite totals are formed from *unscaled* per-segment quantities:
``sim_elapsed`` (the simulated seconds of exactly that segment's
steps) and ``energy / step_scale`` (each segment's
:class:`~repro.harness.results.RunResult` extrapolates itself to the
full workload, which would multiply-count the run).  The composite
covers exactly the plan's step window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.harness.results import RunResult
from repro.harness.runner import run
from repro.machine.cluster import ClusterSpec
from repro.model.dvfs import apply_frequency
from repro.scenarios.resolution import resolve
from repro.scenarios.spec import FrequencyPlan, Scenario, ScenarioError
from repro.spechpc.base import Benchmark


@dataclass(frozen=True)
class SegmentedResult:
    """A frequency-plan run: one :class:`RunResult` per active segment
    plus composite totals over the plan's step window."""

    benchmark: str
    cluster: str
    suite: str
    nprocs: int
    plan: FrequencyPlan
    #: per-active-segment results, in plan order
    segments: tuple[RunResult, ...]
    #: steps priced per segment (resolved open-ended remainder included)
    steps: tuple[int, ...]

    @property
    def nnodes(self) -> int:
        return self.segments[0].nnodes

    @property
    def elapsed(self) -> float:
        """Simulated wall time of the plan window [s] (unscaled)."""
        return sum(s.sim_elapsed for s in self.segments)

    @property
    def chip_energy(self) -> float:
        return sum(s.energy.chip_energy / s.step_scale for s in self.segments)

    @property
    def dram_energy(self) -> float:
        return sum(s.energy.dram_energy / s.step_scale for s in self.segments)

    @property
    def total_energy(self) -> float:
        return self.chip_energy + self.dram_energy

    @property
    def edp(self) -> float:
        """Energy-delay product over the plan window [J*s]."""
        return self.total_energy * self.elapsed

    @property
    def avg_power(self) -> float:
        return self.total_energy / self.elapsed if self.elapsed else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "cluster": self.cluster,
            "suite": self.suite,
            "nprocs": self.nprocs,
            "nnodes": self.nnodes,
            "steps": list(self.steps),
            "frequencies_ghz": [
                s.frequency_hz / 1e9 for s in self.plan.active_segments
            ],
            "elapsed_s": self.elapsed,
            "energy_kj": self.total_energy / 1e3,
            "avg_power_w": self.avg_power,
            "edp_kjs": self.edp / 1e3,
        }


def resolve_segment_steps(plan: FrequencyPlan, total_steps: int) -> list[int]:
    """Per-active-segment step counts, the open-ended final segment
    resolved against ``total_steps``.  Fixed-length segments beyond the
    total are an error; an open-ended remainder of zero is dropped."""
    active = plan.active_segments
    fixed = sum(s.iterations for s in active if s.iterations is not None)
    open_ended = active and active[-1].iterations is None
    if open_ended:
        remainder = total_steps - fixed
        if remainder < 0:
            raise ScenarioError(
                f"frequency plan fixes {fixed} iterations but the run "
                f"simulates only {total_steps}"
            )
        steps = [s.iterations for s in active[:-1]] + [remainder]
    else:
        if fixed > total_steps:
            raise ScenarioError(
                f"frequency plan fixes {fixed} iterations but the run "
                f"simulates only {total_steps}"
            )
        steps = [s.iterations for s in active]
    return steps


def run_frequency_plan(
    benchmark: Benchmark,
    cluster: ClusterSpec,
    plan: FrequencyPlan,
    nprocs: int,
    suite: str = "tiny",
    sim_steps: Optional[int] = None,
    **kwargs: Any,
) -> SegmentedResult:
    """Price a segmented frequency plan (see the module docstring).

    ``sim_steps`` bounds the plan window (default: the benchmark's own
    step choice); extra keyword arguments are forwarded to every
    segment's :func:`~repro.harness.runner.run` call.
    """
    total = (
        sim_steps
        if sim_steps is not None
        else benchmark.default_sim_steps(suite)
    )
    steps = resolve_segment_steps(plan, total)
    segments = []
    priced = []
    for seg, n in zip(plan.active_segments, steps):
        if n == 0:
            continue  # an empty remainder prices nothing, like iterations=0
        seg_cluster = apply_frequency(
            cluster, seg.frequency_hz, plan.uncore_ratio
        )
        segments.append(
            run(benchmark, seg_cluster, nprocs, suite=suite, sim_steps=n, **kwargs)
        )
        priced.append(n)
    if not segments:
        raise ScenarioError("frequency plan resolved to zero iterations")
    return SegmentedResult(
        benchmark=benchmark.name,
        cluster=cluster.name,
        suite=suite,
        nprocs=nprocs,
        plan=plan,
        segments=tuple(segments),
        steps=tuple(priced),
    )


def run_scenario(
    scenario: Scenario,
    nprocs: int,
    benchmark: Optional[str] = None,
    suite: Optional[str] = None,
    **kwargs: Any,
):
    """Run one benchmark under a scenario, resolved by
    :func:`~repro.scenarios.resolution.resolve` (a ``faults=`` keyword
    is the explicit fault plan).  Returns a
    :class:`~repro.harness.results.RunResult` for fixed-frequency (or
    unclocked) scenarios, a :class:`SegmentedResult` for segmented
    plans.
    """
    from repro.spechpc.suite import get_benchmark

    res = resolve(
        scenario, suite=suite, faults=kwargs.pop("faults", None),
        benchmarks=None if benchmark is None else (benchmark,),
    )
    bench = get_benchmark(res.benchmark)
    if res.segmented:
        return run_frequency_plan(
            bench, res.machine, res.frequency, nprocs, suite=res.suite,
            faults=res.faults, **kwargs,
        )
    return run(
        bench, res.cluster, nprocs, suite=res.suite, faults=res.faults,
        **kwargs,
    )
