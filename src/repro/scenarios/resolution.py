"""One scenario resolution for every front end.

``repro trace``/``sweep``/``predict``/``scenarios frequencies``,
``repro serve`` request specs and :func:`~repro.scenarios.run.run_scenario`
turn a scenario plus explicit values into what they run through
:func:`resolve`, so the precedence rules of ``docs/scenarios.md`` are
decided here once:

* an explicit value beats the scenario's value, which beats the
  caller's default; an explicit cluster replaces the scenario's whole
  machine, its frequency plan included;
* a fault plan given both by the scenario and explicitly is a conflict;
* a single-run consumer takes the first listed benchmark;
* a segmented frequency plan is not one run: :attr:`Resolution.cluster`
  refuses it;
* the cheap prediction tiers price only clean, calibrated points
  (:meth:`Resolution.cheap_tier_cluster`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.machine.cluster import ClusterSpec
from repro.scenarios.spec import FrequencyPlan, Scenario, ScenarioError


@dataclass(frozen=True)
class Resolution:
    """What a scenario and the explicit values resolve to."""

    scenario: Optional[Scenario]
    #: the machine at its nominal clock
    machine: ClusterSpec
    #: the scenario's frequency plan, unless an explicit cluster
    #: replaced the scenario's machine
    frequency: Optional[FrequencyPlan]
    suite: str
    faults: Optional[FaultPlan]
    #: canonical names, explicit else the scenario's (may be empty)
    benchmarks: tuple[str, ...]

    @property
    def segmented(self) -> bool:
        """True if the frequency plan changes the clock mid-run."""
        return self.frequency is not None and not self.frequency.is_fixed

    @cached_property
    def cluster(self) -> ClusterSpec:
        """The machine one run simulates: :attr:`machine` at the fixed
        frequency plan's clock."""
        plan = self.frequency
        if plan is None:
            return self.machine
        if self.segmented:
            raise ScenarioError(
                "a segmented frequency plan is not one run; price it with "
                "repro.scenarios.run_scenario (or run_frequency_plan)"
            )
        from repro.model.dvfs import apply_frequency

        try:
            return apply_frequency(
                self.machine, plan.frequency_hz, plan.uncore_ratio
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    @property
    def benchmark(self) -> str:
        """A single-run consumer's benchmark: the first listed."""
        if not self.benchmarks:
            raise ScenarioError(
                "a benchmark is required: name one, or use a scenario "
                "that lists one"
            )
        return self.benchmarks[0]

    def node_counts(self) -> Optional[list[int]]:
        """The scenario's sweep axis as node counts, or None."""
        sweep = self.scenario.sweep if self.scenario else None
        if not sweep:
            return None
        if "nodes" in sweep:
            return list(sweep["nodes"])
        return [self.machine.nodes_for(c) for c in sweep["counts"]]

    def rank_counts(self) -> Optional[list[int]]:
        """The scenario's sweep axis as rank counts, or None."""
        sweep = self.scenario.sweep if self.scenario else None
        if not sweep:
            return None
        if "counts" in sweep:
            return list(sweep["counts"])
        return [n * self.machine.cores_per_node for n in sweep["nodes"]]

    def cheap_tier_cluster(self) -> Optional[str]:
        """The calibrated registry name the cheap prediction tiers may
        price this point under, else None: any fault plan, an empty one
        included, makes a point DES-only, and the corpus and the bands
        describe only :func:`~repro.machine.calibrated` machines."""
        if self.faults is not None:
            return None
        from repro.machine.registry import calibrated

        return calibrated(self.cluster)


def resolve(
    scenario: Any = None,
    *,
    cluster: Optional[str] = None,
    suite: Optional[str] = None,
    faults: Optional[FaultPlan] = None,
    benchmarks: Optional[Sequence[str]] = None,
    default_suite: str = "tiny",
) -> Resolution:
    """Resolve ``scenario`` — a :class:`Scenario`, a reference for
    :func:`~repro.scenarios.spec.load_scenario`, an inline scenario
    document, or None — against explicit values (module docstring).
    ``cluster`` is a registry or zoo name (default: ClusterA).  Raises
    :class:`ScenarioError` for anything unresolvable.
    """
    if isinstance(scenario, str):
        from repro.scenarios.spec import load_scenario

        scenario = load_scenario(scenario)
    elif scenario is not None and not isinstance(scenario, Scenario):
        scenario = Scenario.from_dict(scenario)
        scenario.validate()
    frequency = None
    if cluster is not None or scenario is None:
        from repro.machine.registry import get_cluster

        try:
            machine = get_cluster(cluster or "A")
        except KeyError as exc:
            raise ScenarioError(exc.args[0]) from None
    else:
        machine = scenario.base_cluster()
        frequency = scenario.frequency
    if scenario is not None and scenario.faults is not None:
        if faults is not None:
            raise ScenarioError(
                "fault plan given both by the scenario and explicitly"
            )
        faults = scenario.fault_plan()
    if benchmarks is None:
        benchmarks = scenario.benchmarks if scenario is not None else ()
    from repro.spechpc.suite import get_benchmark

    try:
        benchmarks = tuple(get_benchmark(b).name for b in benchmarks)
    except KeyError as exc:
        raise ScenarioError(exc.args[0]) from None
    if suite is None and scenario is not None:
        suite = scenario.suite
    return Resolution(
        scenario=scenario,
        machine=machine,
        frequency=frequency,
        suite=suite or default_suite,
        faults=faults,
        benchmarks=benchmarks,
    )
