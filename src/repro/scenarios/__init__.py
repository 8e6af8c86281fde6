"""Declarative what-if scenarios: cluster zoo + frequency/DVFS plans.

One :class:`~repro.scenarios.spec.Scenario` file names everything a
what-if needs — the machine (a registry/zoo reference or inline
parameters), the workload, a frequency plan, a fault plan, sweep axes —
and every consumer (``repro sweep``, ``repro trace``,
``repro predict``, ``repro serve``) accepts it via ``--scenario``.
The format and the checked-in zoo are documented in
``docs/scenarios.md``; identity semantics live on
:attr:`~repro.scenarios.spec.Scenario.digest`.
"""

from repro.machine.cluster import canonical_cluster_record
from repro.scenarios.run import (
    SegmentedResult,
    run_frequency_plan,
    run_scenario,
)
from repro.scenarios.spec import (
    LIBRARY_DIR,
    SCENARIO_SCHEMA,
    FrequencyPlan,
    FrequencySegment,
    Scenario,
    ScenarioError,
    library_names,
    load_scenario,
    scenario_names,
)
from repro.scenarios.zoo import (
    ZOO_DIR,
    ZooError,
    cluster_from_dict,
    cluster_to_dict,
    load_zoo_cluster,
    zoo_names,
    zoo_path,
    zoo_provenance,
)

__all__ = [
    "LIBRARY_DIR",
    "SCENARIO_SCHEMA",
    "ZOO_DIR",
    "FrequencyPlan",
    "FrequencySegment",
    "Scenario",
    "ScenarioError",
    "SegmentedResult",
    "ZooError",
    "canonical_cluster_record",
    "cluster_from_dict",
    "cluster_to_dict",
    "library_names",
    "load_scenario",
    "load_zoo_cluster",
    "run_frequency_plan",
    "run_scenario",
    "scenario_names",
    "zoo_names",
    "zoo_path",
    "zoo_provenance",
]
