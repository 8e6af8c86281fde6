"""The scenario file format: one named, shareable what-if.

A :class:`Scenario` bundles everything the consumers (``repro sweep``,
``repro trace``, ``repro predict``, ``repro serve``) would otherwise
take as separate flags: the machine (a registry/zoo reference or an
inline parameter document), the workload class, a frequency/DVFS plan,
a fault plan, a default benchmark selection, and sweep axes.  The JSON
form round-trips exactly (``from_dict(to_dict(s)) == s``); unknown keys
are rejected loudly at every level, following the
:class:`~repro.faults.plan.FaultPlan` idiom.

Identity is the :attr:`Scenario.digest`: a SHA-256 over a canonical
record of the *resolved parameters* — the cluster's
:attr:`~repro.machine.cluster.ClusterSpec.machine_digest` (its numbers,
not its name or capacity), the active frequency segments (not
zero-duration padding), the fault plan's own digest.  Two scenarios
that price identically therefore key identically: ``cluster:
"zoo/icelake"`` and an inline ``cluster_spec`` carrying the same Table 3
numbers produce the same digest, which is the property
:func:`repro.validate.scenario.scenario_differential` pins down at the
run-fingerprint level.  Floats are hex-encoded in the record (exact,
platform-free), matching :mod:`repro.validate.golden`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.machine.cluster import ClusterSpec
from repro.scenarios.zoo import ZooError, cluster_from_dict, load_zoo_cluster

SCENARIO_SCHEMA = 1

#: Directory of the checked-in named scenarios (``repro scenarios list``).
LIBRARY_DIR = os.path.join(os.path.dirname(__file__), "library")


class ScenarioError(ValueError):
    """A malformed or unsatisfiable scenario."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


# --------------------------------------------------------------------------
# frequency plans
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FrequencySegment:
    """``iterations`` simulated steps at ``frequency_hz``.

    ``iterations=None`` means "the rest of the run" and is only legal on
    the final segment; ``iterations=0`` is legal anywhere and prices
    nothing (a degenerate segment must be exactly equivalent to its
    absence — asserted by the energy-edge tests).
    """

    frequency_hz: float
    iterations: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.frequency_hz > 0, "segment frequency must be positive")
        _require(
            self.iterations is None or self.iterations >= 0,
            "segment iterations must be >= 0 (or null for the remainder)",
        )


@dataclass(frozen=True)
class FrequencyPlan:
    """A piecewise-constant core-frequency trajectory.

    Most plans are *fixed* (one active segment): those are accepted by
    every consumer, because a fixed plan is just a re-clocked cluster
    (:func:`repro.model.dvfs.apply_frequency`).  Multi-segment plans are
    priced by :func:`repro.scenarios.run.run_frequency_plan`, segment by
    segment, each segment an independent run with its own memoized
    phase-cost cache — staleness across a frequency change is impossible
    by construction, not by invalidation.
    """

    segments: tuple[FrequencySegment, ...]
    uncore_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.segments, tuple):
            object.__setattr__(self, "segments", tuple(self.segments))
        for seg in self.segments:
            _require(isinstance(seg, FrequencySegment),
                     "plan segments must be FrequencySegment objects")
        _require(len(self.segments) >= 1, "a frequency plan needs segments")
        _require(self.uncore_ratio > 0, "uncore_ratio must be positive")
        open_ended = [s for s in self.segments if s.iterations is None]
        _require(
            len(open_ended) <= 1 and (
                not open_ended or self.segments[-1].iterations is None
            ),
            "only the final segment may leave iterations open (null)",
        )
        _require(
            any(s.iterations is None or s.iterations > 0 for s in self.segments),
            "a frequency plan must cover at least one iteration",
        )

    @classmethod
    def fixed(cls, frequency_hz: float, uncore_ratio: float = 1.0) -> "FrequencyPlan":
        """The whole run at one frequency."""
        return cls((FrequencySegment(frequency_hz),), uncore_ratio)

    @property
    def active_segments(self) -> tuple[FrequencySegment, ...]:
        """Segments that price anything (zero-duration ones dropped)."""
        return tuple(s for s in self.segments if s.iterations != 0)

    @property
    def is_fixed(self) -> bool:
        """True if one frequency covers the whole run."""
        active = self.active_segments
        return len({s.frequency_hz for s in active}) == 1

    @property
    def frequency_hz(self) -> float:
        """The plan's single frequency (:class:`ScenarioError` if the
        plan actually changes frequency mid-run)."""
        _require(self.is_fixed,
                 "plan changes frequency mid-run; use run_frequency_plan")
        return self.active_segments[0].frequency_hz

    # --- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "segments": [
                {"frequency_ghz": s.frequency_hz / 1e9}
                | ({} if s.iterations is None else {"iterations": s.iterations})
                for s in self.segments
            ]
        }
        if self.uncore_ratio != 1.0:
            doc["uncore_ratio"] = self.uncore_ratio
        return doc

    @classmethod
    def from_dict(cls, doc: Any) -> "FrequencyPlan":
        # shorthand: a bare number is a fixed plan in GHz
        if isinstance(doc, (int, float)):
            return cls.fixed(doc * 1e9)
        _require(isinstance(doc, dict), "frequency plan must be an object "
                                        "(or a bare GHz number)")
        unknown = sorted(set(doc) - {"segments", "uncore_ratio"})
        _require(not unknown, f"unknown frequency-plan key(s): "
                              f"{', '.join(unknown)}")
        segments = []
        for i, seg in enumerate(doc.get("segments", ())):
            _require(isinstance(seg, dict), f"segment {i} must be an object")
            bad = sorted(set(seg) - {"frequency_ghz", "iterations"})
            _require(not bad, f"unknown segment key(s): {', '.join(bad)}")
            _require("frequency_ghz" in seg, f"segment {i} needs frequency_ghz")
            segments.append(FrequencySegment(
                frequency_hz=seg["frequency_ghz"] * 1e9,
                iterations=seg.get("iterations"),
            ))
        return cls(tuple(segments), float(doc.get("uncore_ratio", 1.0)))

    def canonical_record(self, nominal_hz: float) -> Optional[dict[str, Any]]:
        """Hex-exact record of what the plan *does*; ``None`` when it
        does nothing (fixed at nominal, uncore untouched) so a no-op
        plan digests identically to no plan at all."""
        active = self.active_segments
        if (
            self.uncore_ratio == 1.0
            and all(s.frequency_hz == nominal_hz for s in active)
        ):
            return None
        return {
            "uncore_ratio": float(self.uncore_ratio).hex(),
            "segments": [
                [float(s.frequency_hz).hex(), s.iterations] for s in active
            ],
        }


# --------------------------------------------------------------------------
# the scenario
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One declarative what-if (see the module docstring).

    Exactly one of ``cluster`` (a registry/zoo reference like ``"A"`` or
    ``"zoo/cascadelake"``) and ``cluster_spec`` (an inline document in
    the zoo schema) must be set.  Everything else is optional: consumers
    fill their own defaults for fields the scenario leaves out, and
    explicit CLI flags override scenario values.
    """

    name: str
    description: str = ""
    cluster: Optional[str] = None
    cluster_spec: Optional[dict[str, Any]] = field(default=None, hash=False)
    suite: Optional[str] = None
    benchmarks: tuple[str, ...] = ()
    frequency: Optional[FrequencyPlan] = None
    faults: Optional[dict[str, Any]] = field(default=None, hash=False)
    sweep: Optional[dict[str, Any]] = field(default=None, hash=False)

    def __post_init__(self) -> None:
        _require(bool(self.name), "scenario needs a name")
        _require(
            (self.cluster is None) != (self.cluster_spec is None),
            "scenario needs exactly one of 'cluster' (a reference) and "
            "'cluster_spec' (an inline document)",
        )
        if not isinstance(self.benchmarks, tuple):
            object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        if self.sweep is not None:
            bad = sorted(set(self.sweep) - {"nodes", "counts"})
            _require(not bad, f"unknown sweep axis key(s): {', '.join(bad)}")
            _require(len(self.sweep) <= 1,
                     "sweep axes: give either 'nodes' or 'counts', not both")
            for axis, values in self.sweep.items():
                _require(
                    isinstance(values, (list, tuple)) and values
                    and all(isinstance(v, int) and v >= 1 for v in values),
                    f"sweep {axis!r} must be a non-empty list of "
                    "positive integers",
                )

    # --- resolution -------------------------------------------------------

    def base_cluster(self) -> ClusterSpec:
        """The scenario's machine at its nominal clock."""
        if self.cluster is not None:
            from repro.machine.registry import get_cluster

            try:
                return get_cluster(self.cluster)
            except KeyError as exc:
                raise ScenarioError(str(exc)) from exc
        try:
            return cluster_from_dict(self.cluster_spec)
        except ZooError as exc:
            raise ScenarioError(f"inline cluster_spec: {exc}") from exc

    def effective_cluster(self) -> ClusterSpec:
        """The machine with the (fixed) frequency plan applied — what
        every single-run consumer simulates on.  Multi-segment plans
        have no single effective cluster; those go through
        :func:`repro.scenarios.run.run_frequency_plan`."""
        cluster = self.base_cluster()
        if self.frequency is None:
            return cluster
        from repro.model.dvfs import apply_frequency

        try:
            return apply_frequency(
                cluster, self.frequency.frequency_hz,
                self.frequency.uncore_ratio,
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    def fault_plan(self):
        """The scenario's :class:`~repro.faults.plan.FaultPlan` (or None)."""
        if self.faults is None:
            return None
        from repro.faults.plan import FaultPlan

        try:
            return FaultPlan.from_dict(self.faults)
        except ValueError as exc:
            raise ScenarioError(f"malformed fault plan: {exc}") from exc

    def node_counts(self, cluster: Optional[ClusterSpec] = None) -> Optional[list[int]]:
        """The sweep axis as node counts, or None when unset."""
        if not self.sweep:
            return None
        if "nodes" in self.sweep:
            return list(self.sweep["nodes"])
        cluster = cluster or self.base_cluster()
        return [cluster.nodes_for(c) for c in self.sweep["counts"]]

    def rank_counts(self, cluster: Optional[ClusterSpec] = None) -> Optional[list[int]]:
        """The sweep axis as rank counts, or None when unset."""
        if not self.sweep:
            return None
        if "counts" in self.sweep:
            return list(self.sweep["counts"])
        cluster = cluster or self.base_cluster()
        return [n * cluster.cores_per_node for n in self.sweep["nodes"]]

    def validate(self) -> None:
        """Resolve every reference; raises :class:`ScenarioError`."""
        cluster = self.base_cluster()
        if self.frequency is not None:
            # check every segment's frequency is applicable, whether or
            # not the plan collapses to a single effective cluster
            from repro.model.dvfs import apply_frequency

            for seg in self.frequency.active_segments:
                try:
                    apply_frequency(
                        cluster, seg.frequency_hz, self.frequency.uncore_ratio
                    )
                except ValueError as exc:
                    raise ScenarioError(str(exc)) from exc
        plan = self.fault_plan()
        del plan
        if self.suite is not None or self.benchmarks:
            from repro.spechpc.suite import get_benchmark

            names = self.benchmarks or ()
            for bname in names:
                try:
                    bench = get_benchmark(bname)
                except (KeyError, ValueError) as exc:
                    raise ScenarioError(
                        f"unknown benchmark {bname!r}"
                    ) from exc
                if self.suite is not None:
                    _require(
                        self.suite in bench.workloads,
                        f"benchmark {bname!r} has no {self.suite!r} workload",
                    )
        for nnodes in self.node_counts(cluster) or ():
            _require(nnodes >= 1, "sweep node counts must be >= 1")

    # --- identity ---------------------------------------------------------

    def canonical_record(self) -> dict[str, Any]:
        """The record :attr:`digest` hashes — resolved parameters only
        (a zoo reference and an equal inline spec produce the same
        record; the display name does not participate)."""
        cluster = self.base_cluster()
        plan = self.fault_plan()
        freq = None
        if self.frequency is not None:
            freq = self.frequency.canonical_record(
                cluster.node.cpu.nominal_clock_hz
            )
        return {
            "schema": SCENARIO_SCHEMA,
            "machine": cluster.machine_digest,
            "suite": self.suite,
            "benchmarks": list(self.benchmarks),
            "frequency": freq,
            "faults": None if plan is None or plan.empty else plan.digest,
            "sweep": {k: list(v) for k, v in sorted((self.sweep or {}).items())},
        }

    @property
    def digest(self) -> str:
        """SHA-256 over the canonical record (full hex)."""
        payload = json.dumps(
            self.canonical_record(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    @property
    def short_digest(self) -> str:
        """First 12 hex digits — for tables and logs."""
        return self.digest[:12]

    # --- serialization ----------------------------------------------------

    _ALLOWED = (
        "schema", "name", "description", "cluster", "cluster_spec",
        "suite", "benchmarks", "frequency", "faults", "sweep",
    )

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"schema": SCENARIO_SCHEMA, "name": self.name}
        if self.description:
            doc["description"] = self.description
        if self.cluster is not None:
            doc["cluster"] = self.cluster
        if self.cluster_spec is not None:
            doc["cluster_spec"] = self.cluster_spec
        if self.suite is not None:
            doc["suite"] = self.suite
        if self.benchmarks:
            doc["benchmarks"] = list(self.benchmarks)
        if self.frequency is not None:
            doc["frequency"] = self.frequency.to_dict()
        if self.faults is not None:
            doc["faults"] = self.faults
        if self.sweep is not None:
            doc["sweep"] = self.sweep
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Scenario":
        _require(isinstance(doc, dict), "scenario must be a JSON object")
        unknown = sorted(set(doc) - set(cls._ALLOWED))
        _require(not unknown, f"unknown scenario key(s): {', '.join(unknown)}")
        schema = doc.get("schema", SCENARIO_SCHEMA)
        _require(schema == SCENARIO_SCHEMA,
                 f"unsupported scenario schema {schema!r} "
                 f"(this build reads {SCENARIO_SCHEMA})")
        _require("name" in doc, "scenario needs a 'name'")
        freq = doc.get("frequency")
        return cls(
            name=str(doc["name"]),
            description=str(doc.get("description", "")),
            cluster=doc.get("cluster"),
            cluster_spec=doc.get("cluster_spec"),
            suite=doc.get("suite"),
            benchmarks=tuple(doc.get("benchmarks", ())),
            frequency=None if freq is None else FrequencyPlan.from_dict(freq),
            faults=doc.get("faults"),
            sweep=doc.get("sweep"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


# --------------------------------------------------------------------------
# reference resolution
# --------------------------------------------------------------------------


def library_names() -> list[str]:
    """Sorted names of the checked-in scenario library."""
    if not os.path.isdir(LIBRARY_DIR):
        return []
    return sorted(
        f[: -len(".json")]
        for f in os.listdir(LIBRARY_DIR)
        if f.endswith(".json")
    )


def scenario_names() -> dict[str, list[str]]:
    """Everything ``--scenario`` accepts by name:
    ``{"zoo": [...], "library": [...]}`` (zoo names take a ``zoo/``
    prefix)."""
    from repro.scenarios.zoo import zoo_names

    return {"zoo": zoo_names(), "library": library_names()}


def load_scenario(ref: str) -> Scenario:
    """Resolve a ``--scenario`` argument.

    Accepted forms, in precedence order: a path to a scenario JSON file;
    a ``zoo/<name>`` cluster reference (wrapped in a minimal scenario —
    this is what makes ``repro predict --scenario zoo/cascadelake`` work
    from the parameter file alone); the name of a library scenario.
    """
    if ref.endswith(".json") or os.sep in ref.rstrip("/") and os.path.exists(ref):
        if not os.path.exists(ref):
            raise ScenarioError(f"scenario file not found: {ref}")
        scenario = Scenario.load(ref)
        scenario.validate()
        return scenario
    if ref.startswith("zoo/"):
        from repro.scenarios.zoo import zoo_provenance

        try:
            scenario = Scenario(
                name=ref, cluster=ref, description=zoo_provenance(ref)
            )
        except KeyError as exc:
            raise ScenarioError(str(exc)) from exc
        scenario.validate()
        return scenario
    short = ref.split("/", 1)[1] if ref.startswith("library/") else ref
    path = os.path.join(LIBRARY_DIR, f"{short}.json")
    if os.path.exists(path):
        scenario = Scenario.load(path)
        scenario.validate()
        return scenario
    names = scenario_names()
    raise ScenarioError(
        f"unknown scenario {ref!r}; give a JSON file path, one of "
        + ", ".join(f"zoo/{n}" for n in names["zoo"])
        + (", or a library scenario: " + ", ".join(names["library"])
           if names["library"] else "")
    )
