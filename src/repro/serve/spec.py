"""Canonical request specs and their content-address keys.

A serving request names a point of the simulation space.  Its identity
— the cache key, the single-flight key, the store key — is the SHA-256
digest of a *canonical record*: a deterministically ordered JSON
document of every field that can change the simulated result, following
the :mod:`repro.validate.golden` fingerprint idiom (sorted keys, exact
encodings, schema stamp).  Two requests collide iff a direct
:func:`repro.harness.runner.run` would produce bit-identical results
for both.

Engine-mode flags (``fast_path``, ``matcher``, ...) are deliberately
*not* part of the identity: the validation subsystem proves all engine
modes bit-identical, so they select an implementation, not a result.
Fields that do change results — benchmark, cluster, scale, suite,
threads, seed/noise, explicit step counts, fault plans — are all keyed.

A request may name a :class:`~repro.scenarios.Scenario` instead of a
cluster — a library/zoo reference string or an inline scenario
document (``"scenario": "zoo/cascadelake"``).  The scenario supplies
the machine, a fixed frequency plan, a fault plan, and a default suite,
each of which lands in the record through the fields it resolves to:
the effective machine's
:attr:`~repro.machine.cluster.ClusterSpec.machine_digest` (frequency
included), the fault digest, the suite.  ``"scenario": "zoo/icelake"``
and ``"cluster": "A"`` therefore share a key, while a re-clocked
scenario splits it.  Segmented frequency plans are rejected here — the
server prices single runs, and a multi-frequency trajectory is not one
run (use :func:`repro.scenarios.run_frequency_plan` locally).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

#: Bump on incompatible canonical-record change (old store records then
#: key differently and simply miss — recompute-and-rewrite, never a
#: wrong answer).  2: scenario digest joined the record, ``suite``
#: became resolution-ordered (request > scenario > "tiny").  3: the
#: machine digest replaced the scenario digest.
SPEC_SCHEMA = 3


class SpecError(ValueError):
    """A malformed or unsatisfiable request spec (HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


@dataclass(frozen=True)
class ServeSpec:
    """One canonicalized serving request.

    ``nprocs=None`` means fully populated nodes (``nnodes`` x cores per
    node — the paper's multi-node axis); the resolved rank count is part
    of the canonical record so a later cluster-table change cannot alias
    two different runs onto one key.  Exactly one of ``cluster`` and
    ``scenario`` must be given; ``suite=None`` resolves to the
    scenario's suite, then ``"tiny"``.
    """

    benchmark: str
    cluster: Optional[str] = None
    nnodes: int = 1
    nprocs: Optional[int] = None
    suite: Optional[str] = None
    threads: int = 1
    seed: int = 0
    noise_sigma: float = 0.0
    sim_steps: Optional[int] = None
    faults: Optional[dict[str, Any]] = field(default=None, hash=False)
    #: scenario reference (string) or inline scenario document (dict)
    scenario: Optional[Any] = field(default=None, hash=False)

    @classmethod
    def from_request(cls, doc: dict[str, Any]) -> "ServeSpec":
        """Validate and canonicalize one request body.

        Unknown fields are rejected loudly — a typo like ``"node"`` for
        ``"nnodes"`` must not silently price a different run.
        """
        _require(isinstance(doc, dict), "request spec must be a JSON object")
        allowed = {
            "benchmark", "cluster", "nnodes", "nprocs", "suite",
            "threads", "seed", "noise_sigma", "sim_steps", "faults",
            "scenario",
        }
        unknown = sorted(set(doc) - allowed)
        _require(not unknown, f"unknown spec field(s): {', '.join(unknown)}")
        _require("benchmark" in doc, "spec needs a 'benchmark'")
        _require(
            "cluster" in doc or "scenario" in doc,
            "spec needs a 'cluster' or a 'scenario'",
        )
        try:
            spec = cls(
                benchmark=str(doc["benchmark"]),
                cluster=(
                    None if doc.get("cluster") is None else str(doc["cluster"])
                ),
                nnodes=int(doc.get("nnodes", 1)),
                nprocs=None if doc.get("nprocs") is None else int(doc["nprocs"]),
                suite=None if doc.get("suite") is None else str(doc["suite"]),
                threads=int(doc.get("threads", 1)),
                seed=int(doc.get("seed", 0)),
                noise_sigma=float(doc.get("noise_sigma", 0.0)),
                sim_steps=(
                    None if doc.get("sim_steps") is None
                    else int(doc["sim_steps"])
                ),
                faults=doc.get("faults"),
                scenario=doc.get("scenario"),
            )
        except (TypeError, ValueError) as exc:
            raise SpecError(f"malformed spec field: {exc}") from exc
        spec.validate()
        return spec

    # --- scenario resolution ----------------------------------------------

    def scenario_obj(self):
        """The resolved :class:`~repro.scenarios.Scenario`, or ``None``."""
        if self.scenario is None:
            return None
        from repro.scenarios import Scenario, ScenarioError, load_scenario

        try:
            if isinstance(self.scenario, str):
                return load_scenario(self.scenario)
            scenario = Scenario.from_dict(self.scenario)
            scenario.validate()
            return scenario
        except ScenarioError as exc:
            raise SpecError(f"bad scenario: {exc}") from exc

    @property
    def resolved_suite(self) -> str:
        """Request suite > scenario suite > ``"tiny"``."""
        if self.suite is not None:
            return self.suite
        if self.scenario is not None:
            scenario = self.scenario_obj()
            if scenario.suite is not None:
                return scenario.suite
        return "tiny"

    # --- validation / resolution ------------------------------------------

    def validate(self) -> None:
        """Resolve registry names and bounds; raises :class:`SpecError`."""
        from repro.spechpc.suite import get_benchmark

        _require(self.nnodes >= 1, "nnodes must be >= 1")
        _require(self.nprocs is None or self.nprocs >= 1, "nprocs must be >= 1")
        _require(self.threads >= 1, "threads must be >= 1")
        _require(self.noise_sigma >= 0.0, "noise_sigma must be >= 0")
        _require(
            self.sim_steps is None or self.sim_steps >= 1,
            "sim_steps must be >= 1",
        )
        _require(
            (self.cluster is None) != (self.scenario is None),
            "give exactly one of 'cluster' and 'scenario'",
        )
        try:
            bench = get_benchmark(self.benchmark)
        except (KeyError, ValueError) as exc:
            raise SpecError(f"unknown benchmark {self.benchmark!r}") from exc
        scenario = self.scenario_obj()
        if scenario is not None:
            if scenario.frequency is not None and not scenario.frequency.is_fixed:
                raise SpecError(
                    "the server prices single runs; segmented frequency "
                    "plans are not one run (use repro.scenarios."
                    "run_frequency_plan locally)"
                )
            _require(
                not (scenario.faults is not None and self.faults is not None),
                "fault plan given both by the scenario and the spec",
            )
        else:
            from repro.machine.registry import get_cluster

            try:
                get_cluster(self.cluster)
            except (KeyError, ValueError) as exc:
                raise SpecError(f"unknown cluster {self.cluster!r}") from exc
        suite = self.resolved_suite
        _require(
            suite in bench.workloads,
            f"benchmark {bench.name!r} has no {suite!r} workload "
            f"(choose from {', '.join(sorted(bench.workloads))})",
        )
        if self.faults is not None:
            self.fault_plan()  # raises SpecError on malformed plans

    def resolve(self):
        """-> (Benchmark, ClusterSpec, nprocs), capacity-raised like
        :meth:`repro.predict.api.PredictionSpec.resolve`.  The cluster
        is the scenario's *effective* machine (frequency plan applied)
        when the request names a scenario."""
        from dataclasses import replace

        from repro.spechpc.suite import get_benchmark

        bench = get_benchmark(self.benchmark)
        scenario = self.scenario_obj()
        if scenario is not None:
            from repro.scenarios import ScenarioError

            try:
                cluster = scenario.effective_cluster()
            except ScenarioError as exc:
                raise SpecError(str(exc)) from exc
        else:
            from repro.machine.registry import get_cluster

            cluster = get_cluster(self.cluster)
        if self.nnodes > cluster.max_nodes:
            cluster = replace(cluster, max_nodes=self.nnodes)
        nprocs = self.nprocs or self.nnodes * cluster.cores_per_node
        return bench, cluster, nprocs

    def fault_plan(self):
        """The request's :class:`~repro.faults.plan.FaultPlan` (its own,
        or the scenario's), or None."""
        doc = self.faults
        if doc is None and self.scenario is not None:
            scenario = self.scenario_obj()
            doc = scenario.faults
        if doc is None:
            return None
        from repro.faults.plan import FaultPlan

        try:
            return FaultPlan.from_json(json.dumps(doc))
        except Exception as exc:
            raise SpecError(f"malformed fault plan: {exc}") from exc

    def run_spec(self):
        """The equivalent :class:`~repro.harness.parallel.RunSpec`
        (default production engine flags — the golden configuration)."""
        from repro.harness.parallel import RunSpec

        bench, cluster, nprocs = self.resolve()
        return RunSpec(
            benchmark=bench,
            cluster=cluster,
            nprocs=nprocs,
            suite=self.resolved_suite,
            sim_steps=self.sim_steps,
            noise_sigma=self.noise_sigma,
            seed=self.seed,
            threads_per_rank=self.threads,
            faults=self.fault_plan(),
        )

    def prediction_spec(self):
        """The equivalent :class:`~repro.predict.api.PredictionSpec`, or
        ``None`` when the request uses DES-only axes (noise, faults,
        explicit step counts) that no cheap tier can price — or runs on
        a machine the cheap tiers are not calibrated for
        (:func:`repro.machine.calibrated`)."""
        if (
            self.noise_sigma != 0.0
            or self.sim_steps is not None
            or self.fault_plan() is not None
        ):
            return None
        from repro.machine.registry import calibrated

        cluster = calibrated(self.resolve()[1])
        if cluster is None:
            return None
        from repro.predict.api import PredictionSpec

        return PredictionSpec(
            benchmark=self.benchmark,
            cluster=cluster,
            nnodes=self.nnodes,
            suite=self.resolved_suite,
            threads=self.threads,
            nprocs=self.nprocs,
        )

    # --- identity ----------------------------------------------------------

    def canonical_record(self) -> dict[str, Any]:
        """The deterministically ordered record the key hashes.

        Registry names are resolved (``"A"`` and ``"ClusterA"`` are the
        same cluster, so they must be the same key), the machine enters
        by its label *and* its machine digest (a DVFS re-clock keeps the
        label), the rank count is materialized, floats are hex-encoded
        (exact, platform-free), and a fault plan contributes its own
        canonical JSON digest.
        """
        bench, cluster, nprocs = self.resolve()
        plan = self.fault_plan()
        return {
            "schema": SPEC_SCHEMA,
            "benchmark": bench.name,
            "cluster": cluster.name,
            "machine": cluster.machine_digest,
            "nnodes": self.nnodes,
            "nprocs": nprocs,
            "suite": self.resolved_suite,
            "threads": self.threads,
            "seed": self.seed,
            "noise_sigma": float(self.noise_sigma).hex(),
            "sim_steps": self.sim_steps,
            "faults": None if plan is None or plan.empty else plan.digest,
        }

    @property
    def key(self) -> str:
        """Content-address: SHA-256 over the canonical record."""
        payload = json.dumps(
            self.canonical_record(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_request(self) -> dict[str, Any]:
        """The JSON body a client would POST for this spec (inverse of
        :meth:`from_request`, defaults omitted)."""
        doc: dict[str, Any] = {
            "benchmark": self.benchmark,
            "nnodes": self.nnodes,
        }
        if self.cluster is not None:
            doc["cluster"] = self.cluster
        if self.scenario is not None:
            doc["scenario"] = self.scenario
        if self.nprocs is not None:
            doc["nprocs"] = self.nprocs
        if self.suite is not None:
            doc["suite"] = self.suite
        if self.threads != 1:
            doc["threads"] = self.threads
        if self.seed != 0:
            doc["seed"] = self.seed
        if self.noise_sigma != 0.0:
            doc["noise_sigma"] = self.noise_sigma
        if self.sim_steps is not None:
            doc["sim_steps"] = self.sim_steps
        if self.faults is not None:
            doc["faults"] = self.faults
        return doc
