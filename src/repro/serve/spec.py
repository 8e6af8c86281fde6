"""Canonical request specs and their content-address keys.

A serving request names a point of the simulation space.  Its identity
— the cache key, the single-flight key, the store key — is the SHA-256
digest of a *canonical record*: a deterministically ordered JSON
document of every field that can change the simulated result, following
the :mod:`repro.validate.golden` fingerprint idiom (sorted keys, exact
encodings, schema stamp).  Two requests collide iff a direct
:func:`repro.harness.runner.run` would produce bit-identical results
for both.

Engine-mode flags (``matcher``, ``fast_forward``, ...) are deliberately
*not* part of the identity: the validation subsystem proves all engine
modes bit-identical, so they select an implementation, not a result.
Fields that do change results — benchmark, cluster, scale, suite,
threads, seed/noise, explicit step counts, fault plans — are all keyed.

A request may name a :class:`~repro.scenarios.Scenario` instead of a
cluster — a library/zoo reference string or an inline scenario
document (``"scenario": "zoo/cascadelake"``).  The spec is resolved
once, by :func:`repro.scenarios.resolve` — the same rules as every
other front end (``docs/scenarios.md``, "Precedence") — and the
scenario's machine, fixed frequency plan, fault plan and suite land in
the record through the fields they resolve to: the effective machine's
:attr:`~repro.machine.cluster.ClusterSpec.machine_digest` (frequency
included), the fault digest, the suite.  ``"scenario": "zoo/icelake"``
and ``"cluster": "A"`` therefore share a key, while a re-clocked
scenario splits it.  Segmented frequency plans are rejected: the
server prices single runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import cached_property
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


def json_typed(value: Any, kind: type, name: str) -> Any:
    """``value`` if it is a JSON ``kind`` — ``bool``, ``int``, or
    ``float`` for any number — else :class:`SpecError`.  Python's
    ``bool`` is an ``int``, so ``true`` is neither an integer nor a
    number here, and ``"false"`` is not a boolean."""
    kinds = (int, float) if kind is float else (kind,)
    if isinstance(value, kinds) and (kind is bool) == isinstance(value, bool):
        return value
    noun = {bool: "boolean", int: "integer", float: "number"}[kind]
    raise SpecError(f"{name} must be a JSON {noun} (got {value!r})")


@dataclass(frozen=True)
class ServeSpec:
    """One canonicalized serving request.

    ``nprocs=None`` means fully populated nodes (``nnodes`` x
    ``cores_per_node // threads`` ranks — the paper's multi-node axis,
    see :meth:`~repro.machine.cluster.ClusterSpec.full_node_ranks`);
    the resolved rank count is part
    of the canonical record so a later cluster-table change cannot alias
    two different runs onto one key.  Exactly one of ``cluster`` and
    ``scenario`` must be given; ``suite=None`` resolves to the
    scenario's suite, then ``"tiny"``.  The resolution is computed once
    per spec (:meth:`validate`, which :meth:`from_request` calls).
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
        ``"nnodes"`` must not silently price a different run — and so
        are mistyped ones: ``"nnodes": 2.7`` or ``true`` is not the
        integer 2 or 1.
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

        def typed(name: str, kind: type, default: Any) -> Any:
            value = doc.get(name, default)
            if value is None and default is None:
                return None
            return json_typed(value, kind, name)

        try:
            spec = cls(
                benchmark=str(doc["benchmark"]),
                cluster=(
                    None if doc.get("cluster") is None else str(doc["cluster"])
                ),
                nnodes=typed("nnodes", int, 1),
                nprocs=typed("nprocs", int, None),
                suite=None if doc.get("suite") is None else str(doc["suite"]),
                threads=typed("threads", int, 1),
                seed=typed("seed", int, 0),
                noise_sigma=float(typed("noise_sigma", float, 0.0)),
                sim_steps=typed("sim_steps", int, None),
                faults=doc.get("faults"),
                scenario=doc.get("scenario"),
            )
        except (TypeError, ValueError) as exc:  # SpecError included
            raise SpecError(f"malformed spec field: {exc}") from exc
        spec.validate()
        return spec

    # --- validation / resolution ------------------------------------------

    def validate(self) -> None:
        """Check bounds and resolve the spec; raises :class:`SpecError`."""
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
        self._resolved  # resolves once; raises SpecError

    @cached_property
    def _resolved(self):
        """-> (Benchmark, ClusterSpec, nprocs, Resolution), computed once
        per spec by :func:`repro.scenarios.resolve`.  The cluster is
        capacity-raised like
        :meth:`repro.predict.api.PredictionSpec.resolve`."""
        from repro.scenarios import ScenarioError, resolve
        from repro.spechpc.suite import get_benchmark

        faults = None
        if self.faults is not None:
            from repro.faults.plan import FaultPlan

            try:
                faults = FaultPlan.from_json(json.dumps(self.faults))
            except Exception as exc:
                raise SpecError(f"malformed fault plan: {exc}") from exc
        try:
            res = resolve(
                self.scenario, cluster=self.cluster, suite=self.suite,
                faults=faults, benchmarks=(self.benchmark,),
            )
            cluster = res.cluster
        except ScenarioError as exc:
            raise SpecError(str(exc)) from exc
        bench = get_benchmark(res.benchmark)
        _require(
            res.suite in bench.workloads,
            f"benchmark {bench.name!r} has no {res.suite!r} workload "
            f"(choose from {', '.join(sorted(bench.workloads))})",
        )
        if self.nnodes > cluster.max_nodes:
            cluster = replace(cluster, max_nodes=self.nnodes)
        try:
            nprocs = self.nprocs or cluster.full_node_ranks(
                self.nnodes, self.threads
            )
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        return bench, cluster, nprocs, res

    def resolve(self):
        """-> (Benchmark, ClusterSpec, nprocs)."""
        return self._resolved[:3]

    def run_spec(self):
        """The equivalent :class:`~repro.harness.parallel.RunSpec`
        (default production engine flags — the golden configuration)."""
        from repro.harness.parallel import RunSpec

        bench, cluster, nprocs, res = self._resolved
        return RunSpec(
            benchmark=bench,
            cluster=cluster,
            nprocs=nprocs,
            suite=res.suite,
            sim_steps=self.sim_steps,
            noise_sigma=self.noise_sigma,
            seed=self.seed,
            threads_per_rank=self.threads,
            faults=res.faults,
        )

    def unpriceable_reason(self) -> Optional[str]:
        """Why no prediction tier can price this request, or ``None``:
        it uses DES-only axes (noise, faults, explicit step counts), or
        its machine is not one the cheap tiers are calibrated for
        (:meth:`repro.scenarios.Resolution.cheap_tier_cluster`)."""
        _, cluster, _, res = self._resolved
        if (self.noise_sigma != 0.0 or self.sim_steps is not None
                or res.faults is not None):
            return ("spec uses DES-only axes (noise_sigma, sim_steps, "
                    "faults) that no prediction tier can price")
        if res.cheap_tier_cluster() is None:
            return (f"machine {cluster.name!r} is not calibrated for the "
                    "prediction tiers")
        return None

    def prediction_spec(self):
        """The equivalent :class:`~repro.predict.api.PredictionSpec`, or
        ``None`` when no prediction tier can price the request
        (:meth:`unpriceable_reason`)."""
        if self.unpriceable_reason() is not None:
            return None
        res = self._resolved[3]
        from repro.predict.api import PredictionSpec

        return PredictionSpec(
            benchmark=self.benchmark,
            cluster=res.cheap_tier_cluster(),
            nnodes=self.nnodes,
            suite=res.suite,
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
        bench, cluster, nprocs, res = self._resolved
        plan = res.faults
        return {
            "schema": SPEC_SCHEMA,
            "benchmark": bench.name,
            "cluster": cluster.name,
            "machine": cluster.machine_digest,
            "nnodes": self.nnodes,
            "nprocs": nprocs,
            "suite": res.suite,
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
