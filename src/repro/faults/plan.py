"""Declarative fault plans.

A :class:`FaultPlan` is a frozen, JSON-round-trippable description of what
goes wrong during a run:

* :class:`SlowRank` — one rank computes ``factor`` times slower inside a
  simulated-time window (a thermally throttled or mis-clocked node, the
  cause of the paper's lbm barrier skew);
* :class:`OsNoise` — periodic bursts during which affected ranks compute
  ``factor`` times slower (daemon/OS jitter, cf. the run-to-run
  variability Brunst et al. report for SPEChpc campaigns);
* :class:`DegradedLink` — bandwidth/latency degradation between two nodes
  (or any pair) inside a time window (a flapping InfiniBand link);
* :class:`RankCrash` — the rank's process stops executing at simulated
  time ``time`` (node failure).

Plans are value objects: frozen dataclasses of tuples, hashable and
picklable, so they ride along in :class:`~repro.harness.parallel.RunSpec`
across process boundaries.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Optional

_INF = math.inf


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class SlowRank:
    """Rank ``rank`` computes ``factor`` x slower in [t_start, t_end)."""

    rank: int
    factor: float
    t_start: float = 0.0
    t_end: float = _INF

    def __post_init__(self) -> None:
        _require(self.rank >= 0, f"slow-rank rank must be >= 0, got {self.rank}")
        _require(self.factor >= 1.0, f"slow-rank factor must be >= 1, got {self.factor}")
        _require(self.t_start >= 0.0, "slow-rank t_start must be >= 0")
        _require(self.t_end > self.t_start, "slow-rank window must be non-empty")


@dataclass(frozen=True)
class OsNoise:
    """Periodic compute-stall bursts.

    Bursts start at ``phase + k * period`` and last ``duration`` seconds;
    during a burst the affected rank(s) compute ``factor`` x slower
    (``factor`` large approximates a full stall).  ``rank=None`` afflicts
    every rank (system-wide daemon activity).
    """

    period: float
    duration: float
    factor: float
    rank: Optional[int] = None
    phase: float = 0.0

    def __post_init__(self) -> None:
        _require(self.period > 0.0, "os-noise period must be > 0")
        _require(0.0 < self.duration <= self.period,
                 "os-noise duration must be in (0, period]")
        _require(self.factor >= 1.0, f"os-noise factor must be >= 1, got {self.factor}")
        _require(self.phase >= 0.0, "os-noise phase must be >= 0")
        if self.rank is not None:
            _require(self.rank >= 0, "os-noise rank must be >= 0")


@dataclass(frozen=True)
class DegradedLink:
    """Bandwidth/latency degradation on a node-to-node path.

    ``src_node``/``dst_node`` of ``None`` match any node; a link with
    ``src_node == dst_node`` (or wildcards) also degrades intra-node
    transport.  ``symmetric`` applies the fault in both directions.
    """

    src_node: Optional[int] = None
    dst_node: Optional[int] = None
    bandwidth_factor: float = 1.0   # multiplies bandwidth, in (0, 1]
    latency_factor: float = 1.0    # multiplies latency, >= 1
    extra_latency: float = 0.0     # additive latency [s]
    t_start: float = 0.0
    t_end: float = _INF
    symmetric: bool = True

    def __post_init__(self) -> None:
        _require(0.0 < self.bandwidth_factor <= 1.0,
                 "link bandwidth_factor must be in (0, 1]")
        _require(self.latency_factor >= 1.0, "link latency_factor must be >= 1")
        _require(self.extra_latency >= 0.0, "link extra_latency must be >= 0")
        _require(self.t_start >= 0.0, "link t_start must be >= 0")
        _require(self.t_end > self.t_start, "link window must be non-empty")
        for node in (self.src_node, self.dst_node):
            if node is not None:
                _require(node >= 0, "link node indices must be >= 0")


@dataclass(frozen=True)
class RankCrash:
    """Rank ``rank`` stops executing at simulated time ``time``.

    Peers blocked on the crashed rank deadlock, which the engine surfaces
    as a :class:`~repro.des.simulator.DeadlockError` naming the crash; a
    job that completes despite the crash raises
    :class:`~repro.smpi.diagnostics.RankCrashedError` at finalize (MPI
    semantics: a lost rank fails the job either way).
    """

    rank: int
    time: float

    def __post_init__(self) -> None:
        _require(self.rank >= 0, f"crash rank must be >= 0, got {self.rank}")
        _require(self.time >= 0.0, "crash time must be >= 0")


_FAULT_TYPES = {
    "slow_ranks": SlowRank,
    "os_noise": OsNoise,
    "links": DegradedLink,
    "crashes": RankCrash,
}


@dataclass(frozen=True)
class FaultPlan:
    """The full fault scenario of one run."""

    slow_ranks: tuple[SlowRank, ...] = ()
    os_noise: tuple[OsNoise, ...] = ()
    links: tuple[DegradedLink, ...] = ()
    crashes: tuple[RankCrash, ...] = ()

    def __post_init__(self) -> None:
        # JSON/dict construction hands over lists; normalize to tuples so
        # the plan stays hashable
        for name, cls in _FAULT_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
            for item in getattr(self, name):
                _require(
                    isinstance(item, cls),
                    f"{name} entries must be {cls.__name__}, got {type(item).__name__}",
                )
        crashed = [c.rank for c in self.crashes]
        _require(len(crashed) == len(set(crashed)),
                 "a rank may crash at most once")

    @property
    def empty(self) -> bool:
        return not (self.slow_ranks or self.os_noise or self.links or self.crashes)

    @property
    def digest(self) -> str:
        """The plan's identity in every run key: a short SHA-256 of its
        canonical JSON."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def validate_for(self, nprocs: int) -> None:
        """Check every referenced rank exists in an ``nprocs``-rank job."""
        for f in (*self.slow_ranks, *self.crashes):
            _require(f.rank < nprocs,
                     f"fault references rank {f.rank} but the job has {nprocs} ranks")
        for n in self.os_noise:
            if n.rank is not None:
                _require(n.rank < nprocs,
                         f"os-noise references rank {n.rank} but the job has "
                         f"{nprocs} ranks")

    # --- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name in _FAULT_TYPES:
            items = getattr(self, name)
            if items:
                out[name] = [
                    {k: (None if v is None else v)
                     for k, v in asdict(item).items() if v != _INF}
                    for item in items
                ]
        return out

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FaultPlan":
        unknown = set(doc) - set(_FAULT_TYPES)
        if unknown:
            raise ValueError(
                f"unknown fault plan keys {sorted(unknown)}; "
                f"expected a subset of {sorted(_FAULT_TYPES)}"
            )
        kwargs = {}
        for name, fault_cls in _FAULT_TYPES.items():
            entries = doc.get(name, [])
            allowed = {f.name for f in fields(fault_cls)}
            parsed = []
            for entry in entries:
                bad = set(entry) - allowed
                if bad:
                    raise ValueError(
                        f"unknown {fault_cls.__name__} fields {sorted(bad)}; "
                        f"expected a subset of {sorted(allowed)}"
                    )
                parsed.append(fault_cls(**entry))
            kwargs[name] = tuple(parsed)
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
