"""ITAC-style MPI event traces.

The collector receives every timeline interval (compute and MPI call
kinds) from the simulated runtime and renders the per-rank timelines the
paper shows as insets in Fig. 2 — e.g. minisweep's MPI_Recv ripple at 59
processes and lbm's one-slow-rank barrier skew at 71 processes.

Two collection modes:

* **full** (default) — every interval is retained, per rank, exactly as
  before.  Right for the paper-figure insets (dozens of ranks, a few
  representative steps).
* **streaming** (``streaming=True``) — only per-rank per-kind running
  sums plus the global span are kept, with an optional capped ring of
  the most recent intervals (``ring=N``).  Memory is O(ranks x kinds +
  N) no matter how long the run, so paper-scale sweeps (64 nodes x 104
  ranks x thousands of events) can stay traced.  Aggregate queries
  (``time_by_kind``, ``fractions``, ``dominant_mpi_kind``, ``span``) are
  exact in both modes; ``intervals``/``for_rank``/``ascii_timeline`` see
  only the ring tail in streaming mode.

All aggregate queries are O(1)/O(kinds) in both modes: the collector
maintains running per-rank indexes instead of scanning every interval.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class TraceInterval:
    rank: int
    t0: float
    t1: float
    kind: str
    flops: float = 0.0
    mem_bytes: float = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


#: Single-character glyphs for ASCII timelines (ITAC color legend).
GLYPHS = {
    "compute": ".",
    "MPI_Send": "S",
    "MPI_Recv": "R",
    "MPI_Wait": "W",
    "MPI_Sendrecv": "X",
    "MPI_Allreduce": "A",
    "MPI_Barrier": "B",
    "MPI_Bcast": "C",
    "MPI_Reduce": "D",
    "MPI_Allgather": "G",
    "MPI_Scatter": "T",
    "MPI_Gather": "H",
    "MPI_Alltoall": "L",
}


class TraceCollector:
    """Accumulates timeline intervals for all ranks of one job.

    ``streaming=True`` switches to bounded-memory aggregation (see the
    module docstring); ``ring`` caps how many recent intervals are kept
    for timeline rendering in that mode (``None`` keeps none).
    ``network`` is the :class:`~repro.machine.network.NetworkSpec` of
    the machine the traced job ran on — what :func:`repro.obs.observe`
    classifies the intervals against; :func:`repro.harness.runner.run`
    passes its cluster's.
    """

    def __init__(
        self,
        streaming: bool = False,
        ring: int | None = None,
        network: Any = None,
    ) -> None:
        if ring is not None and ring < 1:
            raise ValueError("ring capacity must be >= 1")
        self.network = network
        self.streaming = streaming
        self.ring_capacity = ring if streaming else None
        if streaming:
            self._ring: deque[TraceInterval] | None = (
                deque(maxlen=ring) if ring is not None else None
            )
        else:
            self._by_rank: dict[int, list[TraceInterval]] = {}
        self._count = 0
        # running aggregates (exact in both modes)
        self._time_by_kind_rank: dict[int, dict[str, float]] = {}
        self._time_by_kind_all: dict[str, float] = defaultdict(float)
        self._t_min = float("inf")
        self._t_max = float("-inf")

    # --- recording (called by the runtime) ---------------------------------

    def record(
        self,
        rank: int,
        t0: float,
        t1: float,
        kind: str,
        flops: float = 0.0,
        mem_bytes: float = 0.0,
    ) -> None:
        if t1 < t0:
            raise ValueError("interval ends before it starts")
        iv = TraceInterval(rank, t0, t1, kind, flops, mem_bytes)
        self._count += 1
        if t0 < self._t_min:
            self._t_min = t0
        if t1 > self._t_max:
            self._t_max = t1
        per_rank = self._time_by_kind_rank.get(rank)
        if per_rank is None:
            per_rank = self._time_by_kind_rank[rank] = defaultdict(float)
        per_rank[kind] += iv.duration
        self._time_by_kind_all[kind] += iv.duration
        if self.streaming:
            if self._ring is not None:
                self._ring.append(iv)
        else:
            bucket = self._by_rank.get(rank)
            if bucket is None:
                bucket = self._by_rank[rank] = []
            bucket.append(iv)

    # --- queries -------------------------------------------------------------

    def __len__(self) -> int:
        """Number of intervals *recorded* (not necessarily retained)."""
        return self._count

    @property
    def intervals(self) -> tuple[TraceInterval, ...]:
        """Retained intervals in recording order.  Full mode: all of
        them; streaming mode: the ring tail (empty without a ring)."""
        if self.streaming:
            return tuple(self._ring) if self._ring is not None else ()
        out: list[TraceInterval] = []
        for bucket in self._by_rank.values():
            out.extend(bucket)
        out.sort(key=lambda iv: (iv.t0, iv.rank))
        return tuple(out)

    def for_rank(self, rank: int) -> list[TraceInterval]:
        """Retained intervals of one rank, by start time (O(rank's own
        intervals) — served from the per-rank index, not a global scan)."""
        if self.streaming:
            ivs = (
                [iv for iv in self._ring if iv.rank == rank]
                if self._ring is not None
                else []
            )
        else:
            ivs = list(self._by_rank.get(rank, ()))
        ivs.sort(key=lambda iv: iv.t0)
        return ivs

    def span(self) -> tuple[float, float]:
        if self._count == 0:
            return (0.0, 0.0)
        return (self._t_min, self._t_max)

    def time_by_kind(self, rank: int | None = None) -> dict[str, float]:
        """Total time per interval kind, optionally for a single rank.
        Exact in both modes (served from running sums, O(kinds))."""
        if rank is None:
            return dict(self._time_by_kind_all)
        return dict(self._time_by_kind_rank.get(rank, {}))

    def fractions(self, rank: int | None = None) -> dict[str, float]:
        """Share of traced time per kind (the paper's '75 % in MPI_Recv')."""
        times = self.time_by_kind(rank)
        total = sum(times.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in times.items()}

    def dominant_mpi_kind(self) -> str | None:
        """The MPI call consuming the most aggregate time."""
        times = {
            k: v for k, v in self.time_by_kind().items() if k.startswith("MPI_")
        }
        if not times:
            return None
        return max(times, key=times.get)

    # --- rendering --------------------------------------------------------------

    def ascii_timeline(
        self, ranks: list[int] | None = None, width: int = 100
    ) -> str:
        """ITAC-like ASCII rendering: one row per rank, one column per time
        bucket, glyph = kind occupying most of the bucket.

        In streaming mode the timeline covers whatever the interval ring
        retained (annotated as partial); without a ring it degrades to a
        one-line aggregate summary instead of failing.
        """
        retained = self.intervals
        if not retained:
            if self.streaming and self._count:
                times = self.time_by_kind()
                total = sum(times.values()) or 1.0
                parts = "  ".join(
                    f"{k} {100.0 * v / total:.1f}%"
                    for k, v in sorted(times.items(), key=lambda kv: -kv[1])
                )
                return (
                    f"(streaming trace: {self._count} intervals aggregated, "
                    f"none retained)\n{parts}"
                )
            return "(empty trace)"
        t_min = min(iv.t0 for iv in retained)
        t_max = max(iv.t1 for iv in retained)
        if t_max <= t_min:
            return "(empty trace)"
        if ranks is None:
            ranks = sorted({iv.rank for iv in retained})
        by_rank: dict[int, list[TraceInterval]] = {r: [] for r in ranks}
        for iv in retained:
            if iv.rank in by_rank:
                by_rank[iv.rank].append(iv)
        dt = (t_max - t_min) / width
        lines = []
        for r in ranks:
            buckets: list[dict[str, float]] = [
                defaultdict(float) for _ in range(width)
            ]
            for iv in by_rank[r]:
                b0 = int((iv.t0 - t_min) / dt)
                b1 = int((iv.t1 - t_min) / dt)
                for b in range(max(0, b0), min(width, b1 + 1)):
                    lo = t_min + b * dt
                    hi = lo + dt
                    overlap = min(iv.t1, hi) - max(iv.t0, lo)
                    if overlap > 0:
                        buckets[b][iv.kind] += overlap
            row = []
            for b in buckets:
                if not b:
                    row.append(" ")
                else:
                    kind = max(b, key=b.get)
                    row.append(GLYPHS.get(kind, "?"))
            lines.append(f"rank {r:4d} |{''.join(row)}|")
        legend = "  ".join(f"{g}={k}" for k, g in GLYPHS.items())
        out = "\n".join(lines) + "\n" + legend
        if self.streaming and self._count > len(retained):
            out = (
                f"(streaming trace: showing the {len(retained)} most recent "
                f"of {self._count} intervals)\n" + out
            )
        return out
