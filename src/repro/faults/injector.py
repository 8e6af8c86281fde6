"""Fault application engine.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into the three runtime hooks:

* **compute stretching** — :meth:`compute_seconds` maps a fault-free
  compute duration to the wall duration under the rank's active slow-rank
  windows and OS-noise bursts, by piecewise integration of the
  instantaneous slowdown factor (windows and bursts make the factor a
  step function of simulated time);
* **link degradation** — :meth:`transfer_time` / :meth:`link_latency` /
  :meth:`rendezvous_link` price point-to-point traffic with the degraded
  bandwidth/latency of any matching :class:`~repro.faults.plan.
  DegradedLink` window;
* **crash schedule** — :attr:`crashes` is consumed by
  :meth:`repro.smpi.runtime.MpiRuntime.launch`, which kills the rank's
  process at the planned time.

Pricing itself (:class:`~repro.model.execution.ExecutionModel`) stays
fault-free: like per-rank noise, fault stretching is applied *after*
pricing, so the memoized phase-cost cache remains valid under any plan
and an empty plan is bit-identical to no plan at all.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.faults.plan import DegradedLink, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.network import NetworkSpec

_INF = math.inf

#: Piecewise-integration segment budget per compute phase.  A phase that
#: spans more fault-window boundaries than this finishes at the factor of
#: the last inspected segment (a deliberate approximation that keeps the
#: hook O(1) amortized; with sane plans it is never reached).
MAX_SEGMENTS = 10_000


class FaultInjector:
    """Applies one :class:`FaultPlan` to one run.

    The injector is stateless across calls — every query is a pure
    function of (rank, time), so it is safe to share between the runtime
    and the communicators of a run.
    """

    __slots__ = ("plan", "_slow_by_rank", "_noise_by_rank", "_links", "_crashes")

    def __init__(self, plan: FaultPlan, nprocs: Optional[int] = None) -> None:
        if nprocs is not None:
            plan.validate_for(nprocs)
        self.plan = plan
        # per-rank compute-fault tables; rank -> tuple of specs (None key
        # holds the all-rank noise)
        self._slow_by_rank: dict[int, tuple] = {}
        for s in plan.slow_ranks:
            self._slow_by_rank.setdefault(s.rank, ())
            self._slow_by_rank[s.rank] += (s,)
        self._noise_by_rank: dict[Optional[int], tuple] = {}
        for n in plan.os_noise:
            self._noise_by_rank.setdefault(n.rank, ())
            self._noise_by_rank[n.rank] += (n,)
        self._links: tuple[DegradedLink, ...] = plan.links
        self._crashes = plan.crashes

    # --- crash schedule -----------------------------------------------------

    @property
    def crashes(self):
        return self._crashes

    # --- compute stretching ---------------------------------------------------

    def _compute_faults(self, rank: int):
        slows = self._slow_by_rank.get(rank, ())
        noises = self._noise_by_rank.get(rank, ()) + self._noise_by_rank.get(
            None, ()
        )
        return slows, noises

    def _factor_at(self, slows, noises, t: float) -> float:
        f = 1.0
        for s in slows:
            if s.t_start <= t < s.t_end:
                f *= s.factor
        for n in noises:
            if t >= n.phase and (t - n.phase) % n.period < n.duration:
                f *= n.factor
        return f

    def _next_boundary(self, slows, noises, t: float) -> float:
        """Earliest fault-window edge strictly after ``t`` (inf if none)."""
        b = _INF
        for s in slows:
            if t < s.t_start:
                b = min(b, s.t_start)
            elif t < s.t_end:
                b = min(b, s.t_end)
        for n in noises:
            if t < n.phase:
                b = min(b, n.phase)
                continue
            k, offset = divmod(t - n.phase, n.period)
            if offset < n.duration:
                edge = n.phase + k * n.period + n.duration   # burst end
            else:
                edge = n.phase + (k + 1) * n.period          # next burst
            b = min(b, edge)
        return b

    def compute_seconds(self, rank: int, t0: float, seconds: float) -> float:
        """Wall duration of ``seconds`` of fault-free compute started at
        ``t0`` by ``rank``, under the rank's slow windows and noise
        bursts (piecewise-constant slowdown integration)."""
        if seconds <= 0.0:
            return seconds
        slows, noises = self._compute_faults(rank)
        if not slows and not noises:
            return seconds
        t = t0
        remaining = seconds
        f = 1.0
        for _ in range(MAX_SEGMENTS):
            f = self._factor_at(slows, noises, t)
            boundary = self._next_boundary(slows, noises, t)
            if boundary == _INF:
                return (t + remaining * f) - t0
            span = boundary - t
            progressed = span / f
            if progressed >= remaining:
                return (t + remaining * f) - t0
            remaining -= progressed
            t = boundary
        # segment budget exhausted: finish at the last factor seen
        return (t + remaining * f) - t0

    # --- link degradation -----------------------------------------------------

    def _link_state(
        self, src_node: int, dst_node: int, now: float
    ) -> tuple[float, float, float]:
        """(bandwidth factor, latency factor, extra latency) on the path."""
        bwf, latf, extra = 1.0, 1.0, 0.0
        for lk in self._links:
            if not (lk.t_start <= now < lk.t_end):
                continue
            fwd = (lk.src_node is None or lk.src_node == src_node) and (
                lk.dst_node is None or lk.dst_node == dst_node
            )
            rev = lk.symmetric and (
                (lk.src_node is None or lk.src_node == dst_node)
                and (lk.dst_node is None or lk.dst_node == src_node)
            )
            if fwd or rev:
                bwf *= lk.bandwidth_factor
                latf *= lk.latency_factor
                extra += lk.extra_latency
        return bwf, latf, extra

    def transfer_time(
        self,
        net: "NetworkSpec",
        src_node: int,
        dst_node: int,
        nbytes: int,
        intra: bool,
        now: float,
    ) -> float:
        """Degraded equivalent of :meth:`NetworkSpec.transfer_time`."""
        bwf, latf, extra = self._link_state(src_node, dst_node, now)
        if intra:
            lat, bw = net.intra_node_latency, net.intra_node_bandwidth
        else:
            lat, bw = net.latency, net.effective_bandwidth
        return lat * latf + extra + nbytes / (bw * bwf)

    def link_latency(
        self,
        net: "NetworkSpec",
        src_node: int,
        dst_node: int,
        intra: bool,
        now: float,
    ) -> float:
        """Degraded small-message latency on the path."""
        _, latf, extra = self._link_state(src_node, dst_node, now)
        lat = net.intra_node_latency if intra else net.latency
        return lat * latf + extra

    def rendezvous_link(
        self,
        net: "NetworkSpec",
        src_node: int,
        dst_node: int,
        intra: bool,
        now: float,
    ) -> tuple[float, float]:
        """(bandwidth, latency) for a rendezvous transfer on the path."""
        bwf, latf, extra = self._link_state(src_node, dst_node, now)
        if intra:
            bw, lat = net.intra_node_bandwidth, net.intra_node_latency
        else:
            bw, lat = net.effective_bandwidth, net.latency
        return bw * bwf, lat * latf + extra

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        p = self.plan
        return (
            f"<FaultInjector slow={len(p.slow_ranks)} noise={len(p.os_noise)} "
            f"links={len(p.links)} crashes={len(p.crashes)}>"
        )
