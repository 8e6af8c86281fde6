"""Job launch, rank placement, matching glue, and per-rank statistics.

:class:`MpiRuntime` owns the simulator, maps ranks to cores the way
``likwid-mpirun`` does on the paper's clusters (consecutive ranks on
consecutive cores, filling nodes compactly), and exposes the matching
helpers the :class:`~repro.smpi.comm.Communicator` needs.

A complete run returns an :class:`MpiJob` carrying the makespan, per-rank
time/counter statistics, and (optionally) the event trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Protocol

from repro.des.simulator import DeadlockError, Simulator
from repro.machine.cluster import ClusterSpec
from repro.smpi.collectives import CollectiveGate
from repro.smpi.comm import Communicator
from repro.smpi.diagnostics import (
    BlockedCall,
    RankCrashedError,
    format_deadlock,
    format_mailbox_leftovers,
)
from repro.smpi.mailbox import Mailbox, RecvPost, SendArrival


class TraceLike(Protocol):
    """Anything that can absorb timeline intervals (see
    :class:`repro.perfmon.trace.TraceCollector`)."""

    def record(
        self, rank: int, t0: float, t1: float, kind: str,
        flops: float = 0.0, mem_bytes: float = 0.0,
    ) -> None: ...


#: Counter names every rank accumulates (LIKWID-group semantics).
COUNTER_NAMES = (
    "flops",
    "simd_flops",
    "mem_bytes",
    "l3_bytes",
    "l2_bytes",
    "messages",
    "msg_bytes",
    "busy_seconds",
    "heat_seconds",
    "heat_busy_seconds",
)


@dataclass
class RankStats:
    """Per-rank time breakdown and hardware-event counters."""

    rank: int
    node: int
    domain: int          # ccNUMA domain index within the node
    time_by_kind: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in COUNTER_NAMES}
    )

    def add_time(self, kind: str, dt: float) -> None:
        self.time_by_kind[kind] = self.time_by_kind.get(kind, 0.0) + dt

    def add_counters(self, **kwargs: float) -> None:
        c = self.counters
        for name, val in kwargs.items():
            c[name] = c.get(name, 0.0) + val

    @property
    def compute_time(self) -> float:
        return self.time_by_kind.get("compute", 0.0)

    @property
    def mpi_time(self) -> float:
        return sum(v for k, v in self.time_by_kind.items() if k.startswith("MPI_"))

    @property
    def total_time(self) -> float:
        return sum(self.time_by_kind.values())


@dataclass
class MpiJob:
    """Result of one simulated MPI execution."""

    cluster: str
    nprocs: int
    nnodes: int
    elapsed: float
    stats: list[RankStats]
    trace: Optional[Any] = None

    def total_counter(self, name: str) -> float:
        """Sum a hardware counter over all ranks."""
        return sum(s.counters[name] for s in self.stats)

    def total_time_in(self, kind: str) -> float:
        """Sum time spent in one call kind over all ranks."""
        return sum(s.time_by_kind.get(kind, 0.0) for s in self.stats)

    def mpi_fraction(self) -> float:
        """Aggregate fraction of rank-time spent inside MPI."""
        total = sum(s.total_time for s in self.stats)
        if total == 0:
            return 0.0
        return sum(s.mpi_time for s in self.stats) / total

    def breakdown(self) -> dict[str, float]:
        """Aggregate time per call kind over all ranks."""
        out: dict[str, float] = {}
        for s in self.stats:
            for k, v in s.time_by_kind.items():
                out[k] = out.get(k, 0.0) + v
        return out


class MpiRuntime:
    """One simulated MPI execution context.

    Parameters
    ----------
    cluster:
        Target machine.
    nprocs:
        Number of MPI ranks (compact consecutive placement).
    trace:
        Optional trace collector receiving every timeline interval.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        nprocs: int,
        trace: TraceLike | None = None,
        threads_per_rank: int = 1,
        fast_path: bool = True,
        faults: Any | None = None,
        matcher: str = "indexed",
        perturb_seed: int | None = None,
        checker: Any | None = None,
        light: bool = False,
    ) -> None:
        """``threads_per_rank > 1`` reserves a block of consecutive cores
        per rank (hybrid MPI+OpenMP placement, the paper's future-work
        mode); rank *r* is pinned to core ``r * threads_per_rank``.
        ``fast_path=False`` runs the pure-heap reference engine (see
        :class:`~repro.des.simulator.Simulator`).

        ``faults`` optionally attaches a
        :class:`~repro.faults.injector.FaultInjector`: point-to-point
        pricing is degraded per its link faults, compute phases are
        stretched per its slow-rank/noise faults, and planned rank
        crashes are scheduled at launch.  Without one (the default) every
        code path is untouched — results are bit-identical to a build
        without the fault subsystem.

        ``perturb_seed`` enables the schedule-perturbation sanitizer mode
        (see :mod:`repro.validate.perturb`): same-timestamp event order in
        the engine and same-time cross-channel arrival order in every
        mailbox are shuffled with seeded RNGs.  ``checker`` optionally
        attaches an :class:`~repro.validate.invariants.InvariantChecker`
        that observes every send, match, and collective arrival and is
        finalized after the run.

        ``light=True`` is the runner's hint that no replay tier can ever
        engage and the run is below paper scale: mailboxes skip the
        matching-stamp bookkeeping whose only consumers are machinery
        this run cannot use (bit-identical results either way)."""
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if matcher not in ("indexed", "linear"):
            raise ValueError(
                f"unknown matcher {matcher!r}; expected 'indexed' or 'linear'"
            )
        if threads_per_rank < 1:
            raise ValueError("threads_per_rank must be >= 1")
        if nprocs * threads_per_rank > cluster.max_ranks():
            raise ValueError(
                f"{nprocs} ranks x {threads_per_rank} threads exceed "
                f"{cluster.name} capacity ({cluster.max_ranks()} cores)"
            )
        self.cluster = cluster
        self.network = cluster.network
        self.nprocs = nprocs
        self.threads_per_rank = threads_per_rank
        self.nnodes = cluster.nodes_for(nprocs * threads_per_rank)
        self.sim = Simulator(fast_path=fast_path, tie_seed=perturb_seed)
        self.trace = trace
        self.faults = faults
        self.perturb_seed = perturb_seed
        self.checker = checker
        if faults is not None:
            faults.plan.validate_for(nprocs)
        #: per-rank "currently blocked on" state (rank -> BlockedCall),
        #: maintained by the communicators; feeds deadlock diagnostics
        self.blocked_calls: dict[int, BlockedCall] = {}
        #: ranks killed by fault injection (rank -> crash time)
        self.crashed: dict[int, float] = {}
        self._placement = [
            cluster.place(r * threads_per_rank) for r in range(nprocs)
        ]
        self.matcher = matcher
        self.light = light
        indexed = matcher == "indexed"
        if perturb_seed is None:
            self.mailboxes = [
                Mailbox(r, indexed=indexed, light=light) for r in range(nprocs)
            ]
        else:
            # one independent seeded stream per mailbox, so a rank's
            # arrival shuffle does not depend on other ranks' traffic
            self.mailboxes = [
                Mailbox(
                    r,
                    indexed=indexed,
                    tie_shuffle=random.Random((perturb_seed << 20) ^ (r + 1)),
                )
                for r in range(nprocs)
            ]
        #: optional step-journal recorder (attached by the fast-forward
        #: controller only while it is capturing a representative step)
        self.recorder: Any | None = None
        self.stats = [
            RankStats(rank=r, node=p[0], domain=p[1].domain)
            for r, p in enumerate(self._placement)
        ]
        self._gates: dict[tuple[str, int], CollectiveGate] = {}
        # placement is immutable, so per-domain rank counts can be tabulated
        # once: ranks_in_domain() was O(nprocs) per call, which made the
        # per-rank setup of every benchmark body O(nprocs^2) per run
        domains = cluster.node.numa_domains
        self._domain_ids = [
            p[0] * domains + p[1].domain for p in self._placement
        ]
        self._domain_population: dict[int, int] = {}
        for dom in self._domain_ids:
            self._domain_population[dom] = self._domain_population.get(dom, 0) + 1

    # --- placement queries ----------------------------------------------------

    def node_of(self, rank: int) -> int:
        return self._placement[rank][0]

    def domain_of(self, rank: int) -> int:
        """Global ccNUMA-domain id (node * domains_per_node + domain)."""
        return self._domain_ids[rank]

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self._placement[rank_a][0] == self._placement[rank_b][0]

    def ranks_in_domain(self, rank: int) -> int:
        """How many ranks of this job share the given rank's ccNUMA domain."""
        return self._domain_population[self._domain_ids[rank]]

    # --- blocked-call bookkeeping ---------------------------------------------

    def mark_blocked(
        self, rank: int, op: str, peer: int | None, tag: int | None
    ) -> None:
        """Record that ``rank`` is about to park in a blocking MPI call
        (cleared by :meth:`clear_blocked` on wake-up; surviving entries
        are exactly the parked calls a deadlock report must name)."""
        self.blocked_calls[rank] = BlockedCall(
            rank=rank, op=op, peer=peer, tag=tag, since=self.sim.now
        )

    def clear_blocked(self, rank: int) -> None:
        self.blocked_calls.pop(rank, None)

    # --- fault-aware link pricing ---------------------------------------------

    def transfer_time(
        self, src: int, dest: int, nbytes: int, intra: bool
    ) -> float:
        """Wire/copy time for ``nbytes`` from ``src`` to ``dest`` —
        :meth:`NetworkSpec.transfer_time` unless a link fault is active."""
        if self.faults is None:
            return self.network.transfer_time(nbytes, intra)
        return self.faults.transfer_time(
            self.network,
            self.node_of(src),
            self.node_of(dest),
            nbytes,
            intra,
            self.sim.now,
        )

    def link_latency(self, src: int, dest: int, intra: bool) -> float:
        """Small-message latency from ``src`` to ``dest`` (fault-aware)."""
        net = self.network
        if self.faults is None:
            return net.intra_node_latency if intra else net.latency
        return self.faults.link_latency(
            net, self.node_of(src), self.node_of(dest), intra, self.sim.now
        )

    # --- matching glue ------------------------------------------------------------

    def deliver_at(self, time: float, dest: int, arrival: SendArrival) -> None:
        """Schedule message arrival at the destination mailbox."""

        def _deliver() -> None:
            post = self.mailboxes[dest].deliver(arrival)
            if post is not None:
                self.complete_match(arrival, post, dest)

        self.sim.call_at(time, _deliver)

    def complete_match(
        self, arr: SendArrival, post: RecvPost, dest: int
    ) -> None:
        """Compute completion time of a matched send/recv pair and fire the
        signals (receive-side always; sender-side for rendezvous).

        The receive-side signal carries ``(end_time, payload)`` so real
        application data can ride the simulated messages.  ``dest`` is the
        receiving rank — needed to price the path under link faults.
        """
        net = self.network
        start = max(post.posted_time, arr.arrival_time, self.sim.now)
        if arr.rendezvous:
            if self.faults is None:
                bw = net.intra_node_bandwidth if arr.intra_node else net.effective_bandwidth
                lat = net.intra_node_latency if arr.intra_node else net.latency
            else:
                bw, lat = self.faults.rendezvous_link(
                    net,
                    self.node_of(arr.src),
                    self.node_of(dest),
                    arr.intra_node,
                    self.sim.now,
                )
            end = (
                start
                + net.rendezvous_handshake
                + lat
                + arr.nbytes / bw
                + net.per_message_overhead
            )
            assert arr.sender_signal is not None
            arr.sender_signal.fire(end)
        else:
            end = start + net.per_message_overhead
        if self.checker is not None:
            self.checker.on_match(arr, post, dest, self.sim.now)
        post.match_signal.fire((end, arr.payload))

    def collective_gate(self, op: str, seq: int) -> CollectiveGate:
        """The gate for the ``seq``-th collective call of kind ``op``."""
        key = (op, seq)
        gate = self._gates.get(key)
        if gate is None:
            gate = CollectiveGate(op=op, expected=self.nprocs)
            self._gates[key] = gate
        return gate

    def record_trace(
        self,
        rank: int,
        t0: float,
        t1: float,
        kind: str,
        flops: float = 0.0,
        mem_bytes: float = 0.0,
    ) -> None:
        if self.trace is not None and t1 > t0:
            self.trace.record(rank, t0, t1, kind, flops, mem_bytes)

    # --- execution -----------------------------------------------------------------

    def _schedule_crash(self, proc: Any, rank: int, time: float) -> None:
        def _kill() -> None:
            self.crashed[rank] = self.sim.now
            proc.kill()

        self.sim.call_at(time, _kill)

    def launch(
        self,
        body_factory: Callable[[Communicator], Generator],
        max_events: int | None = None,
        deadline: float | None = None,
    ) -> MpiJob:
        """Spawn one process per rank and run to completion.

        ``body_factory(comm)`` must return the rank's generator body.
        ``max_events``/``deadline`` bound the simulation (see
        :meth:`~repro.des.simulator.Simulator.run`); exceeding either
        raises :class:`~repro.des.simulator.HangError`.

        Raises :class:`~repro.des.simulator.DeadlockError` with a
        per-rank report (parked MPI call, peer, tag, wait time) when the
        event queues drain with ranks still blocked, and
        :class:`~repro.smpi.diagnostics.RankCrashedError` when injected
        rank crashes let the survivors finish.
        """
        procs = []
        for r in range(self.nprocs):
            comm = Communicator(self, r)
            procs.append(self.sim.spawn(f"rank{r}", body_factory(comm)))
        if self.faults is not None:
            for crash in self.faults.crashes:
                self._schedule_crash(procs[crash.rank], crash.rank, crash.time)
        try:
            elapsed = self.sim.run(max_events=max_events, deadline=deadline)
        except DeadlockError as err:
            blocked_ranks = sorted(
                int(p.name[4:]) for p in err.blocked if p.name.startswith("rank")
            )
            raise DeadlockError(
                format_deadlock(
                    self.sim.now,
                    blocked_ranks,
                    self.blocked_calls,
                    self.crashed,
                    self.mailboxes,
                ),
                blocked=err.blocked,
            ) from None
        if self.crashed:
            dead = ", ".join(
                f"rank {r} at t={t:.6g}" for r, t in sorted(self.crashed.items())
            )
            raise RankCrashedError(
                f"{len(self.crashed)} rank(s) crashed during the run "
                f"({dead}); surviving ranks completed at t={elapsed:.6g} "
                "but the job is failed (MPI semantics)"
            )
        leftovers = [m for m in self.mailboxes if not m.idle()]
        if leftovers:
            raise RuntimeError(
                f"{len(leftovers)} mailbox(es) with unmatched messages at "
                "finalize — send/recv mismatch in the benchmark code:\n"
                + format_mailbox_leftovers(self.mailboxes)
            )
        if self.checker is not None:
            self.checker.finalize(elapsed)
        return MpiJob(
            cluster=self.cluster.name,
            nprocs=self.nprocs,
            nnodes=self.nnodes,
            elapsed=elapsed,
            stats=self.stats,
            trace=self.trace,
        )
