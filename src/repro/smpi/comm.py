"""The per-rank MPI interface.

Every method that communicates or computes is a *sub-coroutine*: benchmark
code yields it to the engine, e.g.::

    def body(comm):
        yield comm.compute(0.01, flops=1e6)
        yield comm.send(dest=comm.rank + 1, nbytes=8192)
        val = yield comm.allreduce(nbytes=8)

Time spent inside each call is attributed to an ITAC-style category
(``MPI_Send``, ``MPI_Recv``, ``MPI_Wait``, ``MPI_Sendrecv``,
``MPI_Allreduce``, ``MPI_Barrier``, ``MPI_Bcast``, ``MPI_Reduce``,
``MPI_Allgather``, ``compute``) in the rank's :class:`~repro.smpi.runtime.
RankStats` and, if a trace collector is attached, as a timeline interval.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.des.simulator import Delay, Signal, Wait
from repro.smpi import collectives as coll
from repro.smpi.mailbox import ANY_SOURCE, ANY_TAG, SendArrival
from repro.smpi.request import Request


def _completion(value):
    """Unpack a completion-signal value into (finish_time, payload)."""
    if isinstance(value, tuple):
        return value
    return value, None

if TYPE_CHECKING:  # pragma: no cover
    from repro.smpi.runtime import MpiRuntime


class Communicator:
    """MPI_COMM_WORLD handle of one rank."""

    __slots__ = ("runtime", "rank", "size", "_coll_seq")

    def __init__(self, runtime: "MpiRuntime", rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.size = runtime.nprocs
        self._coll_seq = 0

    # --- basic queries -------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.runtime.sim.now

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        return self.runtime.node_of(rank)

    # --- computation ---------------------------------------------------------

    def compute(
        self,
        seconds: float,
        flops: float = 0.0,
        simd_flops: float = 0.0,
        mem_bytes: float = 0.0,
        l3_bytes: float = 0.0,
        l2_bytes: float = 0.0,
        busy_seconds: float | None = None,
        heat_seconds: float | None = None,
        heat_busy_seconds: float | None = None,
        label: str = "compute",
    ) -> Generator:
        """Burn ``seconds`` of virtual CPU time and account the hardware
        events the work generated (LIKWID-counter semantics).

        ``busy_seconds`` (instruction execution, default: all of it) and
        the heat-weighted integrals feed the RAPL power model.
        """
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        if busy_seconds is None:
            busy_seconds = seconds
        if heat_seconds is None:
            heat_seconds = 0.85 * seconds
        if heat_busy_seconds is None:
            heat_busy_seconds = 0.85 * busy_seconds
        rt = self.runtime
        t0 = rt.sim.now
        if rt.faults is not None:
            # fault injection: slow-rank windows and OS-noise bursts
            # stretch the wall duration; counters stay nominal (a stalled
            # or throttled core executes the same instructions)
            seconds = rt.faults.compute_seconds(self.rank, t0, seconds)
        yield Delay(seconds)
        stats = rt.stats[self.rank]
        stats.time_by_kind["compute"] = (
            stats.time_by_kind.get("compute", 0.0) + seconds
        )
        c = stats.counters
        c["flops"] += flops
        c["simd_flops"] += simd_flops
        c["mem_bytes"] += mem_bytes
        c["l3_bytes"] += l3_bytes
        c["l2_bytes"] += l2_bytes
        c["busy_seconds"] += busy_seconds
        c["heat_seconds"] += heat_seconds
        c["heat_busy_seconds"] += heat_busy_seconds
        if rt.trace is not None:
            rt.record_trace(
                self.rank, t0, rt.sim.now, label, flops=flops, mem_bytes=mem_bytes
            )
        if rt.checker is not None:
            rt.checker.on_clock(self.rank, rt.sim.now)

    def compute_cost(self, cost) -> Generator:
        """Execute a resolved :class:`~repro.model.kernel.PhaseCost`."""
        yield self.compute(cost.seconds, **cost.counter_kwargs())

    # --- point-to-point --------------------------------------------------------

    def isend(
        self, dest: int, nbytes: int, tag: int = 0, payload: object = None
    ) -> Request:
        """Nonblocking send.  Returns immediately with a :class:`Request`.

        ``payload`` optionally carries real application data to the
        receiver (delivered as the return value of the matching receive).

        NOTE: this is a plain method (not a coroutine) — the caller pays
        time only in :meth:`wait`.
        """
        rt = self.runtime
        if not (0 <= dest < self.size):
            raise ValueError(f"invalid destination rank {dest}")
        if dest == self.rank:
            raise ValueError("self-sends are not supported")
        net = rt.network
        now = rt.sim.now
        intra = rt.same_node(self.rank, dest)
        # unnamed: building a per-request debug name is pure hot-path cost
        req = Request("send", dest, tag, nbytes, now, Signal())
        c = rt.stats[self.rank].counters
        c["messages"] += 1
        c["msg_bytes"] += nbytes
        if net.is_eager(nbytes):
            if rt.faults is None:
                arrival_time = now + net.transfer_time(nbytes, intra)
            else:
                arrival_time = now + rt.transfer_time(self.rank, dest, nbytes, intra)
            arr = SendArrival(
                src=self.rank,
                tag=tag,
                nbytes=nbytes,
                arrival_time=arrival_time,
                rendezvous=False,
                intra_node=intra,
                payload=payload,
            )
            rt.deliver_at(arrival_time, dest, arr)
            req.done_signal.fire(now + net.per_message_overhead)
        else:
            if rt.faults is None:
                rts_lat = net.intra_node_latency if intra else net.latency
            else:
                rts_lat = rt.link_latency(self.rank, dest, intra)
            arr = SendArrival(
                src=self.rank,
                tag=tag,
                nbytes=nbytes,
                arrival_time=now + rts_lat,
                rendezvous=True,
                intra_node=intra,
                sender_signal=req.done_signal,
                payload=payload,
            )
            rt.deliver_at(now + rts_lat, dest, arr)
        if rt.checker is not None:
            rt.checker.on_send(arr, self.rank, dest)
        return req

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive.  Returns immediately with a :class:`Request`."""
        rt = self.runtime
        now = rt.sim.now
        arr, post = rt.mailboxes[self.rank].post_recv(source, tag, now)
        if arr is not None:
            rt.complete_match(arr, post, self.rank)
        # the mailbox match signal *is* the request completion signal
        return Request("recv", source, tag, 0, now, post.match_signal)

    def wait(self, req: Request, kind: str = "MPI_Wait") -> Generator:
        """Block until ``req`` completes; time accounted as ``kind``.

        Returns the payload for receive requests (None otherwise).
        """
        rt = self.runtime
        t0 = self.now
        if req.done_signal.fired:
            value = req.done_signal.value
        else:
            rt.mark_blocked(self.rank, kind, req.peer, req.tag)
            value = yield Wait(req.done_signal)
            rt.clear_blocked(self.rank)
        finish, payload = _completion(value)
        if finish > self.now:
            yield Delay(finish - self.now)
        if self.now > t0:
            rt.stats[self.rank].add_time(kind, self.now - t0)
            rt.record_trace(self.rank, t0, self.now, kind)
        if rt.checker is not None:
            rt.checker.on_clock(self.rank, self.now)
        return payload

    def waitall(self, reqs: list[Request], kind: str = "MPI_Wait") -> Generator:
        """Block until all requests complete.  Returns the payloads in
        request order (None for sends)."""
        payloads = []
        for req in reqs:
            payloads.append((yield self.wait(req, kind=kind)))
        return payloads

    def send(
        self, dest: int, nbytes: int, tag: int = 0, payload: object = None
    ) -> Generator:
        """Blocking send (rendezvous blocks until the receive is posted)."""
        rt = self.runtime
        sim = rt.sim
        t0 = sim.now
        req = self.isend(dest, nbytes, tag, payload=payload)
        sig = req.done_signal
        if sig.fired:
            value = sig.value
        else:
            rt.mark_blocked(self.rank, "MPI_Send", dest, tag)
            value = yield Wait(sig)
            rt.clear_blocked(self.rank)
        finish, _ = _completion(value)
        if finish > sim.now:
            yield Delay(finish - sim.now)
        if sim.now > t0:
            rt.stats[self.rank].add_time("MPI_Send", sim.now - t0)
            rt.record_trace(self.rank, t0, sim.now, "MPI_Send")
        if rt.checker is not None:
            rt.checker.on_clock(self.rank, sim.now)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive.  Returns the sender's payload (or None)."""
        rt = self.runtime
        sim = rt.sim
        t0 = sim.now
        req = self.irecv(source, tag)
        sig = req.done_signal
        if sig.fired:
            value = sig.value
        else:
            rt.mark_blocked(self.rank, "MPI_Recv", source, tag)
            value = yield Wait(sig)
            rt.clear_blocked(self.rank)
        finish, payload = _completion(value)
        if finish > sim.now:
            yield Delay(finish - sim.now)
        if sim.now > t0:
            rt.stats[self.rank].add_time("MPI_Recv", sim.now - t0)
            rt.record_trace(self.rank, t0, sim.now, "MPI_Recv")
        if rt.checker is not None:
            rt.checker.on_clock(self.rank, sim.now)
        return payload

    def sendrecv(
        self,
        dest: int,
        send_bytes: int,
        source: int,
        recv_bytes: int = 0,
        tag: int = 0,
        payload: object = None,
    ) -> Generator:
        """Combined send+receive (deadlock-free halo exchange primitive).
        Returns the received payload (or None).

        The two completion waits (send first, then receive) are inlined:
        this is the hottest MPI call of the halo-exchange benchmarks and
        each avoided sub-coroutine frame counts.
        """
        rt = self.runtime
        sim = rt.sim
        t0 = sim.now
        rreq = self.irecv(source, tag)
        sreq = self.isend(dest, send_bytes, tag, payload=payload)
        sig = sreq.done_signal
        if sig.fired:
            value = sig.value
        else:
            rt.mark_blocked(self.rank, "MPI_Sendrecv[send]", dest, tag)
            value = yield Wait(sig)
            rt.clear_blocked(self.rank)
        finish, _ = _completion(value)
        if finish > sim.now:
            yield Delay(finish - sim.now)
        sig = rreq.done_signal
        if sig.fired:
            value = sig.value
        else:
            rt.mark_blocked(self.rank, "MPI_Sendrecv[recv]", source, tag)
            value = yield Wait(sig)
            rt.clear_blocked(self.rank)
        finish, received = _completion(value)
        if finish > sim.now:
            yield Delay(finish - sim.now)
        if sim.now > t0:
            rt.stats[self.rank].add_time("MPI_Sendrecv", sim.now - t0)
            rt.record_trace(self.rank, t0, sim.now, "MPI_Sendrecv")
        if rt.checker is not None:
            rt.checker.on_clock(self.rank, sim.now)
        return received

    # --- collectives -----------------------------------------------------------

    def barrier(self) -> Generator:
        yield self._collective("MPI_Barrier", coll.barrier_cost, None)

    def allreduce(self, nbytes: int = 8) -> Generator:
        yield self._collective("MPI_Allreduce", coll.allreduce_cost, nbytes)

    def bcast(self, nbytes: int, root: int = 0) -> Generator:
        yield self._collective("MPI_Bcast", coll.bcast_cost, nbytes)

    def reduce(self, nbytes: int, root: int = 0) -> Generator:
        yield self._collective("MPI_Reduce", coll.reduce_cost, nbytes)

    def allgather(self, total_bytes: int) -> Generator:
        yield self._collective("MPI_Allgather", coll.allgather_cost, total_bytes)

    def scatter(self, total_bytes: int, root: int = 0) -> Generator:
        yield self._collective("MPI_Scatter", coll.scatter_cost, total_bytes)

    def gather(self, total_bytes: int, root: int = 0) -> Generator:
        yield self._collective("MPI_Gather", coll.gather_cost, total_bytes)

    def alltoall(self, send_bytes: int) -> Generator:
        yield self._collective("MPI_Alltoall", coll.alltoall_cost, send_bytes)

    def allreduce_data(self, value, nbytes: int | None = None, op=None):
        """Allreduce carrying *real data*: every rank contributes
        ``value`` (e.g. a NumPy array or a float) and receives the
        elementwise reduction.  ``op`` defaults to addition.

        Usage: ``total = yield comm.allreduce_data(local_dot)``.
        """
        import numpy as _np

        if nbytes is None:
            nbytes = int(getattr(value, "nbytes", 8))
        if op is None:
            op = _np.add
        rt = self.runtime
        t0 = self.now
        seq = self._coll_seq
        self._coll_seq += 1
        if rt.checker is not None:
            rt.checker.on_collective(self.rank, "MPI_Allreduce", seq, t0)
        gate = rt.collective_gate("MPI_Allreduce", seq)
        cost = coll.allreduce_cost(rt.network, self.size, rt.nnodes, nbytes)
        rt.stats[self.rank].add_counters(messages=1, msg_bytes=nbytes)
        gate.arrive(self.rank, t0, cost, payload=value, op=op)
        if gate.signal.fired:
            finish = gate.signal.value
        else:
            rt.mark_blocked(self.rank, "MPI_Allreduce", None, None)
            finish = yield Wait(gate.signal)
            rt.clear_blocked(self.rank)
        if finish > self.now:
            yield Delay(finish - self.now)
        if self.now > t0:
            rt.stats[self.rank].add_time("MPI_Allreduce", self.now - t0)
            rt.record_trace(self.rank, t0, self.now, "MPI_Allreduce")
        if rt.checker is not None:
            rt.checker.on_clock(self.rank, self.now)
        return gate.payload_acc

    def _collective(self, kind: str, cost_fn, nbytes: int | None) -> Generator:
        rt = self.runtime
        t0 = self.now
        seq = self._coll_seq
        self._coll_seq += 1
        if rt.checker is not None:
            rt.checker.on_collective(self.rank, kind, seq, t0)
        gate = rt.collective_gate(kind, seq)
        if nbytes is None:
            cost = cost_fn(rt.network, self.size, rt.nnodes)
        else:
            cost = cost_fn(rt.network, self.size, rt.nnodes, nbytes)
            rt.stats[self.rank].add_counters(messages=1, msg_bytes=nbytes)
        gate.arrive(self.rank, t0, cost)
        if gate.signal.fired:
            finish = gate.signal.value
        else:
            rt.mark_blocked(self.rank, kind, None, None)
            finish = yield Wait(gate.signal)
            rt.clear_blocked(self.rank)
        if finish > self.now:
            yield Delay(finish - self.now)
        if self.now > t0:
            rt.stats[self.rank].add_time(kind, self.now - t0)
            rt.record_trace(self.rank, t0, self.now, kind)
        if rt.checker is not None:
            rt.checker.on_clock(self.rank, self.now)
