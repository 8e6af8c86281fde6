"""Dry-run step profiler: one benchmark step as a per-rank op list.

Tier A and the replay tiers need each benchmark's *step structure* — the
exact sequence of compute phases, point-to-point calls, and collectives
one rank executes per representative step — without paying for the
event engine.  The benchmark bodies already encode that structure as
generators over a :class:`~repro.smpi.comm.Communicator`; this module
drives a body with a :class:`RecordingComm` (every MPI method records a
constant-only op and returns immediately — no events, no virtual time)
through the steps of a fake :class:`~repro.spechpc.fastforward.StepLoop`,
yielding a :class:`RankProfile`.  Tier A records one step.  The replay
tiers' controller dry-runs *every* rank for two steps, lowers both to
its replay journal (:func:`~repro.spechpc.fastforward.lower_step`) and
requires them equal; Tier A ignores the message tags that lowering
needs.

The constant-only op records are :class:`~typing.NamedTuple` classes:
a dry run records thousands of them per query, and a NamedTuple is
built about three times faster than a frozen dataclass.  Both consumers
(:func:`repro.predict.analytic._walk_rank` and
:func:`~repro.spechpc.fastforward.lower_step`) dispatch on the exact
class.  NamedTuples compare by value across classes
(``RecvPost(1, 2, 3) == BlockingSend(1, 2, 3)`` holds), so no caller
compares raw ops: the periodicity proof compares *lowered* journals,
whose tuples lead with the name of their op.

The profiler is exact about structure and counters: the op list contains
the same phase costs (priced by the real
:class:`~repro.model.execution.ExecutionModel`), message sizes, and
collective sequence the DES would execute, because it runs the same body
code.  Only *timing interactions* between ranks (matching, rendezvous,
arrival skew) are left to the closed-form combination in
:mod:`repro.predict.analytic`.

Profiling every rank would make Tier A O(nprocs) per query; instead
:func:`sampled_ranks` picks a small set of representative ranks (always
including both ends of the rank range, where decompositions put their
remainder/boundary ranks) and weights each by the contiguous rank block
it stands for.  The one placement question a body asks, its ccNUMA
domain population, is O(1) arithmetic
(:meth:`~repro.machine.cluster.ClusterSpec.domain_population`), so a
sampled rank's profile costs O(recorded ops), whatever the job size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import GeneratorType
from typing import Callable, NamedTuple

from repro.machine.cluster import ClusterSpec
from repro.spechpc.base import Benchmark, RunContext

#: Default number of representative ranks profiled per query.
SAMPLE_LIMIT = 16


class ProfileUnsupported(Exception):
    """The benchmark body used an operation the dry-run profiler cannot
    replay analytically (e.g. payload-carrying reductions whose result
    steers control flow)."""


# --------------------------------------------------------------------------
# recorded ops (constants only — no absolute times)
# --------------------------------------------------------------------------

class ComputeOp(NamedTuple):
    seconds: float
    flops: float = 0.0
    simd_flops: float = 0.0
    mem_bytes: float = 0.0
    l3_bytes: float = 0.0
    l2_bytes: float = 0.0
    busy_seconds: float = 0.0
    heat_seconds: float = 0.0
    heat_busy_seconds: float = 0.0


class SendPost(NamedTuple):
    req: int
    dest: int
    nbytes: int
    tag: int


class RecvPost(NamedTuple):
    req: int
    source: int
    tag: int


class WaitOne(NamedTuple):
    req: int
    kind: str


class WaitAll(NamedTuple):
    reqs: tuple[int, ...]
    kind: str


class BlockingSend(NamedTuple):
    dest: int
    nbytes: int
    tag: int


class BlockingRecv(NamedTuple):
    source: int
    tag: int


class SendRecv(NamedTuple):
    dest: int
    send_bytes: int
    source: int
    recv_bytes: int
    tag: int


class Coll(NamedTuple):
    kind: str
    nbytes: int | None


@dataclass
class RankProfile:
    """One rank's recorded steps plus its sampling weight."""

    rank: int
    weight: int
    #: one op list per recorded step
    steps: list = field(default_factory=list)

    @property
    def ops(self) -> list:
        """The first recorded step's ops."""
        return self.steps[0]


# --------------------------------------------------------------------------
# recording communicator
# --------------------------------------------------------------------------

class _Token:
    """Marker returned by recorded sub-coroutine calls; the trampoline
    sends ``result`` back into the body in their stead."""

    __slots__ = ("result",)

    def __init__(self, result=None) -> None:
        self.result = result


#: the token of every call whose result is None (shared: tokens are
#: never mutated)
_DONE = _Token()


class _FakeRequest:
    __slots__ = ("req_id",)

    def __init__(self, req_id: int) -> None:
        self.req_id = req_id


class _StepToken:
    __slots__ = ("loop",)

    def __init__(self, loop: "_ProfileLoop") -> None:
        self.loop = loop


class _ProfileLoop:
    """Fake :class:`~repro.spechpc.fastforward.StepLoop` driving the dry
    run's ``nsteps`` recorded steps; each boundary after the first
    closes one step's op list."""

    __slots__ = ("_comm", "_entered")

    def __init__(self, comm: "RecordingComm") -> None:
        self._comm = comm
        self._entered = False

    def next_step(self) -> _StepToken:
        return _StepToken(self)

    def advance(self) -> bool:
        """True on entry to each recorded step, False at the end of the
        last."""
        comm = self._comm
        if self._entered:
            comm.recorded.append(comm.ops)
        self._entered = True
        comm.ops = []   # the first call drops anything yielded before the loop
        return len(comm.recorded) < comm.nsteps


class RecordingComm:
    """Communicator look-alike that records ops instead of simulating.

    Implements exactly the surface the nine suite bodies use; anything
    else (payload reductions, wildcard receives, reading the clock)
    raises :class:`ProfileUnsupported` so callers can fall back to the
    DES.
    """

    __slots__ = ("rank", "size", "ops", "nsteps", "recorded", "_next_req")

    def __init__(self, rank: int, size: int, nsteps: int = 1) -> None:
        self.rank = rank
        self.size = size
        self.ops: list = []
        #: steps to record, and the op lists of those finished so far
        self.nsteps = nsteps
        self.recorded: list[list] = []
        self._next_req = 0

    @property
    def now(self) -> float:
        raise ProfileUnsupported("reading the virtual clock")

    def step_loop(self) -> _ProfileLoop:
        """The recording loop :meth:`RunContext.step_loop
        <repro.spechpc.base.RunContext.step_loop>` hands a dry run."""
        return _ProfileLoop(self)

    # --- computation -------------------------------------------------------

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
    ) -> _Token:
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        if busy_seconds is None:
            busy_seconds = seconds
        if heat_seconds is None:
            heat_seconds = 0.85 * seconds
        if heat_busy_seconds is None:
            heat_busy_seconds = 0.85 * busy_seconds
        self.ops.append(ComputeOp(
            seconds, flops, simd_flops, mem_bytes, l3_bytes, l2_bytes,
            busy_seconds, heat_seconds, heat_busy_seconds,
        ))
        return _DONE

    def compute_cost(self, cost) -> _Token:
        return self.compute(cost.seconds, **cost.counter_kwargs())

    # --- point-to-point ----------------------------------------------------

    def _new_req(self) -> int:
        self._next_req += 1
        return self._next_req

    def isend(
        self, dest: int, nbytes: int, tag: int = 0, payload: object = None
    ) -> _FakeRequest:
        if payload is not None:
            raise ProfileUnsupported("payload-carrying sends")
        rid = self._new_req()
        self.ops.append(SendPost(rid, dest, nbytes, tag))
        return _FakeRequest(rid)

    def irecv(self, source: int = -1, tag: int = -1) -> _FakeRequest:
        if source < 0:
            raise ProfileUnsupported("wildcard receives")
        rid = self._new_req()
        self.ops.append(RecvPost(rid, source, tag))
        return _FakeRequest(rid)

    def wait(self, req: _FakeRequest, kind: str = "MPI_Wait") -> _Token:
        self.ops.append(WaitOne(req.req_id, kind))
        return _DONE

    def waitall(self, reqs: list, kind: str = "MPI_Wait") -> _Token:
        self.ops.append(WaitAll(tuple(r.req_id for r in reqs), kind))
        return _Token([None] * len(reqs))

    def send(
        self, dest: int, nbytes: int, tag: int = 0, payload: object = None
    ) -> _Token:
        if payload is not None:
            raise ProfileUnsupported("payload-carrying sends")
        self.ops.append(BlockingSend(dest, nbytes, tag))
        return _DONE

    def recv(self, source: int = -1, tag: int = -1) -> _Token:
        if source < 0:
            raise ProfileUnsupported("wildcard receives")
        self.ops.append(BlockingRecv(source, tag))
        return _DONE

    def sendrecv(
        self,
        dest: int,
        send_bytes: int,
        source: int,
        recv_bytes: int = 0,
        tag: int = 0,
        payload: object = None,
    ) -> _Token:
        if payload is not None:
            raise ProfileUnsupported("payload-carrying sends")
        self.ops.append(SendRecv(dest, send_bytes, source, recv_bytes, tag))
        return _DONE

    # --- collectives -------------------------------------------------------

    def barrier(self) -> _Token:
        self.ops.append(Coll("MPI_Barrier", None))
        return _DONE

    def allreduce(self, nbytes: int = 8) -> _Token:
        self.ops.append(Coll("MPI_Allreduce", nbytes))
        return _DONE

    def bcast(self, nbytes: int, root: int = 0) -> _Token:
        self.ops.append(Coll("MPI_Bcast", nbytes))
        return _DONE

    def reduce(self, nbytes: int, root: int = 0) -> _Token:
        self.ops.append(Coll("MPI_Reduce", nbytes))
        return _DONE

    def allgather(self, total_bytes: int) -> _Token:
        self.ops.append(Coll("MPI_Allgather", total_bytes))
        return _DONE

    def scatter(self, total_bytes: int, root: int = 0) -> _Token:
        self.ops.append(Coll("MPI_Scatter", total_bytes))
        return _DONE

    def gather(self, total_bytes: int, root: int = 0) -> _Token:
        self.ops.append(Coll("MPI_Gather", total_bytes))
        return _DONE

    def alltoall(self, send_bytes: int) -> _Token:
        self.ops.append(Coll("MPI_Alltoall", send_bytes))
        return _DONE

    def allreduce_data(self, value, nbytes: int | None = None, op=None):
        raise ProfileUnsupported("payload-carrying reductions")


# --------------------------------------------------------------------------
# profiling context
# --------------------------------------------------------------------------

@dataclass
class ProfilingContext(RunContext):
    """A :class:`RunContext` that needs no runtime: ccNUMA domain
    populations come from
    :meth:`~repro.machine.cluster.ClusterSpec.domain_population` (the
    rule :class:`~repro.smpi.runtime.MpiRuntime` applies)."""

    @property
    def nnodes(self) -> int:
        return self.cluster.nodes_for(self.nprocs * self.threads)

    def ranks_in_domain(self, rank: int) -> int:
        return self.cluster.domain_population(rank, self.nprocs, self.threads)


def make_context(
    cluster: ClusterSpec,
    benchmark: Benchmark,
    nprocs: int,
    suite: str,
    exec_model,
    threads: int = 1,
) -> ProfilingContext:
    """Profiling context matching what the harness runner would build."""
    return ProfilingContext(
        cluster=cluster,
        nprocs=nprocs,
        workload=benchmark.workload(suite),
        exec_model=exec_model,
        sim_steps=benchmark.default_sim_steps(suite),
        threads=threads,
    )


# --------------------------------------------------------------------------
# rank sampling
# --------------------------------------------------------------------------

def sampled_ranks(nprocs: int, limit: int = SAMPLE_LIMIT) -> list[tuple[int, int]]:
    """Representative ``(rank, weight)`` pairs covering ``[0, nprocs)``.

    Evenly spaced (both ends always included — that is where block
    decompositions place their remainder ranks); each sample's weight is
    the size of the contiguous rank block whose nearest sample it is, so
    weights sum to ``nprocs``.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    if nprocs <= limit:
        return [(r, 1) for r in range(nprocs)]
    idx = sorted({round(i * (nprocs - 1) / (limit - 1)) for i in range(limit)})
    out = []
    for j, r in enumerate(idx):
        lo = 0 if j == 0 else (idx[j - 1] + r) // 2 + 1
        hi = nprocs - 1 if j == len(idx) - 1 else (r + idx[j + 1]) // 2
        out.append((r, hi - lo + 1))
    return out


# --------------------------------------------------------------------------
# the trampoline
# --------------------------------------------------------------------------

def profile_rank(
    body: Callable[[RecordingComm], GeneratorType],
    nprocs: int,
    rank: int,
    weight: int = 1,
    nsteps: int = 1,
) -> RankProfile:
    """Drive ``body`` for rank ``rank`` through ``nsteps`` recorded
    steps.

    A stack-based generator trampoline stands in for the event engine:
    yielded sub-generators are pushed and run inline; yielded op tokens
    resolve immediately to their recorded results.  The dry run stops
    at the end of the last recorded step; whatever the body does after
    it is not part of the profile.  A body that returns earlier keeps
    its unfinished step as the last one.
    """
    comm = RecordingComm(rank, nprocs, nsteps)
    stack: list[GeneratorType] = [body(comm)]
    send = None
    while stack:
        try:
            y = stack[-1].send(send)
        except StopIteration as stop:
            stack.pop()
            send = stop.value
            continue
        if isinstance(y, _Token):
            send = y.result
        elif isinstance(y, GeneratorType):
            stack.append(y)
            send = None
        elif isinstance(y, _StepToken):
            if not y.loop.advance():
                break
            send = True
        else:
            raise ProfileUnsupported(f"body yielded {y!r}")
    else:
        comm.recorded.append(comm.ops)
    return RankProfile(rank=rank, weight=weight, steps=comm.recorded)


def profile_step(
    benchmark: Benchmark,
    ctx: ProfilingContext,
    limit: int = SAMPLE_LIMIT,
) -> list[RankProfile]:
    """One-step profiles of a representative rank sample."""
    body = benchmark.make_body(ctx)
    return [
        profile_rank(body, ctx.nprocs, rank, weight)
        for rank, weight in sampled_ranks(ctx.nprocs, limit)
    ]
