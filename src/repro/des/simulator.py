"""Event loop, processes, and scheduling primitives.

Processes are plain generator functions.  They communicate with the engine
by yielding:

* :class:`Delay` — suspend for a span of virtual time;
* :class:`Wait` — suspend until a :class:`Signal` fires (the signal's value
  is delivered as the result of the ``yield``);
* another generator — run it to completion as a sub-coroutine (its return
  value is delivered as the result of the ``yield``).

The sub-coroutine convention keeps benchmark code readable: an MPI call is
simply ``result = yield comm.allreduce(...)``.

Fast path
---------
The engine orders events by ``(time, counter)`` where the counter is a
global monotonically increasing insertion index — FIFO tie-breaking among
same-timestamp events.  Two observations make most of the heap traffic
avoidable without changing that order:

* Events scheduled *at the current time* (``Signal.fire`` fan-out after a
  barrier/allreduce, freshly spawned processes) are appended to a plain
  FIFO run-queue instead of the heap.  Because the run-queue is appended
  in counter order and all its entries share the current timestamp, the
  main loop can merge it with the heap by a single counter comparison —
  the event order is *bit-identical* to the pure-heap schedule.
* A ``Delay(0)`` continues the yielding process in place (no queue at
  all) — but only when no other event is pending at the current time
  (run-queue empty, heap top strictly later): then the process would be
  the very next runnable frame anyway.  Otherwise the continuation is
  appended to the run-queue with a fresh counter, exactly where the
  pure-heap engine would put it, so same-timestamp peers (e.g. other
  waiters woken by the same ``Signal.fire``) keep their FIFO slot.

``Simulator(fast_path=False)`` disables both and reproduces the original
pure-heap engine — kept as the reference for equivalence tests and for
the engine microbenchmark.

Schedule perturbation
---------------------
``Simulator(tie_seed=N)`` replaces the FIFO tie-break among
*same-timestamp* events with a seeded-random one: every event key gains a
random high-order prefix, so events at equal virtual times dispatch in a
shuffled (but fully deterministic, seed-reproducible) order, while events
at different times keep their causal order.  This is the engine half of
the validation subsystem's determinism sanitizer (see
:mod:`repro.validate.perturb`): results of a well-formed model must be
invariant under every such shuffle, so a divergence pinpoints a hidden
order-dependence bug.  Perturbation implies the pure-heap engine — the
run-queue fast path *is* a fixed FIFO tie-break choice, which is exactly
what the sanitizer must be free to vary.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from collections.abc import Generator as _GeneratorABC
from heapq import heappop, heappush
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional

#: Type of a simulated-process body.
ProcessBody = Generator[Any, Any, Any]


class Delay:
    """Yielded by a process to sleep for ``duration`` virtual seconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative delay: {duration}")
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Delay(duration={self.duration})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Delay) and other.duration == self.duration

    def __hash__(self) -> int:
        return hash((Delay, self.duration))


class Signal:
    """A one-shot broadcast condition.

    Processes block on a signal with ``yield Wait(sig)``; ``fire(value)``
    wakes all current and future waiters, delivering ``value``.  Firing an
    already-fired signal is an error (one-shot semantics keep matching
    logic in the MPI layer honest).
    """

    __slots__ = ("fired", "value", "_waiters", "name")

    def __init__(self, name: str = "") -> None:
        self.fired = False
        self.value: Any = None
        self._waiters: list[SimProcess] = []
        self.name = name

    def fire(self, value: Any = None) -> None:
        if self.fired:
            raise RuntimeError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            proc._simulator._ready(proc, value)

    def add_waiter(self, proc: "SimProcess") -> None:
        self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else f"{len(self._waiters)} waiting"
        return f"<Signal {self.name!r} {state}>"


class Wait:
    """Yielded by a process to block until ``signal`` fires."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal) -> None:
        self.signal = signal

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Wait(signal={self.signal!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Wait) and other.signal is self.signal

    def __hash__(self) -> int:
        return hash((Wait, id(self.signal)))


class SimStats:
    """Engine throughput counters (for the microbenchmark and perf work).

    ``events`` counts dispatched events (callbacks + process resumptions);
    ``runq_events`` is the subset served from the current-time FIFO
    run-queue instead of the heap; ``zero_delay_continues`` counts
    ``Delay(0)`` yields resolved in place without queuing at all.
    """

    __slots__ = (
        "events",
        "heap_pushes",
        "heap_pops",
        "runq_events",
        "zero_delay_continues",
        "peak_heap_size",
    )

    def __init__(self) -> None:
        self.events = 0
        self.heap_pushes = 0
        self.heap_pops = 0
        self.runq_events = 0
        self.zero_delay_continues = 0
        self.peak_heap_size = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<SimStats {body}>"


class SimProcess:
    """A running simulated process (a stack of generator frames)."""

    __slots__ = ("name", "_stack", "_simulator", "done", "result", "error")

    def __init__(self, name: str, body: ProcessBody, simulator: "Simulator") -> None:
        self.name = name
        self._stack: list[ProcessBody] = [body]
        self._simulator = simulator
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None

    def kill(self, error: Optional[BaseException] = None) -> None:
        """Terminate the process in place (fault injection: rank crash).

        The frame stack is closed and the process is marked done, so any
        event or signal still addressed to it is skipped by the engine.
        Peers blocked on it will surface as a :class:`DeadlockError` when
        the queues drain.
        """
        if self.done:
            return
        self.done = True
        self.error = error
        for frame in reversed(self._stack):
            frame.close()
        self._stack.clear()
        self._simulator._finished(self)

    def _step(self, send_value: Any) -> None:
        """Advance the process until it blocks or finishes."""
        sim = self._simulator
        stack = self._stack
        fast = sim._fast_path
        while True:
            frame = stack[-1]
            try:
                yielded = frame.send(send_value)
            except StopIteration as stop:
                stack.pop()
                if not stack:
                    self.done = True
                    self.result = stop.value
                    sim._finished(self)
                    return
                send_value = stop.value
                continue
            except BaseException as exc:
                self.done = True
                self.error = exc
                sim._finished(self)
                raise
            # exact-type dispatch: the three hot yield types are final in
            # practice, so ``is``-checks beat the isinstance chain; odd
            # types (subclasses, other iterables) fall through to the
            # original checks below.
            cls = yielded.__class__
            if cls is Delay:
                duration = yielded.duration
                if (
                    duration == 0.0
                    and fast
                    and not sim._runq
                    and (not sim._heap or sim._heap[0][0] > sim.now)
                ):
                    # continue in place: nothing else is pending at the
                    # current time, so this frame is the next runnable
                    # one under the pure-heap order too
                    sim.stats.zero_delay_continues += 1
                    send_value = None
                    continue
                sim._schedule(sim.now + duration, self, None)
                return
            if cls is Wait:
                sig = yielded.signal
                if sig.fired:
                    send_value = sig.value
                    continue
                sig.add_waiter(self)
                return
            if cls is GeneratorType:
                stack.append(yielded)
                send_value = None
                continue
            # slow path for unusual yields
            if isinstance(yielded, Delay):
                sim._schedule(sim.now + yielded.duration, self, None)
                return
            if isinstance(yielded, Wait):
                sig = yielded.signal
                if sig.fired:
                    send_value = sig.value
                    continue
                sig.add_waiter(self)
                return
            if isinstance(yielded, _GeneratorABC):
                stack.append(yielded)
                send_value = None
                continue
            raise TypeError(
                f"process {self.name!r} yielded unsupported object "
                f"{yielded!r}; expected Delay, Wait, or a generator"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"<SimProcess {self.name!r} {state}>"


class Simulator:
    """The virtual-time event loop.

    Usage::

        sim = Simulator()
        sim.spawn("worker", worker_body())
        sim.run()
        assert sim.now == expected_makespan

    ``fast_path=False`` routes every event through the heap and disables
    the ``Delay(0)`` in-place continuation — the original engine, kept as
    the bitwise reference.

    ``tie_seed`` (default off) enables seeded schedule perturbation: the
    tie-break among same-timestamp events becomes a deterministic random
    shuffle instead of FIFO (see the module docstring).  Setting it
    forces the pure-heap engine.
    """

    def __init__(self, fast_path: bool = True, tie_seed: int | None = None) -> None:
        self.now: float = 0.0
        if tie_seed is not None:
            # the run-queue fast path encodes the FIFO tie-break the
            # sanitizer exists to vary — perturbed runs are pure-heap
            fast_path = False
            self._tie_rng: Optional[random.Random] = random.Random(tie_seed)
        else:
            self._tie_rng = None
        self.tie_seed = tie_seed
        self._fast_path = fast_path
        self._heap: list[tuple[float, int, Optional[SimProcess], Any]] = []
        self._runq: deque[tuple[int, Optional[SimProcess], Any]] = deque()
        self._counter = itertools.count()
        # unfinished processes in spawn order: what a deadlock report
        # names.  It is the only engine -> process link, and it empties
        # as processes finish, so a drained run holds no reference cycle
        self._live: dict[SimProcess, None] = {}
        self.stats = SimStats()

    @property
    def fast_path(self) -> bool:
        return self._fast_path

    def _key(self) -> int:
        """Event tie-break key: the FIFO counter, or — under schedule
        perturbation — a seeded-random prefix over the counter, which
        shuffles same-timestamp dispatch order while staying unique."""
        c = next(self._counter)
        rng = self._tie_rng
        if rng is None:
            return c
        return (rng.getrandbits(32) << 40) | c

    # --- process management ----------------------------------------------

    def spawn(self, name: str, body: ProcessBody) -> SimProcess:
        """Create a process and make it runnable at the current time."""
        if not isinstance(body, _GeneratorABC):
            raise TypeError(f"process body for {name!r} must be a generator")
        proc = SimProcess(name, body, self)
        self._live[proc] = None
        self._schedule(self.now, proc, None)
        return proc

    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        """Run a plain callback at virtual ``time`` (used for message
        delivery without the overhead of a full process)."""
        if time < self.now - 1e-15:
            raise ValueError(f"call_at in the past: {time} < {self.now}")
        self._push(time, self._key(), None, fn)

    # --- engine internals ----------------------------------------------------

    def _push(
        self, time: float, counter: int, proc: Optional[SimProcess], value: Any
    ) -> None:
        heap = self._heap
        heappush(heap, (time, counter, proc, value))
        stats = self.stats
        stats.heap_pushes += 1
        if len(heap) > stats.peak_heap_size:
            stats.peak_heap_size = len(heap)

    def _schedule(self, time: float, proc: SimProcess, value: Any) -> None:
        if self._fast_path and time <= self.now:
            self._runq.append((next(self._counter), proc, value))
            return
        self._push(time, self._key(), proc, value)

    def _ready(self, proc: SimProcess, value: Any) -> None:
        """Make a blocked process runnable now (called by Signal.fire)."""
        if self._fast_path:
            self._runq.append((next(self._counter), proc, value))
            return
        self._push(self.now, self._key(), proc, value)

    def _finished(self, proc: SimProcess) -> None:
        del self._live[proc]

    def abandon(self) -> None:
        """Discard a run stopped by an exception: close every unfinished
        process and drop every pending event, so the stopped world is
        freed by reference counting instead of waiting for the cyclic
        collector."""
        for proc in list(self._live):
            proc.kill()
        self._heap.clear()
        self._runq.clear()

    # --- main loop -----------------------------------------------------------

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        deadline: float | None = None,
    ) -> float:
        """Execute events until the queues drain (or ``until`` is reached).

        Returns the final virtual time.  Raises :class:`DeadlockError` if
        processes remain blocked with no pending events — which in the MPI
        layer indicates a genuine communication deadlock.

        ``max_events`` bounds the number of events dispatched by *this*
        call and ``deadline`` bounds the simulated time: exceeding either
        raises :class:`HangError`, so livelocks and runaway fault
        scenarios terminate deterministically instead of spinning.
        (``until`` by contrast *pauses* and returns — use it for
        cooperative time-slicing, and ``deadline`` for watchdogs.)
        """
        heap = self._heap
        runq = self._runq
        stats = self.stats
        budget = max_events if max_events is not None else -1
        while runq or heap:
            if budget >= 0:
                budget -= 1
                if budget < 0:
                    raise HangError(
                        f"event budget exhausted: {max_events} events "
                        f"dispatched without draining (t={self.now}, "
                        f"{len(runq)} queued, {len(heap)} heaped) — "
                        "livelock or runaway scenario"
                    )
            # merge the current-time FIFO with the heap by counter so the
            # event order is identical to the pure-heap schedule; a heap
            # event strictly before now (call_at tolerates a 1e-15 slack
            # into the past) always wins regardless of counter, exactly
            # as the pure-heap engine would run it
            if runq and (
                not heap
                or heap[0][0] > self.now
                or (heap[0][0] == self.now and heap[0][1] > runq[0][0])
            ):
                _, proc, value = runq.popleft()
                stats.runq_events += 1
            else:
                time, counter, proc, value = heappop(heap)
                stats.heap_pops += 1
                if until is not None and time > until:
                    # keep the original counter so FIFO tie-breaking among
                    # same-timestamp events survives a pause/resume
                    self._push(time, counter, proc, value)
                    self.now = until
                    return self.now
                if deadline is not None and time > deadline:
                    raise HangError(
                        f"simulated time exceeded deadline: next event at "
                        f"t={time} > deadline {deadline} "
                        f"({stats.events} events dispatched)"
                    )
                if time < self.now - 1e-15:
                    raise RuntimeError("event scheduled in the past")
                if time > self.now:
                    self.now = time
            stats.events += 1
            if proc is None:
                value()  # plain callback scheduled via call_at
                continue
            if proc.done:
                continue
            proc._step(value)
        if self._live:
            blocked = tuple(self._live)
            names = ", ".join(p.name for p in blocked[:8])
            raise DeadlockError(
                f"{len(blocked)} process(es) blocked forever at t={self.now}: {names}",
                blocked=blocked,
            )
        return self.now


class DeadlockError(RuntimeError):
    """Raised when the event heap drains while processes are still blocked.

    ``blocked`` carries the stuck :class:`SimProcess` objects so higher
    layers (the MPI runtime) can enrich the report with what each process
    was waiting for.
    """

    def __init__(self, message: str, blocked: tuple = ()) -> None:
        super().__init__(message)
        self.blocked = blocked


class HangError(RuntimeError):
    """Raised when :meth:`Simulator.run` exceeds its event budget or its
    simulated-time deadline — the livelock counterpart of
    :class:`DeadlockError`."""


def join_all(procs: Iterable[SimProcess]) -> list[Any]:
    """Collect results of finished processes, re-raising the first error."""
    results = []
    for p in procs:
        if p.error is not None:
            raise p.error
        results.append(p.result)
    return results
