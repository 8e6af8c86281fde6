"""Pluggable sweep executors: serial, local process pool, TCP fabric.

:func:`~repro.harness.parallel.run_many` separates *policy* from
*mechanism*.  Policy — per-point timeout, seeded-backoff retries,
``tolerate_failures``, checkpoint recording — lives in one place, the
:func:`drive` loop, and is identical for every backend.  Mechanism —
where a :class:`~repro.harness.parallel.RunSpec` actually executes —
is an :class:`Executor`:

* :class:`SerialExecutor` — the degradation floor: points run one at a
  time in the calling process (or, when a wall-clock ``timeout`` must
  be enforceable, each in a fresh one-shot subprocess).
* :class:`LocalPoolExecutor` — today's ``ProcessPoolExecutor`` fan-out,
  extracted: N worker processes on this host, timeout by pool
  abandon-and-rebuild, pool death degrades to :class:`SerialExecutor`.
* :class:`~repro.harness.fabric.FabricExecutor` — a TCP manager/worker
  protocol where workers join and leave elastically mid-sweep and
  worker loss re-queues the leased specs (see
  :mod:`repro.harness.fabric`).

The protocol is deliberately small — :meth:`Executor.prepare` /
:meth:`Executor.submit` / :meth:`Executor.collect` /
:meth:`Executor.shutdown` — and every capability difference is an
explicit :class:`ExecutorCapabilities` flag, not an implicit behavior
divergence.  ``collect`` blocks until *some* submitted item reaches an
outcome; items complete in any order (the caller reassembles by index).

Timeout semantics per backend: the serial and local backends treat a
per-point timeout as terminal (the hung worker cannot be recovered, so
the point is recorded failed exactly as before this layer existed); the
fabric retries timed-out specs on another worker
(``capabilities.retries_timeouts``), because there *is* another worker.
"""

from __future__ import annotations

import hashlib
import time
import traceback as _traceback
import warnings
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.harness.checkpoint import spec_key
from repro.harness.results import RunResult


@dataclass(frozen=True)
class ExecutorCapabilities:
    """What an executor can and cannot do, stated explicitly."""

    #: runs points concurrently
    parallel: bool
    #: work crosses machine boundaries
    distributed: bool
    #: a timed-out point is retried (on another worker) instead of
    #: terminally failed
    retries_timeouts: bool


@dataclass(frozen=True)
class Outcome:
    """One terminal-for-this-attempt event reported by ``collect``."""

    item: int
    kind: str  # "ok" | "failed" | "timeout"
    result: Optional[RunResult] = None
    error_type: str = ""
    error_message: str = ""
    traceback: str = ""
    #: live exception object — only in-process executors can carry one;
    #: :func:`drive` re-raises it verbatim in intolerant mode
    exception: Optional[BaseException] = field(default=None, compare=False)
    #: fabric: which worker produced (or lost) the attempt
    worker: str = ""


class Executor(ABC):
    """submit/collect/shutdown protocol every backend implements."""

    name: str = "?"
    capabilities: ExecutorCapabilities
    #: set by ``run_many`` when a checkpoint is active; backends that
    #: journal work-state transitions (the fabric) append events here
    journal_path: Optional[str] = None
    #: long-lived executors (the serving layer batches many independent
    #: ``run_many`` calls through one backend — e.g. a fabric whose
    #: workers must stay joined between requests) set this so
    #: :func:`drive` leaves ``shutdown`` to the owner
    persistent: bool = False

    def prepare(self, specs: Sequence, timeout: Optional[float]) -> None:
        """Called once, before the first ``submit``."""

    @abstractmethod
    def submit(self, item: int, spec) -> None:
        """Enqueue one spec under the caller's integer work id."""

    @abstractmethod
    def collect(self) -> Outcome:
        """Block until any submitted item reaches an outcome."""

    def shutdown(self) -> None:
        """Release workers/sockets; idempotent."""


# --- deterministic seeded backoff -------------------------------------------


def backoff_delay(backoff: float, attempt: int, key: Optional[str] = None) -> float:
    """Deterministic backoff delay before retry ``attempt`` (1-based).

    ``backoff * 2**(attempt-1)``, jittered into ``[0.5x, 1.5x)`` by a
    hash of ``(key, attempt)`` — so simultaneous retry storms across a
    sweep decorrelate (different specs sleep different amounts) while
    every individual delay is a pure function of its inputs: no
    wall-clock randomness, reproducible in tests.
    """
    if backoff <= 0.0:
        return 0.0
    delay = backoff * (2 ** (attempt - 1))
    if key is not None:
        h = int(
            hashlib.sha256(f"{key}|{attempt}".encode()).hexdigest()[:8], 16
        )
        delay *= 0.5 + h / float(0xFFFFFFFF)
    return delay


def _backoff_sleep(backoff: float, attempt: int, key: Optional[str] = None) -> None:
    delay = backoff_delay(backoff, attempt, key)
    if delay > 0.0:
        time.sleep(delay)


# --- worker-side packing (importable by worker processes) -------------------


def _packed_failure(exc: BaseException) -> tuple:
    return ("failed", type(exc).__name__, str(exc), _traceback.format_exc())


def _unpack(item: int, packed: tuple, worker: str = "") -> Outcome:
    if packed[0] == "ok":
        return Outcome(item, "ok", result=packed[1], worker=worker)
    _, etype, emsg, tb = packed
    return Outcome(
        item, "failed", error_type=etype, error_message=emsg, traceback=tb,
        worker=worker,
    )


# --- the serial floor -------------------------------------------------------


class SerialExecutor(Executor):
    """Points run one at a time, in submission order.

    Without a timeout everything happens in the calling process — zero
    moving parts, the floor every other backend degrades to.  With a
    timeout, each point runs in a fresh one-shot single-worker
    subprocess so the wall-clock budget stays enforceable (an in-process
    run cannot be interrupted); if subprocesses cannot be created at
    all, the executor warns once and runs in-process with the timeout
    unenforced — degraded, never dead.
    """

    name = "serial"
    capabilities = ExecutorCapabilities(
        parallel=False, distributed=False, retries_timeouts=False,
    )
    #: test seam — swap the pool class used for one-shot isolation
    pool_factory = staticmethod(ProcessPoolExecutor)

    def __init__(self) -> None:
        self._queue: deque = deque()
        self._timeout: Optional[float] = None
        self._isolation_broken = False

    def prepare(self, specs: Sequence, timeout: Optional[float]) -> None:
        self._timeout = timeout

    def submit(self, item: int, spec) -> None:
        self._queue.append((item, spec))

    def collect(self) -> Outcome:
        from repro.harness.parallel import execute

        if not self._queue:
            raise RuntimeError("collect() with nothing submitted")
        item, spec = self._queue.popleft()
        if self._timeout is not None and not self._isolation_broken:
            outcome = self._collect_isolated(item, spec)
            if outcome is not None:
                return outcome
            # isolation just broke; fall through to in-process execution
        try:
            return Outcome(item, "ok", result=execute(spec))
        except Exception as exc:
            return replace(_unpack(item, _packed_failure(exc)), exception=exc)

    def _collect_isolated(self, item: int, spec) -> Optional[Outcome]:
        """One-shot subprocess so ``timeout`` is enforceable; ``None``
        means isolation is unavailable and the point should run
        in-process instead."""
        from repro.harness.parallel import _execute_packed

        pool = self.pool_factory(max_workers=1)
        try:
            packed = pool.submit(_execute_packed, spec).result(
                timeout=self._timeout
            )
        except _FuturesTimeout:
            pool.shutdown(wait=False, cancel_futures=True)
            return Outcome(item, "timeout")
        except BrokenProcessPool:
            pool.shutdown(wait=False)
            self._isolation_broken = True
            warnings.warn(
                "cannot isolate sweep points in subprocesses; running "
                "in-process with the per-point timeout unenforced",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        pool.shutdown(wait=False, cancel_futures=True)
        return _unpack(item, packed)


# --- the local process pool -------------------------------------------------


class LocalPoolExecutor(Executor):
    """N worker processes on this host (the pre-fabric ``run_many``).

    Timeout is measured while waiting on the oldest outstanding point;
    a timed-out pool is abandoned and rebuilt so later points are not
    starved behind a dead slot.  A pool that breaks outright (a worker
    OOM-killed or the interpreter crashed) degrades every unresolved
    point to a :class:`SerialExecutor` — with the same timeout, retries,
    and checkpoint semantics, since those live in :func:`drive`.
    """

    name = "local"
    capabilities = ExecutorCapabilities(
        parallel=True, distributed=False, retries_timeouts=False,
    )
    #: test seam — swap the pool class (pool-death chaos tests)
    pool_factory = staticmethod(ProcessPoolExecutor)

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._timeout: Optional[float] = None
        self._order: deque = deque()
        self._specs: dict = {}
        self._futures: dict = {}
        self._pool = None
        self._serial: Optional[SerialExecutor] = None

    def prepare(self, specs: Sequence, timeout: Optional[float]) -> None:
        self._timeout = timeout

    def submit(self, item: int, spec) -> None:
        from repro.harness.parallel import _execute_packed

        if self._serial is not None:
            self._serial.submit(item, spec)
            return
        self._specs[item] = spec
        self._order.append(item)
        if self._pool is None:
            self._pool = self.pool_factory(max_workers=self.workers)
        self._futures[item] = self._pool.submit(_execute_packed, spec)

    def collect(self) -> Outcome:
        from repro.harness.parallel import _execute_packed

        if self._serial is not None:
            return self._serial.collect()
        if not self._order:
            raise RuntimeError("collect() with nothing submitted")
        i = self._order[0]
        try:
            packed = self._futures[i].result(timeout=self._timeout)
        except _FuturesTimeout:
            self._order.popleft()
            # the worker running this point may be hung; abandon the
            # pool and rebuild it so later points are not starved behind
            # a dead slot (the old workers are left to die on their own
            # — they are daemonic to this process)
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = self.pool_factory(max_workers=self.workers)
            self._futures = {
                j: self._pool.submit(_execute_packed, self._specs[j])
                for j in self._order
            }
            return Outcome(i, "timeout")
        except BrokenProcessPool:
            # a worker died hard (OOM kill, interpreter crash): the pool
            # is unusable.  Degrade every unresolved point to the serial
            # floor; drive() keeps applying the same timeout/retry/
            # checkpoint policy to it.
            warnings.warn(
                "worker pool died; falling back to serial execution "
                f"for {len(self._order)} remaining sweep point(s)",
                RuntimeWarning,
                stacklevel=2,
            )
            self._pool.shutdown(wait=False)
            self._pool = None
            self._serial = SerialExecutor()
            self._serial.prepare((), self._timeout)
            for j in self._order:
                self._serial.submit(j, self._specs[j])
            self._order.clear()
            self._futures.clear()
            return self._serial.collect()
        except Exception as exc:
            # e.g. the spec itself failed to pickle on submission
            packed = _packed_failure(exc)
        self._order.popleft()
        return _unpack(i, packed)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._serial is not None:
            self._serial.shutdown()


# --- the shared policy driver -----------------------------------------------


def drive(
    executor: Executor,
    specs: Sequence,
    pending: Sequence[int],
    record: Callable,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.05,
    tolerate_failures: bool = False,
) -> None:
    """Run every pending item through ``executor`` under the harness
    failure policy: attempt -> (seeded-backoff retry)* -> terminal
    ``record`` or raise.

    The retry budget is per item.  Timeouts are terminal unless the
    executor's capabilities say it can retry them elsewhere.  In
    intolerant mode the original exception is re-raised when the
    executor still holds it (in-process execution); otherwise a
    :class:`~repro.harness.parallel.RunFailedError` carries the
    structured failure.
    """
    from repro.harness.parallel import RunFailedError, _failure

    pending = list(pending)
    executor.prepare([specs[i] for i in pending], timeout)
    attempts = {i: 1 for i in pending}
    for i in pending:
        executor.submit(i, specs[i])
    unresolved = set(pending)
    try:
        while unresolved:
            out = executor.collect()
            i = out.item
            if i not in unresolved:
                continue  # a straggler the executor did not dedup
            spec = specs[i]
            if out.kind == "ok":
                unresolved.discard(i)
                record(i, out.result)
                continue
            retryable = out.kind == "failed" or (
                out.kind == "timeout"
                and executor.capabilities.retries_timeouts
            )
            if retryable and attempts[i] <= retries:
                _backoff_sleep(backoff, attempts[i], key=spec_key(spec))
                attempts[i] += 1
                executor.submit(i, spec)
                continue
            unresolved.discard(i)
            if out.kind == "timeout":
                failure = _failure(
                    spec,
                    "TimeoutError",
                    f"no result within the per-point timeout of {timeout}s",
                    "",
                    attempts[i],
                )
            else:
                failure = _failure(
                    spec, out.error_type, out.error_message, out.traceback,
                    attempts[i],
                )
            if not tolerate_failures:
                if out.exception is not None:
                    raise out.exception
                raise RunFailedError(failure)
            record(i, failure)
    finally:
        if not executor.persistent:
            executor.shutdown()
