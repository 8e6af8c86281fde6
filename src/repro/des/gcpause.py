"""Run-scoped pause of Python's cyclic garbage collector.

A paper-scale job allocates hundreds of thousands of long-lived engine
objects (processes, mailboxes, per-rank stats, step-journal tuples).
With the collector running, every few thousand allocations trigger a
generation scan, and the full (gen2) scans walk the whole live world
again and again — time that buys nothing, because a finished run
leaves no cyclic garbage: everything it built is freed by reference
counting alone the moment the result is dropped.

:func:`gc_paused` disables the collector for the span of one run and
puts back the state it found.  It has two users: the harness runner
(:func:`repro.harness.runner.run`) and the Tier A predictor
(:func:`repro.predict.analytic.analytic_prediction`), whose dry run
records thousands of small op tuples per query and, like a run, leaves
no cyclic garbage behind.  ``gc.disable`` is process-wide, while the
HTTP service executes runs on a thread pool, so the pause is
reference-counted under a lock: the first entrant saves the caller's
state and disables the collector, the last one out restores it.  A
caller that had disabled the collector itself still has it disabled
afterwards.  The collector is restored on every exit path, including
an exception raised by the run.

The count is kept per thread because a process forked while another
thread is inside a pause (a sweep's worker pool started next to a
server's cold run) inherits the count and the disabled collector, but
not that thread: the child keeps only the forking thread's share and
turns the collector back on when that share is zero.
"""

from __future__ import annotations

import contextlib
import gc
import os
import threading
from typing import Iterator

_lock = threading.Lock()
#: pause nesting depth per thread (``threading.get_ident``); empty when
#: no pause is open
_depth: dict[int, int] = {}
_was_enabled = False


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Keep the cyclic collector off while the block executes
    (nestable and thread-safe; see the module docstring)."""
    global _was_enabled
    me = threading.get_ident()
    with _lock:
        if not _depth:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth[me] = _depth.get(me, 0) + 1
    try:
        yield
    finally:
        with _lock:
            _depth[me] -= 1
            if not _depth[me]:
                del _depth[me]
            if not _depth and _was_enabled:
                gc.enable()


def _after_fork_in_child() -> None:
    # only the forking thread survives a fork; another thread may have
    # held the lock at that instant
    global _lock
    _lock = threading.Lock()
    me = threading.get_ident()
    for ident in [t for t in _depth if t != me]:
        del _depth[ident]
    if not _depth and _was_enabled:
        gc.enable()


os.register_at_fork(after_in_child=_after_fork_in_child)
