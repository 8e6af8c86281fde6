"""The server's job table: every sweep gets a traceable job record.

``POST /sweep`` returns its job id immediately in its first NDJSON
event (``accepted``, repeated in every progress event), so
``GET /status/<job>`` can answer "how far along is my sweep" from
another connection while the batch is still executing.  ``/run`` and
``/predict`` answer one point on their own connection and get no job.

Timestamps are ``time.monotonic`` deltas (durations), not wall-clock
epochs: the table is in-memory observability, not an audit log.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

#: Completed jobs kept for /status lookups before the oldest are pruned.
JOB_HISTORY = 512


@dataclass
class Job:
    """One tracked ``/sweep`` batch."""

    id: str
    kind: str                        # "sweep"
    total: int = 1                   # points in the batch
    done: int = 0                    # points answered so far
    state: str = "queued"            # queued | running | done | failed
    error: Optional[str] = None
    #: per-ladder-level answer counts for this job
    sources: dict[str, int] = field(default_factory=dict)
    started: float = field(default_factory=time.monotonic)
    finished: Optional[float] = None

    def tick(self, source: str) -> None:
        self.done += 1
        self.sources[source] = self.sources.get(source, 0) + 1

    @property
    def elapsed(self) -> float:
        end = self.finished if self.finished is not None else time.monotonic()
        return end - self.started

    def to_doc(self) -> dict[str, Any]:
        return {
            "job": self.id,
            "kind": self.kind,
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "sources": dict(self.sources),
            "elapsed_s": round(self.elapsed, 6),
            "error": self.error,
        }


class JobTable:
    """Thread-safe id -> :class:`Job` map with bounded history."""

    def __init__(self, history: int = JOB_HISTORY) -> None:
        self._jobs: dict[str, Job] = {}
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        self._history = history

    def __len__(self) -> int:
        return len(self._jobs)

    def create(self, kind: str, total: int = 1) -> Job:
        with self._lock:
            job = Job(id=f"{kind}-{next(self._counter):06d}", kind=kind,
                      total=total, state="running")
            self._jobs[job.id] = job
            self._prune()
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def finish(self, job: Job, error: Optional[str] = None) -> None:
        job.state = "failed" if error else "done"
        job.error = error
        job.finished = time.monotonic()

    def _prune(self) -> None:
        # drop the oldest *finished* jobs beyond the history bound;
        # running jobs are never evicted
        excess = len(self._jobs) - self._history
        if excess <= 0:
            return
        for jid in [j.id for j in self._jobs.values()
                    if j.state in ("done", "failed")][:excess]:
            del self._jobs[jid]
