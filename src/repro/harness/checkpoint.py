"""JSONL sweep checkpointing and the fabric lease journal.

A checkpoint file holds one JSON line per record.  Two record kinds
share the file:

* ``result`` — a *successfully completed* sweep point, keyed by a stable
  digest of the point's :class:`~repro.harness.parallel.RunSpec`.  A
  killed sweep re-run with the same checkpoint path restores every
  recorded point without re-simulating it and continues from the first
  missing one; points whose spec changed (different machine, seed,
  suite, fault plan, ...) get fresh keys and re-run automatically.
* ``event`` — a work-state transition journaled by the fabric manager
  (``lease`` / ``requeue`` / ``complete`` / ``failed`` / ``timeout`` /
  ``duplicate``).  Events are observability for crash forensics: after a
  manager crash the result records alone reconstruct the remaining work
  (everything without a result re-runs), and the trailing events say
  which specs were in flight and on which worker when the manager died.

Failed points are deliberately *not* recorded as results: on resume they
are retried — the common reason to resume is that whatever killed the
sweep (OOM, a node reboot, a buggy fault plan since fixed) has been
addressed.

The file is a :class:`repro.journal.Journal`; :func:`compact` folds it
to one line per completed key and no events, on every
:func:`~repro.harness.parallel.run_many` resume.

Schema history: 3 added the machine digest to :func:`spec_key`.  Records
of older schemas are rejected on load, so their points re-run — the old
keys could not tell a re-clocked machine from the nominal one.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.harness.results import RunResult
from repro.journal import Journal

#: Schema stamp written with every record (bump on incompatible change).
CHECKPOINT_SCHEMA = 3


def spec_key(spec: Any) -> str:
    """Stable identity digest of a RunSpec (duck-typed: any object with
    the spec's fields works).  The cluster enters by label *and* machine
    digest: a DVFS re-clock keeps the label but not the machine.  An
    empty fault plan keys like no plan: both run fault-free."""
    faults = getattr(spec, "faults", None)
    raw = "|".join(
        str(x)
        for x in (
            spec.benchmark.name,
            spec.cluster.name,
            spec.cluster.machine_digest,
            spec.nprocs,
            spec.suite,
            spec.sim_steps,
            spec.noise_sigma,
            spec.seed,
            spec.threads_per_rank,
            "-" if faults is None or faults.empty else faults.digest,
        )
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:24]


def _decode(doc: dict) -> tuple[str, RunResult] | None:
    if doc["kind"] == "event":
        doc["key"]  # events must be keyed
        return None  # valid, but compaction drops it
    if doc["kind"] != "result":
        raise ValueError(f"unknown record kind {doc['kind']!r}")
    return doc["key"], RunResult.from_checkpoint_dict(doc["result"])


#: The checkpoint record format (its :meth:`~repro.journal.Journal.load`
#: also reports rejected lines).
JOURNAL = Journal(CHECKPOINT_SCHEMA, _decode)


def load_checkpoint(path: str) -> dict[str, RunResult]:
    """Read every valid result record (last record wins per key);
    missing file means an empty checkpoint."""
    return JOURNAL.load(path).records


def load_journal(path: str) -> list[dict[str, Any]]:
    """Read every valid event record, in file (= chronological) order."""
    events: list[dict[str, Any]] = []

    def collect(doc: dict) -> None:
        if doc["kind"] == "event":
            doc["key"]  # events must be keyed
            del doc["schema"]
            events.append(doc)

    Journal(CHECKPOINT_SCHEMA, collect).load(path)
    return events


def append_checkpoint(path: str, key: str, result: RunResult) -> None:
    """Durably append one completed point."""
    JOURNAL.append(path, {
        "kind": "result", "key": key, "result": result.to_checkpoint_dict(),
    })


def append_event(path: str, event: str, key: str, **fields: Any) -> None:
    """Append one work-state transition (lease/requeue/complete/...).

    Events are not fsynced: they are forensic breadcrumbs, not the
    source of truth for resume — losing the tail of the journal in a
    crash costs nothing but detail in the post-mortem.
    """
    JOURNAL.append(
        path, {"kind": "event", "event": event, "key": key, **fields},
        sync=False,
    )


def compact(path: str) -> int:
    """Atomically fold ``path`` to one result line per key (the newest
    re-run wins; events and corrupt lines are dropped).  Returns the
    number of result records kept; a missing file is a no-op."""
    return JOURNAL.compact(path)
