"""The content-addressed result store behind ``repro serve``.

An append-only JSONL file, one record per completed DES answer, keyed
by the canonical spec digest (:mod:`repro.serve.spec`).  The file is a
:class:`repro.journal.Journal` — schema stamps, locked fsynced appends,
a binary-safe load that skips a torn tail, last-record-wins, atomic
compaction with a durable directory entry — plus one property the
checkpoint and corpus do not need: **integrity verification**.  Every
record carries the result's golden fingerprint digest, and a record
whose stored result no longer reproduces that digest (bit rot, a torn
concurrent write, a tampered file) is rejected on load.  Corruption of
any kind therefore degrades to a cache *miss* — recompute and rewrite —
never to a wrong cached answer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional

from repro.harness.results import RunResult
from repro.journal import Journal

#: Schema stamp for store records; records from other schemas are
#: rejected on load (a stale-schema store degrades to recompute).
STORE_SCHEMA = 1


@dataclass(frozen=True)
class StoreEntry:
    """One cached answer: the spec it answers, the result, provenance."""

    key: str
    spec: dict[str, Any]        # canonical spec record (serve.spec)
    result: RunResult
    fingerprint: str            # golden fingerprint digest of ``result``
    source: str = "des"         # provenance of the cached answer

    def to_record(self) -> dict[str, Any]:
        return {
            "kind": "entry",
            "key": self.key,
            "spec": self.spec,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "result": self.result.to_checkpoint_dict(),
        }


def _decode(doc: dict) -> tuple[str, StoreEntry]:
    """One record -> verified entry; raises for anything else."""
    from repro.validate.golden import fingerprint

    if doc["kind"] != "entry":
        raise ValueError(f"unknown record kind {doc['kind']!r}")
    entry = StoreEntry(
        key=doc["key"],
        spec=doc["spec"],
        result=RunResult.from_checkpoint_dict(doc["result"]),
        fingerprint=doc["fingerprint"],
        source=doc.get("source", "des"),
    )
    if fingerprint(entry.result).digest != entry.fingerprint:
        raise ValueError("stored result no longer reproduces its fingerprint")
    return entry.key, entry


JOURNAL = Journal(STORE_SCHEMA, _decode)


class ResultStore:
    """Fingerprint-keyed result cache with JSONL persistence.

    ``path=None`` keeps the store in memory (tests, ephemeral servers).
    Construction loads every valid record (last record wins per key);
    :meth:`put` durably appends; :meth:`compact` atomically folds the
    file to one line per key.  Safe to share between the server's event
    loop and its worker threads.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._lock = threading.Lock()
        loaded = JOURNAL.load(path)
        self._entries: dict[str, StoreEntry] = loaded.records
        #: lines present in the file but rejected on load (corrupt,
        #: stale schema, integrity failure) — observability for /metrics
        self.rejected_lines = loaded.rejected

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[str]:
        return list(self._entries)

    def get(self, key: str) -> Optional[StoreEntry]:
        return self._entries.get(key)

    def put(self, entry: StoreEntry) -> None:
        """Insert (or replace) one answer; durably appended when backed
        by a file.  Locked, so the answer kept in memory for a key is
        also the last one in the file."""
        with self._lock:
            self._entries[entry.key] = entry
            if self.path is not None:
                JOURNAL.append(self.path, entry.to_record())

    def compact(self) -> int:
        """Atomically fold the file to one verified line per key.
        Returns the number of entries kept; memory-only stores no-op."""
        if self.path is None:
            return len(self._entries)
        return JOURNAL.compact(self.path)
