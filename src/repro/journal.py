"""Append-only JSONL journals: the one durable write path.

The harness checkpoint, the prediction corpus and the serve result
store are thin wrappers over a :class:`Journal` — one record format (a
schema stamp plus a decoder) applied to any file path.  The journal owns
the mechanics: locked whole-line appends (fsynced, with a directory
fsync when the append creates the file), a binary-safe load that skips
and counts every line that is not a current-schema record its decoder
accepts (last record wins per key), and atomic compaction (fsynced
temporary, ``os.replace``, :func:`fsync_dir`) that leaves an already
clean file untouched.  Corruption therefore degrades to a miss.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only lock
    fcntl = None


def fsync_dir(path: str) -> None:
    """fsync the directory containing ``path``.

    ``os.replace`` makes the new name visible, but only a directory
    fsync makes the *rename itself* durable — without it a crash after
    an fsynced-temp-then-replace can resurrect the replaced file (the
    data blocks survived, the directory entry update did not).  On
    platforms without ``os.O_DIRECTORY`` (Windows) this degrades to a
    no-op, matching fsync semantics there.
    """
    dirname = os.path.dirname(os.path.abspath(path))
    flag = getattr(os, "O_DIRECTORY", None)
    if flag is None:  # pragma: no cover - POSIX-only guard
        return
    dirfd = os.open(dirname, os.O_RDONLY | flag)
    try:
        os.fsync(dirfd)
    finally:
        os.close(dirfd)


@contextmanager
def _locked(path: str):
    """A descriptor on ``path`` holding the writers' lock — re-opened
    if a compaction replaced the file while we waited for it."""
    while True:
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                current = os.fstat(fd).st_ino == os.stat(path).st_ino
            except FileNotFoundError:  # unlinked while we waited
                current = False
            if current:
                yield fd
                return
        finally:
            os.close(fd)  # closing releases the flock


@dataclass
class Loaded:
    """One journal file, read: the decoded records and the byte span of
    each winning line, per key (last record wins, first-seen order), the
    count of rejected non-blank lines, and whether every line is a live
    record with a unique key (nothing to compact)."""

    records: dict[str, Any] = field(default_factory=dict)
    spans: dict[str, tuple[int, int]] = field(default_factory=dict)
    rejected: int = 0
    clean: bool = True


class Journal:
    """One journal record format: a schema stamp plus a decoder.

    ``decode(doc)`` returns ``(key, value)`` for a live record, ``None``
    for a valid line compaction drops (a checkpoint event); raising
    rejects the line.
    """

    def __init__(self, schema: int, decode: Callable[[dict], Optional[tuple]]) -> None:
        self.schema = schema
        self.decode = decode

    def append(self, path: str, record: dict, sync: bool = True) -> None:
        """Durably append one record (``sync=False`` skips the fsyncs:
        for breadcrumbs whose loss costs nothing but detail)."""
        data = json.dumps({"schema": self.schema, **record}).encode() + b"\n"
        with _locked(path) as fd:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data  # terminate a killed writer's torn tail
            while data:
                data = data[os.write(fd, data):]
            if sync:
                os.fsync(fd)
        if sync and size == 0:
            fsync_dir(path)  # this append created the file

    def load(self, path: Optional[str]) -> Loaded:
        """Read every record; ``None`` or a missing file is empty."""
        out = Loaded()
        if path is None or not os.path.exists(path):
            return out
        end = 0
        with open(path, "rb") as fh:
            for line in fh:
                start, end = end, end + len(line)
                if not line.strip():
                    out.clean = False
                    continue
                try:
                    doc = json.loads(line)
                    if doc.get("schema") != self.schema:
                        raise ValueError("not a current-schema record")
                    item = self.decode(doc)
                except Exception:
                    # whatever is wrong with one line loses only that line
                    out.rejected += 1
                    out.clean = False
                    continue
                if item is None:
                    out.clean = False
                    continue
                key, value = item
                if key in out.records:
                    out.clean = False
                out.records[key] = value
                out.spans[key] = (start, end)
        return out

    def compact(self, path: str) -> int:
        """Atomically rewrite ``path`` to one line per live key (a crash
        leaves the old or the new file, never a torn one); returns the
        number of records kept.  Clean or missing files are untouched."""
        if not os.path.exists(path):
            return 0
        with _locked(path):
            loaded = self.load(path)
            if not loaded.clean:
                tmp = path + ".compact.tmp"
                with open(path, "rb") as src, open(tmp, "wb") as fh:
                    for start, end in loaded.spans.values():
                        src.seek(start)
                        fh.write(src.read(end - start).rstrip(b"\n") + b"\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
                fsync_dir(path)
        return len(loaded.records)
