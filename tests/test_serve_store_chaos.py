"""Chaos battery for the three journals: the harness checkpoint, the
prediction corpus and the serve result store.

All three are thin wrappers over :mod:`repro.journal`, and they share
one invariant: **corruption degrades to a miss, never to a wrong
answer**.  Whatever happens to the backing file — a torn tail from a
crash mid-append, binary garbage, a truncated or interrupted compaction,
concurrent writers, a stale schema stamp — every record a wrapper *does*
return must be exactly one that was written, and everything else must
simply miss (the caller then recomputes and rewrites).  Every battery
test runs against every wrapper in :data:`JOURNALS`.

Also here: the store's integrity verification (a tampered result is
rejected), and the fsync-after-rename durability fix (``fsync_dir``) —
a crash right after ``os.replace`` must not resurrect the pre-compact
file, which requires fsyncing the *directory* entry, not just the file
data.
"""

import json
import os
import stat
import threading

import pytest

from repro.harness import checkpoint
from repro.harness.results import RunResult
from repro.perfmon.rapl import EnergyReading
from repro.predict.corpus import CorpusSample, PredictionCorpus
from repro.serve.store import ResultStore, StoreEntry

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # optional test dependency
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)
needs_dir_fsync = pytest.mark.skipif(
    not hasattr(os, "O_DIRECTORY"), reason="directory fsync is POSIX-only"
)


# ----------------------------------------------------------------------
# synthetic records
# ----------------------------------------------------------------------


def synth_result(tag: int, elapsed: float = 1.0) -> RunResult:
    """A small, fully synthetic RunResult that fingerprints cleanly."""
    return RunResult(
        benchmark=f"synthetic-{tag}",
        cluster="A",
        suite="tiny",
        nprocs=2,
        nnodes=1,
        elapsed=elapsed,
        sim_elapsed=elapsed / 2.0,
        step_scale=4.0,
        counters={"flops": 1e9 + tag, "simd_flops": 5e8,
                  "mem_bytes": 1e8, "l2_bytes": 2e8, "l3_bytes": 1.5e8},
        time_by_kind={"compute": 0.8 * elapsed, "MPI_Allreduce": 0.2 * elapsed},
        energy=EnergyReading(elapsed=elapsed, chip_energy=100.0 + tag,
                             dram_energy=10.0, nnodes=1),
        rank_times=({"compute": 0.8 * elapsed, "MPI_Allreduce": 0.2 * elapsed},
                    {"compute": 0.7 * elapsed, "MPI_Allreduce": 0.3 * elapsed}),
    )


def synth_entry(tag: int, elapsed: float = 1.0) -> StoreEntry:
    from repro.validate.golden import fingerprint

    result = synth_result(tag, elapsed)
    return StoreEntry(
        key=f"{tag:064d}",
        spec={"benchmark": result.benchmark, "cluster": "A"},
        result=result,
        fingerprint=fingerprint(result).digest,
    )


def synth_sample(tag: int, elapsed: float = 1.0) -> CorpusSample:
    return CorpusSample(benchmark=f"synthetic-{tag}", cluster="ClusterA",
                        suite="tiny", nnodes=1, nprocs=72, threads=1,
                        elapsed=elapsed, total_energy=1000.0 + tag)


# ----------------------------------------------------------------------
# the three wrappers behind one interface
# ----------------------------------------------------------------------


class CheckpointJournal:
    name = "checkpoint"

    def record(self, tag, elapsed=1.0):
        return f"k{tag}", synth_result(tag, elapsed)

    def writer(self, path):
        def write(tag, elapsed=1.0):
            checkpoint.append_checkpoint(path, *self.record(tag, elapsed))
        return write

    def load(self, path):
        loaded = checkpoint.JOURNAL.load(path)
        return loaded.records, loaded.rejected

    def compact(self, path):
        return checkpoint.compact(path)


class CorpusJournal:
    name = "corpus"

    def record(self, tag, elapsed=1.0):
        sample = synth_sample(tag, elapsed)
        return sample.key, sample

    def writer(self, path):
        corpus = PredictionCorpus(path)
        return lambda tag, elapsed=1.0: corpus.add(synth_sample(tag, elapsed))

    def load(self, path):
        corpus = PredictionCorpus(path)
        return {s.key: s for s in corpus}, corpus.rejected_lines

    def compact(self, path):
        return PredictionCorpus(path).compact()


class StoreJournal:
    name = "store"

    def record(self, tag, elapsed=1.0):
        entry = synth_entry(tag, elapsed)
        return entry.key, entry

    def writer(self, path):
        store = ResultStore(path)
        return lambda tag, elapsed=1.0: store.put(synth_entry(tag, elapsed))

    def load(self, path):
        store = ResultStore(path)
        return {k: store.get(k) for k in store.keys()}, store.rejected_lines

    def compact(self, path):
        return ResultStore(path).compact()


JOURNALS = (CheckpointJournal(), CorpusJournal(), StoreJournal())


def journal_files(tmp_path):
    """(wrapper, fresh file path) for every wrapper."""
    return [(j, str(tmp_path / f"{j.name}.jsonl")) for j in JOURNALS]


def assert_exact(journal, records, expected) -> None:
    """Every loaded record is exactly the one written for its key."""
    for key, value in records.items():
        assert key in expected, (journal.name, key)
        assert value == expected[key], journal.name


def tear_last_line(path: str) -> None:
    """Crash mid-append: cut the file inside its last record."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    with open(path, "wb") as fh:
        fh.writelines(lines[:-1])
        fh.write(lines[-1][: len(lines[-1]) // 2])


# ----------------------------------------------------------------------
# store round trips
# ----------------------------------------------------------------------


def assert_never_wrong(store: ResultStore) -> None:
    """The store invariant: every returned entry reproduces its
    fingerprint."""
    from repro.validate.golden import fingerprint

    for key in store.keys():
        entry = store.get(key)
        assert fingerprint(entry.result).digest == entry.fingerprint


def test_persistence_round_trip(tmp_path):
    path = str(tmp_path / "store.jsonl")
    store = ResultStore(path)
    entries = [synth_entry(i) for i in range(5)]
    for e in entries:
        store.put(e)
    reloaded = ResultStore(path)
    assert len(reloaded) == 5
    assert reloaded.rejected_lines == 0
    for e in entries:
        got = reloaded.get(e.key)
        assert got is not None
        assert got.fingerprint == e.fingerprint
        assert got.result == e.result
    assert_never_wrong(reloaded)


def test_last_record_wins(tmp_path):
    path = str(tmp_path / "store.jsonl")
    store = ResultStore(path)
    first = synth_entry(1, elapsed=1.0)
    second = synth_entry(1, elapsed=2.0)  # same key, newer answer
    store.put(first)
    store.put(second)
    reloaded = ResultStore(path)
    assert reloaded.get(first.key).result.elapsed == 2.0
    assert reloaded.compact() == 1
    assert len(ResultStore(path)) == 1


def test_memory_only_store_compact_noops():
    store = ResultStore(None)
    store.put(synth_entry(1))
    assert store.compact() == 1
    assert store.get(synth_entry(1).key) is not None


def test_tampered_result_is_discarded_not_served(tmp_path):
    path = str(tmp_path / "store.jsonl")
    store = ResultStore(path)
    honest, tampered = synth_entry(1), synth_entry(2)
    store.put(honest)
    store.put(tampered)
    # bit rot / malice: valid JSON, wrong physics — elapsed edited
    # without updating the fingerprint
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    lines[1]["result"]["elapsed"] = 123.456
    with open(path, "w") as fh:
        for doc in lines:
            fh.write(json.dumps(doc) + "\n")
    reloaded = ResultStore(path)
    assert reloaded.get(honest.key) is not None
    assert reloaded.get(tampered.key) is None
    assert reloaded.rejected_lines == 1
    assert_never_wrong(reloaded)


# ----------------------------------------------------------------------
# the battery: every wrapper
# ----------------------------------------------------------------------


def test_torn_tail_loses_only_the_last_append(tmp_path):
    for journal, path in journal_files(tmp_path):
        write = journal.writer(path)
        write(1)
        write(2)
        tear_last_line(path)
        records, rejected = journal.load(path)
        kept, torn = journal.record(1), journal.record(2)
        assert records == dict([kept]), journal.name  # a miss, not garbage
        assert rejected == 1, journal.name
        # the recovery: recompute, rewrite (onto the torn tail), compact
        journal.writer(path)(2)
        assert journal.compact(path) == 2, journal.name
        records, rejected = journal.load(path)
        assert records == dict([kept, torn]), journal.name
        assert rejected == 0, journal.name


def test_binary_tail_is_rejected_not_raised(tmp_path):
    for journal, path in journal_files(tmp_path):
        write = journal.writer(path)
        write(1)
        write(2)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe\x00\x9c not utf-8 \xc3")
        records, rejected = journal.load(path)
        assert records == dict([journal.record(1), journal.record(2)])
        assert rejected == 1, journal.name


def test_stale_schema_degrades_to_recompute(tmp_path):
    for journal, path in journal_files(tmp_path):
        journal.writer(path)(1)
        with open(path) as fh:
            docs = [json.loads(line) for line in fh]
        for doc in docs:
            doc["schema"] += 98
        with open(path, "w") as fh:
            for doc in docs:
                fh.write(json.dumps(doc) + "\n")
        records, rejected = journal.load(path)
        assert records == {} and rejected == 1, journal.name  # recompute
        journal.writer(path)(1)  # the rewrite wins on the next load
        assert journal.load(path)[0] == dict([journal.record(1)])


def test_leftover_compact_tmp_is_harmless(tmp_path):
    for journal, path in journal_files(tmp_path):
        journal.writer(path)(1)
        # a crash between writing the temp file and os.replace leaves this
        with open(path + ".compact.tmp", "w") as fh:
            fh.write('{"half a rec')
        assert len(journal.load(path)[0]) == 1, journal.name
        assert journal.compact(path) == 1, journal.name
        assert len(journal.load(path)[0]) == 1, journal.name


def test_failed_compact_keeps_the_original_file(tmp_path, monkeypatch):
    def exploding_replace(src, dst):
        raise OSError("disk went away")

    for journal, path in journal_files(tmp_path):
        write = journal.writer(path)
        for i in range(3):
            write(i)
        write(0, elapsed=2.0)  # a duplicate key: compaction has work
        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            journal.compact(path)
        monkeypatch.undo()
        records, rejected = journal.load(path)
        assert len(records) == 3 and rejected == 0, journal.name


def test_concurrent_writers_interleave_safely(tmp_path):
    per_writer = 8
    for journal, path in journal_files(tmp_path):
        writers = [journal.writer(path) for _ in range(2)]

        def write(widx: int) -> None:
            for i in range(per_writer):
                writers[widx](widx * 1000 + i)

        threads = [threading.Thread(target=write, args=(w,)) for w in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records, rejected = journal.load(path)
        assert len(records) == 2 * per_writer, journal.name
        assert rejected == 0, journal.name
        assert_exact(journal, records, dict(
            journal.record(w * 1000 + i)
            for w in range(2) for i in range(per_writer)
        ))


def test_compaction_racing_appends_loses_nothing(tmp_path):
    """An append that waited on the lock of a file a compaction has
    since replaced must land in the new file, not the orphaned one."""
    n = 40
    for journal, path in journal_files(tmp_path):
        write = journal.writer(path)
        write(0)

        def append_all() -> None:
            for i in range(n):
                write(i % 20, elapsed=1.0 + i)  # duplicates: compaction has work

        writer = threading.Thread(target=append_all)
        writer.start()
        while writer.is_alive():
            journal.compact(path)
        writer.join(timeout=60)
        assert not writer.is_alive()
        records, rejected = journal.load(path)
        assert rejected == 0, journal.name
        assert_exact(journal, records, dict(
            journal.record(i % 20, elapsed=1.0 + i) for i in range(20, n)
        ))
        assert len(records) == 20, journal.name


@needs_hypothesis
@settings(max_examples=25, deadline=None)
@given(
    tags=st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True),
    garbage=st.binary(min_size=1, max_size=200),
    cut=st.floats(0.0, 1.0),
)
def test_any_tail_garbage_never_yields_a_wrong_answer(
    tmp_path_factory, tags, garbage, cut
):
    """Property: valid appends + arbitrary trailing bytes + an arbitrary
    truncation point -> every surviving record is exact, every lost one
    is a miss."""
    for journal, path in journal_files(tmp_path_factory.mktemp("chaos")):
        write = journal.writer(path)
        for t in tags:
            write(t)
        with open(path, "ab") as fh:
            fh.write(garbage)
        size = os.path.getsize(path)
        with open(path, "rb+") as fh:
            fh.truncate(max(0, round(size * cut)))
        records, _ = journal.load(path)
        assert_exact(journal, records, dict(journal.record(t) for t in tags))


# ----------------------------------------------------------------------
# fsync durability and needless rewrites
# ----------------------------------------------------------------------


class FsyncSpy:
    """Records fsync/replace ordering; tells directory fds from files."""

    def __init__(self, monkeypatch):
        self.events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            self.events.append(("fsync", kind))
            return real_fsync(fd)

        def spy_replace(src, dst):
            self.events.append(("replace", None))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)

    def dir_fsync_after_replace(self) -> bool:
        try:
            idx = self.events.index(("replace", None))
        except ValueError:
            return False
        return ("fsync", "dir") in self.events[idx + 1:]


def assert_compact_fsyncs_directory(journal, tmp_path, monkeypatch) -> None:
    """The wrapper's compaction makes the rename itself durable."""
    path = str(tmp_path / f"{journal.name}.jsonl")
    write = journal.writer(path)
    write(1)
    write(1, elapsed=2.0)  # a duplicate key: compaction has work
    spy = FsyncSpy(monkeypatch)
    assert journal.compact(path) == 1
    assert spy.dir_fsync_after_replace(), (journal.name, spy.events)


@needs_dir_fsync
def test_store_compact_fsyncs_directory_after_replace(tmp_path, monkeypatch):
    assert_compact_fsyncs_directory(StoreJournal(), tmp_path, monkeypatch)


@needs_dir_fsync
def test_checkpoint_compact_fsyncs_directory_after_replace(
    tmp_path, monkeypatch
):
    assert_compact_fsyncs_directory(CheckpointJournal(), tmp_path, monkeypatch)


@needs_dir_fsync
def test_corpus_compact_fsyncs_directory_after_replace(tmp_path, monkeypatch):
    assert_compact_fsyncs_directory(CorpusJournal(), tmp_path, monkeypatch)


@needs_dir_fsync
def test_append_creating_the_file_fsyncs_its_directory(tmp_path, monkeypatch):
    for journal, path in journal_files(tmp_path):
        write = journal.writer(path)
        spy = FsyncSpy(monkeypatch)
        write(1)
        assert ("fsync", "dir") in spy.events, journal.name
        del spy.events[:]
        write(2)
        assert spy.events == [("fsync", "file")], journal.name
        monkeypatch.undo()


def test_clean_compact_rewrites_nothing(tmp_path, monkeypatch):
    """One live line per key: no temp file, no fsync, no rename."""
    for journal, path in journal_files(tmp_path):
        write = journal.writer(path)
        write(1)
        write(2)
        before = os.stat(path)
        spy = FsyncSpy(monkeypatch)
        assert journal.compact(path) == 2
        monkeypatch.undo()
        assert spy.events == [], journal.name
        assert not os.path.exists(path + ".compact.tmp")
        assert os.stat(path).st_ino == before.st_ino
        assert os.stat(path).st_mtime_ns == before.st_mtime_ns


def test_fsync_dir_handles_relative_paths(tmp_path, monkeypatch):
    from repro.journal import fsync_dir

    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.jsonl").write_text("{}\n")
    fsync_dir("file.jsonl")  # must not raise on a bare filename
