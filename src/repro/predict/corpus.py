"""The prediction corpus: completed DES runs the surrogate learns from.

One :class:`CorpusSample` per simulated point — the DES runtime and
energy for a ``(benchmark, cluster, suite, nnodes)`` query.  The file is
a :class:`repro.journal.Journal`: schema-stamped, locked fsynced
appends, a binary-safe load that skips (and counts) a torn tail,
last-record-wins per key, atomic :meth:`PredictionCorpus.compact`.

Only the calibrated registry machines (:func:`repro.machine.calibrated`)
are admitted, so a sample's ``cluster`` is always a registry name; its
key also carries the machine digest.

Two feeders fill it:

* :func:`corpus_from_golden` seeds a corpus from the golden fingerprint
  files under ``tests/golden`` (36 DES ground-truth points, hex-float
  encoded);
* Tier C (:func:`repro.predict.api.predict` escalating to the DES)
  appends every fresh simulation, so repeated queries get cheaper.

Schema history: 2 added the machine digest to the sample and its key;
older records are rejected on load and their points re-simulate.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

from repro.journal import Journal

#: Schema stamp written with every record (bump on incompatible change).
CORPUS_SCHEMA = 2


@dataclass(frozen=True)
class CorpusSample:
    """One completed DES run, reduced to what the surrogate needs."""

    benchmark: str
    cluster: str           # registry name ("ClusterA" / "ClusterB")
    suite: str
    nnodes: int
    nprocs: int
    threads: int
    elapsed: float         # DES full-run runtime [s]
    total_energy: float    # DES chip + DRAM energy [J]
    #: machine digest of the simulated cluster (default: the registry
    #: machine ``cluster`` names)
    machine: str = ""

    def __post_init__(self) -> None:
        if not self.machine:
            from repro.machine.registry import get_cluster

            object.__setattr__(
                self, "machine", get_cluster(self.cluster).machine_digest
            )

    @property
    def key(self) -> str:
        return sample_key(
            self.benchmark, self.cluster, self.machine, self.suite,
            self.nnodes, self.nprocs, self.threads,
        )

    @property
    def group(self) -> tuple[str, str, str, int]:
        """Interpolation group: one scaling curve."""
        return (self.benchmark, self.cluster, self.suite, self.threads)


def sample_key(
    benchmark: str, cluster: str, machine: str, suite: str,
    nnodes: int, nprocs: int, threads: int,
) -> str:
    """Stable identity digest of one corpus point (spec_key idiom)."""
    raw = "|".join(
        str(x)
        for x in (benchmark, cluster, machine, suite, nnodes, nprocs, threads)
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:24]


def _decode(doc: dict) -> tuple[str, CorpusSample]:
    if doc["kind"] != "sample":
        raise ValueError(f"unknown record kind {doc['kind']!r}")
    sample = CorpusSample(**doc["sample"])
    return sample.key, sample


JOURNAL = Journal(CORPUS_SCHEMA, _decode)


class PredictionCorpus:
    """In-memory sample set with optional JSONL persistence.

    ``path=None`` keeps the corpus ephemeral (one sweep's accumulation);
    with a path, construction loads every valid record (``rejected_lines``
    counts the rest) and :meth:`add` durably appends.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        loaded = JOURNAL.load(path)
        self._samples: dict[str, CorpusSample] = loaded.records
        self.rejected_lines = loaded.rejected

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples.values())

    def get(self, key: str) -> CorpusSample | None:
        return self._samples.get(key)

    def add(self, sample: CorpusSample) -> None:
        """Insert (or replace) one sample; durably appended when backed
        by a file."""
        self._samples[sample.key] = sample
        if self.path is not None:
            JOURNAL.append(self.path, {
                "kind": "sample", "key": sample.key, "sample": asdict(sample),
            })

    def add_run(self, result, cluster, threads: int) -> None:
        """Admit one DES run on ``cluster`` — only if it is a calibrated
        machine (:func:`repro.machine.calibrated`): the corpus describes
        the registry machines, and a re-clocked ClusterA keeps the name
        but would overwrite the nominal point."""
        from repro.machine.registry import calibrated

        name = calibrated(cluster)
        if name is not None:
            self.add(CorpusSample(
                benchmark=result.benchmark, cluster=name, suite=result.suite,
                nnodes=result.nnodes, nprocs=result.nprocs, threads=threads,
                elapsed=result.elapsed,
                total_energy=result.energy.total_energy,
                machine=cluster.machine_digest,
            ))

    def group(self, group: tuple) -> list[CorpusSample]:
        """Samples of one scaling curve, sorted by node count."""
        return sorted(
            (s for s in self._samples.values() if s.group == group),
            key=lambda s: s.nnodes,
        )

    def groups(self) -> list[tuple]:
        return sorted({s.group for s in self._samples.values()})

    def compact(self) -> int:
        """Atomically fold the backing file to one line per key.
        Returns the number of samples kept; memory-only corpora no-op."""
        if self.path is None:
            return len(self._samples)
        return JOURNAL.compact(self.path)


def corpus_from_golden(
    golden_dir: str, scales: tuple[int, ...] = (1, 4), path: str | None = None
) -> PredictionCorpus:
    """Seed a corpus from the golden DES fingerprints.

    Missing files are skipped (a partially regenerated golden tree still
    seeds what it has).
    """
    from repro.validate.golden import golden_cases, load_fingerprint

    corpus = PredictionCorpus(path)
    for case in golden_cases(scales=scales):
        try:
            fp = load_fingerprint(golden_dir, case)
        except FileNotFoundError:
            continue
        rec = fp.record
        energy = rec["energy"]
        corpus.add(CorpusSample(
            benchmark=rec["benchmark"],
            cluster=rec["cluster"],
            suite=case.suite,
            nnodes=int(rec["nnodes"]),
            nprocs=int(rec["nprocs"]),
            threads=1,
            elapsed=float.fromhex(rec["elapsed"]),
            total_energy=(
                float.fromhex(energy["chip_energy"])
                + float.fromhex(energy["dram_energy"])
            ),
        ))
    return corpus
