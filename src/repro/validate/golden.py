"""Golden result fingerprints.

A *fingerprint* is a stable SHA-256 digest over a canonical record of
everything a run's result asserts about the model: full-run runtime,
per-rank compute/wait breakdown, message counts and bytes, and the
energy reading.  Floats are encoded with :meth:`float.hex` so the record
is exact — two fingerprints are equal iff the results are bit-identical
— and cross-platform, since the pricing model is pure IEEE-754 double
arithmetic with no platform-dependent libm calls in the hashed fields.

Every check in :mod:`repro.validate` decides "do these two runs agree,
and if not, where?" with one function, :func:`fingerprint_diff`: it
compares two fingerprints and returns one failure line — the check's
label, both digest prefixes, the first differing canonical-record field
(:func:`record_diff`) and, given the two runs' traces, the first
differing trace record (:func:`first_trace_diff`) — or ``None`` when
they agree.  The checks collect those lines: an empty list is a pass.

The golden corpus lives in ``tests/golden/`` as one JSON file per
(benchmark, cluster, scale) case: all nine Table 1 benchmarks × both
clusters at 1-node and 4-node scale.  :func:`check_case` holds a run to
its checked-in point, so "a golden changed" comes with "and here is
exactly what changed".

Regeneration (``repro validate --regen``) refuses to run on a dirty git
tree: a golden update must be attributable to exactly one commit's code
change, never to uncommitted local state.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Union

from repro.harness.results import RunResult
from repro.machine.registry import get_cluster
from repro.spechpc.suite import SUITE_ORDER, get_benchmark

#: Bump on incompatible canonical-record change (forces full regen).
SCHEMA_VERSION = 1

#: Cluster short names in corpus order.
CLUSTER_NAMES = ("A", "B")

#: Node counts covered by the checked-in corpus.
DEFAULT_SCALES = (1, 4)

#: The checked-in corpus: the default ``--golden-dir`` of every command.
GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))),
    "tests",
    "golden",
)


def _hex(x: float) -> str:
    """Exact, platform-independent float encoding."""
    return float(x).hex()


def canonical_record(result: RunResult) -> dict[str, Any]:
    """The canonical (deterministically ordered, exactly encoded) view of
    a :class:`RunResult` that the fingerprint hashes.

    Dict-valued fields are emitted with sorted keys and per-rank arrays
    in rank order, so the record is independent of accumulation order;
    ``rank_wait`` sums the MPI_* kinds per rank in sorted-kind order for
    the same reason.
    """
    counters = {k: _hex(result.counters[k]) for k in sorted(result.counters)}
    time_by_kind = {
        k: _hex(result.time_by_kind[k]) for k in sorted(result.time_by_kind)
    }
    rank_compute: list[str] = []
    rank_wait: list[str] = []
    for per_rank in result.rank_times or ():
        rank_compute.append(_hex(per_rank.get("compute", 0.0)))
        wait = 0.0
        for kind in sorted(per_rank):
            if kind.startswith("MPI_"):
                wait += per_rank[kind]
        rank_wait.append(_hex(wait))
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": result.benchmark,
        "cluster": result.cluster,
        "suite": result.suite,
        "nprocs": result.nprocs,
        "nnodes": result.nnodes,
        "elapsed": _hex(result.elapsed),
        "sim_elapsed": _hex(result.sim_elapsed),
        "step_scale": _hex(result.step_scale),
        "counters": counters,
        "time_by_kind": time_by_kind,
        "energy": {
            "elapsed": _hex(result.energy.elapsed),
            "chip_energy": _hex(result.energy.chip_energy),
            "dram_energy": _hex(result.energy.dram_energy),
        },
        "rank_compute": rank_compute,
        "rank_wait": rank_wait,
    }


@dataclass(frozen=True)
class Fingerprint:
    """A digest plus the canonical record it was computed from."""

    digest: str
    record: dict[str, Any]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fingerprint):
            return self.digest == other.digest
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.digest)


def fingerprint(result: RunResult) -> Fingerprint:
    """Fingerprint a run result (see module docstring for the contract)."""
    import hashlib

    record = canonical_record(result)
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return Fingerprint(
        digest=hashlib.sha256(payload.encode()).hexdigest(), record=record
    )


def record_diff(a: dict[str, Any], b: dict[str, Any]) -> Optional[str]:
    """First differing path between two canonical records, as
    ``"path: a-value != b-value"`` — or ``None`` if identical.

    Walks keys in sorted order so the reported field is deterministic.
    """

    def walk(x: Any, y: Any, path: str) -> Optional[str]:
        if type(x) is not type(y):
            return f"{path}: type {type(x).__name__} != {type(y).__name__}"
        if isinstance(x, dict):
            for k in sorted(set(x) | set(y)):
                if k not in x:
                    return f"{path}.{k}: missing on left"
                if k not in y:
                    return f"{path}.{k}: missing on right"
                found = walk(x[k], y[k], f"{path}.{k}")
                if found:
                    return found
            return None
        if isinstance(x, list):
            if len(x) != len(y):
                return f"{path}: length {len(x)} != {len(y)}"
            for i, (xi, yi) in enumerate(zip(x, y)):
                found = walk(xi, yi, f"{path}[{i}]")
                if found:
                    return found
            return None
        if x != y:
            detail = ""
            if isinstance(x, str) and isinstance(y, str):
                try:  # show hex floats as numbers too
                    detail = f" ({float.fromhex(x):.12g} vs {float.fromhex(y):.12g})"
                except ValueError:
                    pass
            return f"{path}: {x!r} != {y!r}{detail}"
        return None

    return walk(a, b, "record")


def first_trace_diff(a: Any, b: Any) -> Optional[str]:
    """First differing record between two full traces, or ``None``.

    Per rank, intervals are recorded in program order and a rank's
    program is deterministic, so sorting by (rank, t0, t1, kind) gives
    the same sequence for every legal schedule of a well-formed model:
    the comparison is rank-major and schedule-independent.
    """
    ea = sorted((iv.rank, iv.t0, iv.t1, iv.kind) for iv in a.intervals)
    eb = sorted((iv.rank, iv.t0, iv.t1, iv.kind) for iv in b.intervals)
    for i, (x, y) in enumerate(zip(ea, eb)):
        if x != y:
            return (
                f"#{i}: rank={x[0]} t0={x[1]:.9g} t1={x[2]:.9g} kind={x[3]} "
                f"vs rank={y[0]} t0={y[1]:.9g} t1={y[2]:.9g} kind={y[3]}"
            )
    if len(ea) != len(eb):
        return f"#{min(len(ea), len(eb))}: {len(ea)} vs {len(eb)} records"
    return None


def fingerprint_diff(
    label: str,
    expected: Fingerprint,
    actual: Fingerprint,
    traces: Union[tuple, Callable[[], tuple], None] = None,
) -> Optional[str]:
    """The one comparison of two runs: ``None`` if they agree, else one
    failure line ``"<label>: expected <digest>…, got <digest>…; first
    difference: <field>[; first differing trace record: <record>]"``.

    ``traces`` — an ``(expected, actual)`` pair of traces, or a
    zero-argument callable returning one — localizes a mismatch to a
    trace record.  A pair already run is always compared, so
    fingerprint-equal runs whose timelines differ fail too (compensating
    errors can cancel in the aggregates).  A callable is called only on
    a fingerprint mismatch: the replay with traces that diagnoses it
    costs engine runs a match does not need.
    """
    if expected == actual:
        if traces is None or callable(traces):
            return None
        trace_diff = first_trace_diff(*traces)
        if trace_diff is None:
            return None
        field = "none (aggregates equal, timelines differ)"
    else:
        field = record_diff(expected.record, actual.record) or "digest only"
        if callable(traces):
            traces = traces()
        trace_diff = first_trace_diff(*traces) if traces else None
    line = (
        f"{label}: expected {expected.digest[:16]}…, got "
        f"{actual.digest[:16]}…; first difference: {field}"
    )
    if trace_diff:
        line += f"; first differing trace record: {trace_diff}"
    return line


def named_job(check: str, benchmark: str, cluster: str,
              nprocs: Optional[int] = None):
    """-> ``(Benchmark, ClusterSpec, label)`` for a check of one job
    named by benchmark and cluster; ``label`` heads the check's failure
    lines."""
    bench, clus = get_benchmark(benchmark), get_cluster(cluster)
    label = f"{check} {bench.name} on {clus.name}"
    if nprocs is not None:
        label += f" nprocs={nprocs}"
    return bench, clus, label


# --- the golden corpus -------------------------------------------------------


@dataclass(frozen=True)
class GoldenCase:
    """One (benchmark, cluster, scale) point of the golden corpus."""

    benchmark: str
    cluster: str
    nnodes: int
    nprocs: int
    suite: str = "tiny"

    @property
    def slug(self) -> str:
        return f"{self.benchmark}_{self.cluster}_{self.nnodes}node"


def golden_cases(scales: tuple[int, ...] = DEFAULT_SCALES) -> Iterator[GoldenCase]:
    """All corpus cases: 9 benchmarks × 2 clusters × the given scales,
    fully populated nodes (nprocs = nnodes × cores/node)."""
    for name in SUITE_ORDER:
        for cname in CLUSTER_NAMES:
            cluster = get_cluster(cname)
            for nnodes in scales:
                yield GoldenCase(
                    benchmark=name,
                    cluster=cname,
                    nnodes=nnodes,
                    nprocs=nnodes * cluster.cores_per_node,
                )


def case_path(golden_dir: str, case: GoldenCase) -> str:
    return os.path.join(golden_dir, f"{case.slug}.json")


def run_case(case: GoldenCase) -> RunResult:
    """Execute one golden case with the default (production) flags."""
    from repro.harness.runner import run  # lazy: keep import layering light

    return run(
        get_benchmark(case.benchmark),
        get_cluster(case.cluster),
        case.nprocs,
        suite=case.suite,
    )


def compute_fingerprint(case: GoldenCase) -> Fingerprint:
    return fingerprint(run_case(case))


def save_fingerprint(golden_dir: str, case: GoldenCase, fp: Fingerprint) -> str:
    os.makedirs(golden_dir, exist_ok=True)
    path = case_path(golden_dir, case)
    doc = {"digest": fp.digest, "record": fp.record}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_fingerprint(golden_dir: str, case: GoldenCase) -> Fingerprint:
    path = case_path(golden_dir, case)
    with open(path) as fh:
        doc = json.load(fh)
    return Fingerprint(digest=doc["digest"], record=doc["record"])


def check_case(
    golden_dir: str, case: GoldenCase, actual: Fingerprint
) -> list[str]:
    """Hold ``actual`` to the checked-in golden point of ``case``;
    ``[]`` on a match.  A point missing from ``golden_dir`` is a
    failure line too."""
    label = f"golden {case.slug}"
    try:
        expected = load_fingerprint(golden_dir, case)
    except FileNotFoundError:
        return [
            f"{label}: no checked-in fingerprint in {golden_dir} "
            "(run `repro validate --regen`)"
        ]
    line = fingerprint_diff(label, expected, actual)
    return [line] if line else []


# --- regeneration ------------------------------------------------------------


class DirtyTreeError(RuntimeError):
    """Refusing to regenerate goldens on a dirty git tree."""


def tree_is_dirty(root: str) -> bool:
    """True if tracked files under ``root`` have uncommitted changes.

    Untracked files are ignored (the regen itself creates golden files
    that may be untracked on first run).  A missing git binary or a
    non-repo directory counts as dirty: no provenance, no regen.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return True
    if out.returncode != 0:
        return True
    return bool(out.stdout.strip())


def regenerate(
    golden_dir: str,
    scales: tuple[int, ...] = DEFAULT_SCALES,
    force: bool = False,
    repo_root: Optional[str] = None,
) -> list[str]:
    """Recompute and write every corpus fingerprint.

    Refuses on a dirty tree unless ``force=True`` — a golden update must
    be attributable to exactly one commit.  Returns the written paths.
    """
    root = repo_root or os.path.dirname(os.path.abspath(golden_dir))
    if not force and tree_is_dirty(root):
        raise DirtyTreeError(
            "git tree is dirty — commit (or stash) code changes before "
            "regenerating goldens so every golden update is attributable "
            "to one commit; use --force to override"
        )
    return [
        save_fingerprint(golden_dir, case, compute_fingerprint(case))
        for case in golden_cases(scales)
    ]
