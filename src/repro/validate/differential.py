"""Cross-mode differential conformance.

The engine carries several "same answer, different algorithm" pairs: the
indexed mailbox matcher vs the linear scan, the steady-state replay's
two compiled programs vs full stepping, and the parallel sweep executor
vs the serial loop.  Every pair claims
bit-identical results; this module is where that claim is *checked*
rather than assumed.  (The DES run-queue fast path is held to the
pure-heap engine by the engine-level tests and, at run level, by the
schedule-perturbation sanitizer, which always runs pure-heap; the
per-run phase-cost cache is held to fresh pricing by a model-level
property test.)

:func:`differential_run` executes one job in every mode of the flag
matrix (6 = matcher × replay, the replay being off / the level-set
program forced / the production choice) plus a workers>1 sweep,
fingerprints each (see :mod:`repro.validate.golden`), and — for the
trace-compatible subset — diffs complete event timelines against the
all-reference mode, reporting the first mismatching trace record with
its mode, rank, time, and kind.  Each run flag allows one compiled
program, so forcing the level-set program also puts the column-uniform
journals (lbm, soma) on it; the fourth combination — the column
program alone — equals production for those codes and the replay off
for every other.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import asdict, dataclass
from typing import Optional, Union

from repro.machine.cluster import ClusterSpec
from repro.spechpc.base import Benchmark
from repro.validate.golden import fingerprint, record_diff


@dataclass(frozen=True)
class Mode:
    """One engine configuration of the flag matrix (its fields are the
    :func:`~repro.harness.runner.run` keyword arguments)."""

    matcher: str
    fast_forward: bool
    wavefront: bool = False

    @property
    def label(self) -> str:
        flags = [f for f, on in (("ff", self.fast_forward),
                                 ("wf", self.wavefront)) if on]
        return "+".join([self.matcher, *(flags or ["noff"])])


#: The all-reference mode every other mode is diffed against: linear
#: matcher, full stepping.
REFERENCE_MODE = Mode(matcher="linear", fast_forward=False, wavefront=False)

#: The production default.
DEFAULT_MODE = Mode(matcher="indexed", fast_forward=True, wavefront=True)

#: Replay axis of the matrix as ``(fast_forward, wavefront)``: replay
#: off, the level-set program forced, the production choice.
_TIERS = ((False, False), (False, True), (True, True))


def flag_matrix() -> list[Mode]:
    """All 6 engine modes, reference first."""
    return [
        Mode(matcher=m, fast_forward=ff, wavefront=wf)
        for m, (ff, wf) in itertools.product(("linear", "indexed"), _TIERS)
    ]


@dataclass(frozen=True)
class ModeMismatch:
    """One mode whose result differs from the reference."""

    mode: str
    #: first differing canonical-record field
    field: str
    #: first differing trace record, or None if the mode is not
    #: trace-comparable / the timelines agree
    first_event: Optional[str]

    def summary(self) -> str:
        msg = f"{self.mode}: {self.field}"
        if self.first_event:
            msg += f"; first mismatching trace record: {self.first_event}"
        return msg


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one full-matrix differential run."""

    benchmark: str
    cluster: str
    nprocs: int
    suite: str
    modes: int
    reference_digest: str
    mismatches: tuple[ModeMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        head = (
            f"{self.benchmark} on {self.cluster} nprocs={self.nprocs}: "
            f"{self.modes} mode(s)"
        )
        if self.ok:
            return f"{head} — conformant"
        lines = [f"{head} — {len(self.mismatches)} MISMATCH(ES)"]
        lines += ["  " + m.summary() for m in self.mismatches]
        return "\n".join(lines)


def _first_trace_diff(ref, other) -> Optional[str]:
    """First differing record between two full traces (both are emitted
    in deterministic per-rank program order; compared rank-major)."""
    a = sorted((iv.rank, iv.t0, iv.t1, iv.kind) for iv in ref.intervals)
    b = sorted((iv.rank, iv.t0, iv.t1, iv.kind) for iv in other.intervals)
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            return (
                f"record #{i}: reference rank={ea[0]} t0={ea[1]:.9g} "
                f"t1={ea[2]:.9g} kind={ea[3]} vs rank={eb[0]} "
                f"t0={eb[1]:.9g} t1={eb[2]:.9g} kind={eb[3]}"
            )
    if len(a) != len(b):
        return f"record #{min(len(a), len(b))}: {len(a)} vs {len(b)} records"
    return None


def differential_run(
    benchmark: Union[str, Benchmark],
    cluster: Union[str, ClusterSpec],
    nprocs: int,
    suite: str = "tiny",
    sim_steps: Optional[int] = 8,
    trace_diff: bool = True,
    workers: bool = True,
) -> DifferentialReport:
    """Run one job through the full flag matrix and diff everything
    against the all-reference mode.

    ``sim_steps`` defaults to 8, past the replay's 3-step minimum, so
    the replay axis compares a replay with the full DES; a benchmark's
    own default (2 steps for some codes) would decline the replay up
    front and compare the full DES with itself.

    ``trace_diff`` additionally replays the two replay-off modes with
    full traces and compares complete timelines (tracing forces the
    replay off, so replay modes have no distinct traced flavor).
    ``workers`` adds a ``run_many(workers=2)`` sweep asserting the
    process-pool path returns the same fingerprints as in-process runs.
    """
    from repro.harness.parallel import RunSpec, run_many
    from repro.harness.runner import run  # lazy: harness imports us
    from repro.machine.registry import get_cluster
    from repro.spechpc.suite import get_benchmark

    bench = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
    clus = get_cluster(cluster) if isinstance(cluster, str) else cluster

    modes = flag_matrix()
    results = {
        mode: run(
            bench, clus, nprocs, suite=suite, sim_steps=sim_steps,
            **asdict(mode),
        )
        for mode in modes
    }
    fps = {mode: fingerprint(res) for mode, res in results.items()}
    ref_fp = fps[REFERENCE_MODE]

    traces = {}
    if trace_diff:
        traces = {
            mode: run(
                bench, clus, nprocs, suite=suite, sim_steps=sim_steps,
                trace=True, **asdict(mode),
            ).trace
            for mode in modes
            if not mode.fast_forward and not mode.wavefront
        }

    mismatches: list[ModeMismatch] = []
    for mode in modes:
        if mode == REFERENCE_MODE:
            continue
        fp = fps[mode]
        if fp == ref_fp:
            continue
        field = record_diff(ref_fp.record, fp.record) or "<digest only>"
        first = None
        base_mode = Mode(matcher=mode.matcher, fast_forward=False)
        if base_mode in traces:
            first = _first_trace_diff(traces[REFERENCE_MODE], traces[base_mode])
        mismatches.append(
            ModeMismatch(mode=mode.label, field=field, first_event=first)
        )
    if trace_diff:
        # fingerprint-equal modes must also be trace-equal (a compensating
        # pair of errors could cancel in the aggregates)
        for mode, trace in traces.items():
            if mode == REFERENCE_MODE or any(
                m.mode == mode.label for m in mismatches
            ):
                continue
            first = _first_trace_diff(traces[REFERENCE_MODE], trace)
            if first:
                mismatches.append(
                    ModeMismatch(
                        mode=mode.label,
                        field="<aggregates equal, timelines differ>",
                        first_event=first,
                    )
                )

    nmodes = len(modes)
    if workers:
        specs = [
            RunSpec(benchmark=bench, cluster=clus, nprocs=nprocs, suite=suite,
                    sim_steps=sim_steps)
        ] * 2
        pooled = run_many(specs, workers=2)
        nmodes += 1
        default_fp = fps[DEFAULT_MODE]
        for i, res in enumerate(pooled):
            fp = fingerprint(res)
            if fp != default_fp:
                field = record_diff(default_fp.record, fp.record) or "<digest only>"
                mismatches.append(
                    ModeMismatch(
                        mode=f"workers=2[{i}]", field=field, first_event=None
                    )
                )

    return DifferentialReport(
        benchmark=bench.name,
        cluster=clus.name,
        nprocs=nprocs,
        suite=suite,
        modes=nmodes,
        reference_digest=ref_fp.digest,
        mismatches=tuple(mismatches),
    )


# --- observability zero-perturbation differential ---------------------------


@dataclass(frozen=True)
class ObservabilityReport:
    """Outcome of one observability zero-perturbation check."""

    benchmark: str
    cluster: str
    nprocs: int
    suite: str
    plain_digest: str
    observed_digest: str
    #: the checked-in golden digest, when a golden corpus was consulted
    golden_digest: Optional[str]
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        head = (
            f"{self.benchmark} on {self.cluster} nprocs={self.nprocs}: "
            "observability differential"
        )
        if self.ok:
            return f"{head} — zero-perturbation"
        lines = [f"{head} — {len(self.mismatches)} MISMATCH(ES)"]
        lines += ["  " + m for m in self.mismatches]
        return "\n".join(lines)


def observability_differential(
    benchmark: Union[str, Benchmark],
    cluster: Union[str, ClusterSpec],
    nprocs: int,
    suite: str = "tiny",
    sim_steps: Optional[int] = None,
    golden_dir: Optional[str] = None,
) -> ObservabilityReport:
    """Prove attaching observability does not perturb results.

    Runs the job twice — plain (production flags, fast-forward eligible)
    and with a full trace plus the complete :mod:`repro.obs` pipeline
    (timeline classification, both pattern detectors, metrics snapshot,
    all three exporters) driven over it — and asserts the two result
    fingerprints are bit-identical.  With ``golden_dir``, both must also
    match the checked-in golden digest when the point is part of the
    corpus (the traced run not only equals today's plain run, it equals
    the historical record).
    """
    from repro.harness.runner import run  # lazy: harness imports us
    from repro.machine.registry import get_cluster
    from repro.spechpc.suite import get_benchmark

    bench = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
    clus = get_cluster(cluster) if isinstance(cluster, str) else cluster

    plain = run(bench, clus, nprocs, suite=suite, sim_steps=sim_steps)
    traced = run(bench, clus, nprocs, suite=suite, sim_steps=sim_steps,
                 trace=True)

    # drive the whole observability pipeline — every derived artifact is
    # built from the finished run, so none of this may move the result
    from repro.obs import chrome_trace_json, observe, render_svg_timeline

    obs = observe(traced)
    obs.report()
    chrome_trace_json(obs.timelines)
    render_svg_timeline(obs.timelines)

    fp_plain = fingerprint(plain)
    fp_traced = fingerprint(traced)
    mismatches: list[str] = []
    if fp_traced != fp_plain:
        field = record_diff(fp_plain.record, fp_traced.record) or "<digest only>"
        mismatches.append(f"traced vs plain: {field}")

    golden_digest: Optional[str] = None
    if golden_dir is not None:
        from repro.validate.golden import golden_cases, load_fingerprint

        for case in golden_cases():
            if (
                case.benchmark == bench.name
                and get_cluster(case.cluster).name == clus.name
                and case.nprocs == nprocs
                and case.suite == suite
                and sim_steps is None
            ):
                golden = load_fingerprint(golden_dir, case)
                golden_digest = golden.digest
                if fp_traced.digest != golden.digest:
                    mismatches.append(
                        f"traced vs golden {case.slug}: digest "
                        f"{fp_traced.digest[:16]}… != {golden.digest[:16]}…"
                    )
                break

    return ObservabilityReport(
        benchmark=bench.name,
        cluster=clus.name,
        nprocs=nprocs,
        suite=suite,
        plain_digest=fp_plain.digest,
        observed_digest=fp_traced.digest,
        golden_digest=golden_digest,
        mismatches=tuple(mismatches),
    )


# --- executor differential --------------------------------------------------


@dataclass(frozen=True)
class ExecutorMismatch:
    """One spec whose result differs between an executor and the serial
    in-process reference."""

    executor: str
    nprocs: int
    seed: int
    field: str

    def summary(self) -> str:
        return (
            f"{self.executor}: nprocs={self.nprocs} seed={self.seed} "
            f"differs at {self.field}"
        )


def executor_differential(
    benchmark: Union[str, Benchmark] = "lbm",
    cluster: Union[str, ClusterSpec] = "A",
    proc_counts=(1, 2),
    suite: str = "tiny",
    sim_steps: Optional[int] = 1,
    executors=("serial", "local", "fabric"),
    fabric_workers: int = 2,
) -> list[ExecutorMismatch]:
    """Run one small grid through every executor backend and compare
    fingerprints against the in-process serial reference.

    The executor contract (:mod:`repro.harness.executors`) is that the
    backend chooses *where* a spec runs, never *what* it computes: the
    result list must be field-for-field identical whether the points ran
    in this process, in a local pool, or on fabric workers across the
    network.  ``"fabric"`` here spins up an in-process manager on a
    loopback port with ``fabric_workers`` worker *threads* — same wire
    protocol and lease machinery as real cross-machine workers, no
    subprocess cost.  Returns the mismatches (empty = conformant).
    """
    from repro.harness.fabric import FabricExecutor, worker_loop
    from repro.harness.parallel import RunSpec, run_many
    from repro.machine.registry import get_cluster
    from repro.spechpc.suite import get_benchmark

    bench = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
    clus = get_cluster(cluster) if isinstance(cluster, str) else cluster

    specs = [
        RunSpec(
            benchmark=bench, cluster=clus, nprocs=n, suite=suite,
            sim_steps=sim_steps, seed=1000 * n,
        )
        for n in proc_counts
    ]
    reference = [fingerprint(r) for r in run_many(specs, executor="serial")]

    mismatches: list[ExecutorMismatch] = []
    for name in executors:
        if name == "fabric":
            ex = FabricExecutor(("127.0.0.1", 0))
            host, port = ex.address
            threads = [
                threading.Thread(
                    target=worker_loop,
                    args=(host, port),
                    kwargs={"name": f"diff-{i}", "reconnect": 5.0},
                    daemon=True,
                )
                for i in range(fabric_workers)
            ]
            for t in threads:
                t.start()
            try:
                results = run_many(specs, executor=ex)
            finally:
                ex.shutdown()
            for t in threads:
                t.join(timeout=10.0)
        else:
            results = run_many(specs, workers=2, executor=name)
        for spec, ref, res in zip(specs, reference, results):
            fp = fingerprint(res)
            if fp == ref:
                continue
            field = record_diff(ref.record, fp.record) or "<digest only>"
            mismatches.append(
                ExecutorMismatch(
                    executor=name, nprocs=spec.nprocs, seed=spec.seed,
                    field=field,
                )
            )
    return mismatches
