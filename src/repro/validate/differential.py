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
all-reference mode.  Each run flag allows one compiled
program, so forcing the level-set program also puts the column-uniform
journals (lbm, soma) on it; the fourth combination — the column
program alone — equals production for those codes and the replay off
for every other.

:func:`observability_differential` holds a traced run with the whole
:mod:`repro.obs` pipeline driven over it to the plain run, and
:func:`executor_differential` holds every sweep executor backend to the
serial in-process one.  All three compare runs with
:func:`~repro.validate.golden.fingerprint_diff` and return its failure
lines — each names the check, the job, the mode, the first differing
record field and, where traces ran, the first differing trace record —
empty when conformant.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import asdict, dataclass
from typing import Optional

from repro.validate.golden import fingerprint, fingerprint_diff, named_job


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


def differential_run(
    benchmark: str,
    cluster: str,
    nprocs: int,
    suite: str = "tiny",
    sim_steps: Optional[int] = 8,
    trace_diff: bool = True,
    workers: bool = True,
) -> list[str]:
    """Run one job through the full flag matrix and hold every mode to
    the all-reference mode; returns the failure lines (empty = pass).

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

    bench, clus, label = named_job("differential", benchmark, cluster, nprocs)
    job = dict(suite=suite, sim_steps=sim_steps)
    modes = flag_matrix()
    fps = {
        mode: fingerprint(run(bench, clus, nprocs, **job, **asdict(mode)))
        for mode in modes
    }
    traces = {}
    if trace_diff:
        traces = {
            mode: run(
                bench, clus, nprocs, **job, trace=True, **asdict(mode)
            ).trace
            for mode in modes
            if not mode.fast_forward and not mode.wavefront
        }
    lines = [
        fingerprint_diff(
            f"{label} {mode.label}", fps[REFERENCE_MODE], fps[mode],
            (traces[REFERENCE_MODE], traces[mode]) if mode in traces else None,
        )
        for mode in modes
        if mode != REFERENCE_MODE
    ]
    if workers:
        spec = RunSpec(benchmark=bench, cluster=clus, nprocs=nprocs, **job)
        lines += [
            fingerprint_diff(
                f"{label} workers=2[{i}]", fps[DEFAULT_MODE], fingerprint(res)
            )
            for i, res in enumerate(run_many([spec] * 2, workers=2))
        ]
    return [line for line in lines if line]


# --- observability zero-perturbation differential ---------------------------


def observability_differential(
    benchmark: str,
    cluster: str,
    nprocs: int,
    suite: str = "tiny",
    sim_steps: Optional[int] = None,
    golden_dir: Optional[str] = None,
) -> list[str]:
    """Prove attaching observability does not perturb results; returns
    the failure lines (empty = pass).

    Runs the job twice — plain (production flags, fast-forward eligible)
    and with a full trace plus the complete :mod:`repro.obs` pipeline
    (timeline classification, both pattern detectors, all three
    exporters) driven over it — and requires the two result
    fingerprints to be bit-identical.  With ``golden_dir``, the traced
    run must also match the checked-in golden point when the job is part
    of the corpus (the traced run not only equals today's plain run, it
    equals the historical record); a corpus point missing from
    ``golden_dir`` is a failure.
    """
    from repro.harness.runner import run  # lazy: harness imports us

    bench, clus, label = named_job("observability", benchmark, cluster, nprocs)
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

    observed = fingerprint(traced)
    line = fingerprint_diff(
        f"{label} traced vs plain", fingerprint(plain), observed
    )
    failures = [line] if line else []
    if golden_dir is not None and sim_steps is None:
        from repro.machine.registry import get_cluster
        from repro.validate.golden import check_case, golden_cases

        for case in golden_cases():
            if (
                case.benchmark == bench.name
                and get_cluster(case.cluster).name == clus.name
                and case.nprocs == nprocs
                and case.suite == suite
            ):
                failures += [
                    f"{label} traced vs {line}"
                    for line in check_case(golden_dir, case, observed)
                ]
                break
    return failures


# --- executor differential --------------------------------------------------


def executor_differential(
    benchmark: str = "lbm",
    cluster: str = "A",
    proc_counts=(1, 2),
    suite: str = "tiny",
    sim_steps: Optional[int] = 1,
    executors=("serial", "local", "fabric"),
    fabric_workers: int = 2,
) -> list[str]:
    """Run one small grid through every executor backend and hold it to
    the in-process serial reference; returns the failure lines (empty =
    conformant).

    The executor contract (:mod:`repro.harness.executors`) is that the
    backend chooses *where* a spec runs, never *what* it computes: the
    result list must be field-for-field identical whether the points ran
    in this process, in a local pool, or on fabric workers across the
    network.  ``"fabric"`` here spins up an in-process manager on a
    loopback port with ``fabric_workers`` worker *threads* — same wire
    protocol and lease machinery as real cross-machine workers, no
    subprocess cost.
    """
    from repro.harness.fabric import FabricExecutor, worker_loop
    from repro.harness.parallel import RunSpec, run_many

    bench, clus, label = named_job("executor", benchmark, cluster)
    specs = [
        RunSpec(
            benchmark=bench, cluster=clus, nprocs=n, suite=suite,
            sim_steps=sim_steps, seed=1000 * n,
        )
        for n in proc_counts
    ]
    reference = [fingerprint(r) for r in run_many(specs, executor="serial")]

    lines = []
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
        lines += [
            fingerprint_diff(
                f"{label} {name} nprocs={spec.nprocs} seed={spec.seed}",
                ref, fingerprint(res),
            )
            for spec, ref, res in zip(specs, reference, results)
        ]
    return [line for line in lines if line]
