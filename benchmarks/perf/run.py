"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/perf/run.py --workload paper_scale --seed 0 \\
        --seconds 20 --trace 0 [--json runs.jsonl]

The workload is set up (its set-up time is the median of this process
and four fresh processes that only set up), then runs as many timed
passes as fit in ``--seconds`` at the reference host speed.  Every time
is in seconds at that speed: a fixed probe runs between operations and
rescales each pass (see ``clock.py``).  ``--trace 0`` reports the
end-to-end metrics declared in ``BENCHMARK.json``, each the median over
the passes.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, plus
``bench.trace_overhead`` (traced over untraced wall time, minus one).
Every output is checked; ``failed`` counts the operations whose output
was wrong or missing.

The last line of standard output is the result object; ``--json``
appends it, with the run's arguments, the host speed the probes saw
(and, traced, each job's self time per span), to a JSON-lines file for
``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import clock
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
DECLARATION = os.path.join(ROOT, "BENCHMARK.json")

#: fresh processes that only set up, besides this one
SETUP_CHILDREN = 4
SETUP_TIMEOUT_S = 120
#: host probes on each side of one process's set-up
SETUP_PROBES = 5


def bootstrap() -> bool:
    """Put the checkout's ``src`` on the path; False if there is none."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def declared() -> dict:
    with open(DECLARATION) as fh:
        return json.load(fh)


def layer_metrics(rec, p) -> dict[str, float]:
    """Per-layer numbers of one traced pass (see README.md)."""
    totals = rec.totals()

    def total(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def self_time(name):
        return totals.get(name, (0.0, 0.0, 0))[1]

    counts = rec.counts
    warmup = self_time("smpi.launch")
    m = {
        "smpi.launch_s": total("smpi.launch"),
        "des.warmup_s": warmup,
        "des.events_per_s": counts["des.events"] / warmup if warmup else 0.0,
        "predict.queries": totals.get("predict.query", (0, 0, 0))[2],
        "predict.profile_s": total("predict.profile"),
        "predict.analytic_s": self_time("predict.analytic"),
        "predict.surrogate_s": self_time("predict.surrogate"),
        "harness.checkpoint_load_s": (
            total("harness.checkpoint_load") + total("harness.checkpoint_compact")
        ),
    }
    for name in (
        "harness.run", "harness.execute", "harness.checkpoint_append",
        "wavefront.compile", "wavefront.replay", "fastforward.scalar_check",
        "fastforward.vector_compile", "fastforward.vector_replay",
        "dvfs.apply_frequency", "perfmon.energy_read", "predict.corpus_add",
        "serve.spec_key", "serve.store_get", "serve.store_put",
        "serve.store_load", "validate.fingerprint",
    ):
        m[f"{name}_s"] = total(name)
    for name in (
        "des.events", "des.heap_pushes", "des.runq_events",
        "des.peak_heap_size", "smpi.matching_ops", "tier.engaged_runs",
        "tier.declined_runs", "wavefront.levels", "wavefront.events_saved",
        "python.gc_s", "python.gc_gen2",
    ):
        m[name] = counts[name]
    for stage, seconds in p.stages.items():
        m[f"stage.{stage}_s"] = seconds
    m["bench.host_speed"] = p.factor
    m.update(p.layer)
    return m


def child_setup(args) -> float:
    """Set-up seconds of one fresh process that does nothing else."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--minisweep-nodes", str(args.minisweep_nodes)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=SETUP_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{out.stderr}")
    return float(out.stdout.split()[-1])


def make_workload(args, workloads):
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.PaperScale:
        return cls(args.seed, minisweep_nodes=args.minisweep_nodes)
    return cls(args.seed)


def one_pass(wl, rec, host):
    """One checked pass, traced when ``rec`` is a ``spans.Recorder``.
    Host probes bracket it; its wall time excludes the probes, and
    ``p.factor`` rescales it to the reference host speed."""
    traced = isinstance(rec, spans.Recorder)
    host.probe()
    first = len(host.samples) - 1
    t0 = time.perf_counter()
    with spans.traced(rec) if traced else contextlib.nullcontext():
        p = wl.run_pass(rec, host)
    p.wall_s = time.perf_counter() - t0 - sum(host.samples[first + 1:])
    host.probe()
    p.factor = host.factor(first)
    if traced:
        p.by_job = rec.by_job()
    wl.check(p)
    p.outputs = None  # keep peak RSS independent of the pass count
    return p


def run_passes(wl, seconds: float, trace: bool, host) -> list:
    """As many passes as fit in ``seconds`` at the reference host speed
    (at least one; with ``trace``, at least two, alternating untraced
    and traced).  Returns ``(pass, traced layer metrics or None)``
    pairs."""
    count = max(2 if trace else 1, int(seconds // wl.pass_s))
    out = []
    for i in range(count):
        traced = trace and i % 2 == 1
        rec = spans.Recorder() if traced else spans.NullRecorder()
        p = one_pass(wl, rec, host)
        out.append((p, layer_metrics(rec, p) if traced else None))
    return out


def summarize(passes, setups, trace: bool, decl: dict) -> dict:
    from workloads import percentile

    med = statistics.median
    walls = [p.wall_s * p.factor for p, layer in passes if layer is None]
    if trace:
        traced = [layer for _, layer in passes if layer is not None]
        # a layer the workload never reaches reads 0
        values = {m["name"]: 0.0 for m in decl["per_layer"]}
        values.update({name: med(layer[name] for layer in traced)
                       for name in traced[0]})
        values["bench.trace_overhead"] = (
            med(p.wall_s * p.factor for p, layer in passes if layer is not None)
            / med(walls) - 1.0
        )
        wanted = decl["per_layer"]
    else:
        values = {
            "setup_s": med(setups),
            "wall_s": med(walls),
            "op_p50_ms": med(1e3 * p.factor * percentile(p.latencies, 50)
                             for p, _ in passes),
            "op_p90_ms": med(1e3 * p.factor * percentile(p.latencies, 90)
                             for p, _ in passes),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        }
        wanted = decl["end_to_end"]
    failed = sum(len(p.failures) for p, _ in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p, _ in passes),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", metavar="OUT",
                    help="append the result record to this JSON-lines file")
    ap.add_argument("--minisweep-nodes", type=int, default=8,
                    help="paper_scale minisweep size (64 = the paper point)")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    host = clock.HostClock()
    for _ in range(SETUP_PROBES):
        host.probe()
    t0 = time.perf_counter()
    if not bootstrap():
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = make_workload(args, workloads)
    try:
        wl.setup()
        setup_s = time.perf_counter() - t0
        for _ in range(SETUP_PROBES):
            host.probe()
        setups = [setup_s * host.factor()]
        if args.setup_only:
            print(setups[0])
            return 0
        decl = declared()
        setups += [child_setup(args) for _ in range(SETUP_CHILDREN)]
        seconds = args.seconds or decl["run_seconds"]
        passes = run_passes(wl, seconds, bool(args.trace), host)
        result = summarize(passes, setups, bool(args.trace), decl)
    finally:
        wl.close()
    for p, _ in passes:
        for what in p.failures[:5]:
            print(f"FAILED: {what}", file=sys.stderr)
    if args.json:
        record = {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": seconds,
            "passes": len(passes), "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "host_speed": statistics.median(p.factor for p, _ in passes),
            **result,
        }
        if args.trace:
            record["by_job"] = next(p.by_job for p, layer in passes if layer)
        with open(args.json, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
