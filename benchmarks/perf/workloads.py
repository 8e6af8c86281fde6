"""The four benchmark workloads and the checks on their outputs.

Each workload is built from ``--seed`` (the program only receives the
generated inputs), sets itself up once per process, and then runs timed
*passes*.  A pass returns one latency per operation, the time of each
stage, and the raw outputs; :meth:`Workload.check` verifies
those outputs afterwards, outside the timed region and outside any
traced span.

Outputs are checked against fixed answers only: a DES result whose spec
is a ``tests/golden`` case against that case's fingerprint, every other
deterministic output against a digest pinned in ``expected.json``
(written by ``pin.py``, which first proves each DES answer bit-identical
to the reference engine flags).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace

from repro.analysis import energy
from repro.harness import runner, sweep
from repro.machine.registry import get_cluster
from repro.model.dvfs import frequency_grid
from repro.predict import api
from repro.predict.corpus import corpus_from_golden
from repro.serve import ServeApp, ServeClient, loopback_server
from repro.serve.client import ServeError
from repro.serve.store import ResultStore
from repro.spechpc.suite import SUITE_ORDER, get_benchmark
from repro.validate import golden

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: scratch space for checkpoints, stores and corpora (inside the checkout)
SCRATCH_DIR = os.path.join(ROOT, ".perfbench")

CLUSTERS = ("A", "B")

#: paper_scale jobs: (benchmark, nodes, sim_steps).  lbm engages the
#: synchronized replay tier, weather and minisweep the wavefront tier.
#: minisweep's pre-decision DES steps cost ~0.6 s per node, so it runs
#: at 8 nodes to keep a pass near 10 s; ``--minisweep-nodes 64`` gives
#: the full paper point (~38 s).
PAPER_JOBS = (("lbm", 64, 128), ("weather", 64, 128), ("minisweep", 8, 40))

#: node_sweep: the DES DVFS grid (1 node, ClusterA) and the sweep stride.
#: Every 16th rank count keeps a pass near 6 s; offsets 2..7 never hit 1
#: or a full node, so every seed sweeps the same number of points.
DVFS_CODES = ("weather", "soma", "lbm", "minisweep")
SWEEP_STRIDE = 16
SWEEP_OFFSETS = range(2, 8)

#: predict_grid: the paper grid repeated this many times per pass, and
#: the analytic DVFS grid of bench_scenarios.py (benchmark, nodes)
GRID_NODES = (1, 2, 4, 8, 16, 32, 64)
GRID_REPEATS = 10
DVFS_GRID = (("weather", 1), ("soma", 4), ("lbm", 1), ("minisweep", 1))

#: serve_mixed: 12 warm 1-node specs; each pass sends every one of them
#: 85 warm repeats, 10 max_band predictions and 5 cold DES runs (a
#: fresh seed), shuffled — 1200 requests, composition fixed, order seeded
SERVE_CODES = ("lbm", "soma", "tealeaf", "minisweep", "pot3d", "weather")
SERVE_MIX = {"warm": 85, "predict": 10, "cold": 5}
MAX_BAND = 0.25
#: seeds of cold specs start here; predictions use seeds below it, so
#: a prediction never hits a cold answer the store has kept
COLD_SEED_BASE = 1_000_000


def value_digest(*values: float) -> str:
    """Exact digest of a tuple of floats (hex-encoded, like golden)."""
    text = ",".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_key(bench: str, cluster: str, nprocs: int) -> str:
    return f"{bench}/{cluster}/{nprocs}"


def dvfs_key(prefix: str, bench: str, nnodes: int, hz: float) -> str:
    return f"{prefix}/{bench}/{nnodes}/{hz / 1e9:.4f}"


def prediction_digest(pred) -> str:
    return value_digest(pred.runtime, pred.energy.chip_energy,
                        pred.energy.dram_energy)


def point_digest(point) -> str:
    return value_digest(point.elapsed, point.chip_energy, point.dram_energy)


def scratch_dir(prefix: str) -> str:
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH_DIR)


def drop_scratch(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(SCRATCH_DIR)  # only when no other run is using it
    except OSError:
        pass


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Oracle:
    """Fixed answers: golden fingerprints plus ``expected.json`` pins."""

    def __init__(self) -> None:
        self.golden: dict[str, tuple[str, float]] = {}
        for path in glob.glob(os.path.join(GOLDEN_DIR, "*_[AB]_*node.json")):
            with open(path) as fh:
                doc = json.load(fh)
            rec = doc["record"]
            key = run_key(rec["benchmark"], rec["cluster"][-1], rec["nprocs"])
            self.golden[key] = (doc["digest"], float.fromhex(rec["elapsed"]))
        with open(EXPECTED_PATH) as fh:
            self.pins: dict[str, str] = json.load(fh)["digests"]

    def run_ok(self, key: str, result) -> bool:
        digest = golden.fingerprint(result).digest
        if key in self.golden:
            return digest == self.golden[key][0]
        return digest[:16] == self.pins.get(key)

    def pin_ok(self, key: str, digest: str) -> bool:
        return self.pins.get(key) == digest


@dataclass
class Pass:
    """One timed pass: what ``run.py`` reports, plus outputs to check."""

    clock: object = None
    wall_s: float = 0.0
    #: reference-speed seconds per measured second (``clock.py``)
    factor: float = 1.0
    latencies: list = field(default_factory=list)
    stages: dict = field(default_factory=dict)
    #: per-layer numbers the workload observes itself (not from spans)
    layer: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    #: traced passes: job -> span name -> self seconds
    by_job: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def op(self, stage: str, fn, *args, **kwargs):
        """Run one timed operation of ``stage`` (probing the host first,
        if a probe is due) and return its result."""
        self.clock.tick()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        self.stages[stage] = self.stages.get(stage, 0.0) + dt
        return out

    def expect(self, ok: bool, what: str) -> None:
        """Count one output check; ``what`` names it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    """Interface: ``setup()``, ``run_pass(rec, clock)``, ``check(p)``,
    ``close()``."""

    name = ""
    #: one pass's length at the reference host speed; a run makes as
    #: many passes as fit in ``--seconds``, a number fixed per workload
    #: so that every run weighs its first (slower) pass alike
    pass_s = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.oracle: Oracle | None = None

    def setup(self) -> None:
        self.oracle = Oracle()
        # one untimed 1-node run: lazy imports, allocators, code caches
        runner.run(get_benchmark("lbm"), get_cluster("A"), 72)

    def run_pass(self, rec, clock) -> Pass:
        """One pass; every operation runs through :meth:`Pass.op`."""
        raise NotImplementedError

    def check(self, p: Pass) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class PaperScale(Workload):
    """ClusterA at 64 nodes: lbm and weather at 4608 ranks, minisweep at
    ``minisweep_nodes``; the seed permutes the job order."""

    name = "paper_scale"
    pass_s = 9.0

    def __init__(self, seed: int, minisweep_nodes: int = PAPER_JOBS[2][1]):
        super().__init__(seed)
        jobs = [
            (b, minisweep_nodes if b == "minisweep" else n, s)
            for b, n, s in PAPER_JOBS
        ]
        self.rng.shuffle(jobs)
        self.jobs = jobs

    def setup(self) -> None:
        super().setup()
        base = get_cluster("A")
        self.cluster = replace(
            base, max_nodes=max(n for _, n, _ in self.jobs)
        )

    def _job(self, rec, bench: str, nprocs: int, steps: int):
        rec.job = bench
        try:
            with rec.span("paper.job"):
                return runner.run(get_benchmark(bench), self.cluster, nprocs,
                                  sim_steps=steps)
        finally:
            rec.job = None

    def run_pass(self, rec, clock) -> Pass:
        p = Pass(clock)
        for bench, nodes, steps in self.jobs:
            nprocs = nodes * self.cluster.cores_per_node
            result = p.op(bench, self._job, rec, bench, nprocs, steps)
            p.outputs.append((run_key(bench, "A", nprocs), result))
        return p

    def check(self, p: Pass) -> None:
        for key, result in p.outputs:
            p.expect(self.oracle.run_ok(key, result), key)


class NodeSweep(Workload):
    """Fig. 1 axis: all 9 codes on both clusters, journaled, resumed, and
    a DES DVFS grid; the seed offsets the rank counts and orders ops."""

    name = "node_sweep"
    pass_s = 6.0

    def setup(self) -> None:
        super().setup()
        offset = SWEEP_OFFSETS[self.seed % len(SWEEP_OFFSETS)]
        self.curves = []
        for cl in CLUSTERS:
            cluster = get_cluster(cl)
            cores = cluster.node.cores
            counts = sorted(
                {1, cores} | set(range(offset, cores + 1, SWEEP_STRIDE))
            )
            for bench in SUITE_ORDER:
                self.curves.append((get_benchmark(bench), cl, cluster, counts))
        self.rng.shuffle(self.curves)
        self.dvfs = [
            (get_benchmark(b), f)
            for b in DVFS_CODES for f in frequency_grid(get_cluster("A"))
        ]
        self.rng.shuffle(self.dvfs)
        self.tmp = scratch_dir("node_sweep-")
        self.passes = 0

    def close(self) -> None:
        drop_scratch(self.tmp)

    def run_pass(self, rec, clock) -> Pass:
        p = Pass(clock)
        self.passes += 1
        ckpt = os.path.join(self.tmp, f"sweep-{self.passes}.jsonl")
        series = {}
        for stage in ("sweep", "resume"):
            runs_before = runner.engine_run_count()
            for bench, cl, cluster, counts in self.curves:
                series[stage, bench.name, cl] = p.op(
                    stage, sweep.scaling_sweep, bench, cluster, counts,
                    checkpoint=ckpt,
                )
        # the resume stage reads every point back from the checkpoint
        p.layer["harness.engine_runs"] = runner.engine_run_count() - runs_before
        p.layer["harness.checkpoint_bytes"] = os.path.getsize(ckpt)
        os.remove(ckpt)
        points = []
        a = get_cluster("A")
        for bench, hz in self.dvfs:
            (point,) = p.op("dvfs", energy.frequency_sweep, bench, a,
                            frequencies=[hz], tier="des")
            points.append((dvfs_key("dvfs", bench.name, 1, hz), point))
        p.outputs = [series, points]
        return p

    def check(self, p: Pass) -> None:
        series, points = p.outputs
        for (stage, bench, cl), s in series.items():
            for point in s.points:
                key = run_key(bench, cl, point.nprocs)
                p.expect(self.oracle.run_ok(key, point.runs[0]),
                         f"{stage} {key}")
        p.expect(p.layer["harness.engine_runs"] == 0, "resume ran the engine")
        for key, point in points:
            p.expect(self.oracle.pin_ok(key, point_digest(point)), key)


class PredictGrid(Workload):
    """Tier A over the paper grid x10 (seed-shuffled), Tier B at the 36
    golden points, and the 36-point analytic DVFS grid; no DES at all."""

    name = "predict_grid"
    pass_s = 4.0

    def setup(self) -> None:
        super().setup()
        self.corpus = corpus_from_golden(GOLDEN_DIR)
        self.grid = [
            (b, cl, n) for b in SUITE_ORDER for cl in CLUSTERS
            for n in GRID_NODES
        ]
        self.dvfs = [
            (get_benchmark(b), n, f)
            for b, n in DVFS_GRID for f in frequency_grid(get_cluster("A"))
        ]
        self.rng.shuffle(self.dvfs)

    def run_pass(self, rec, clock) -> Pass:
        p = Pass(clock)
        tier_a, tier_b, grid = [], [], []
        for _ in range(GRID_REPEATS):
            order = list(self.grid)
            self.rng.shuffle(order)
            for b, cl, n in order:
                pred = p.op("tier_a", api.predict, api.PredictionSpec(b, cl, n),
                            tier="analytic")
                tier_a.append(((b, cl, n), pred))
        for sample in self.corpus:
            spec = api.PredictionSpec(sample.benchmark, sample.cluster,
                                      sample.nnodes, nprocs=sample.nprocs)
            pred = p.op("tier_b", api.predict, spec, tier="surrogate",
                        corpus=self.corpus)
            tier_b.append((sample, pred))
        a = get_cluster("A")
        for bench, nodes, hz in self.dvfs:
            (point,) = p.op("dvfs_grid", energy.frequency_sweep, bench, a,
                            frequencies=[hz], nnodes=nodes)
            grid.append((dvfs_key("tierA-dvfs", bench.name, nodes, hz), point))
        p.outputs = [tier_a, tier_b, grid]
        return p

    def check(self, p: Pass) -> None:
        tier_a, tier_b, grid = p.outputs
        violations = 0
        for (b, cl, n), pred in tier_a:
            key = f"tierA/{b}/{cl}/{n}"
            p.expect(self.oracle.pin_ok(key, prediction_digest(pred)), key)
            truth = self.oracle.golden.get(
                run_key(b, cl, n * get_cluster(cl).cores_per_node))
            if truth is not None:
                within = abs(pred.runtime / truth[1] - 1.0) <= pred.band
                violations += not within
                p.expect(within, f"{key} outside its band")
        p.layer["predict.band_violations"] = violations
        for sample, pred in tier_b:
            exact = (pred.tier == "surrogate"
                     and abs(pred.runtime / sample.elapsed - 1.0) <= 1e-9)
            p.expect(exact, f"tierB/{sample.key} not exact")
        for key, point in grid:
            p.expect(self.oracle.pin_ok(key, point_digest(point)), key)


class ServeMixed(Workload):
    """One closed-loop client against a loopback ``ServeApp(workers=2)``
    with file-backed store and corpus; the store is reopened after the
    stream to price a restart."""

    name = "serve_mixed"
    pass_s = 4.0

    def setup(self) -> None:
        super().setup()
        self.tmp = scratch_dir("serve_mixed-")
        self.store_path = os.path.join(self.tmp, "store.jsonl")
        self.app = ServeApp(
            store_path=self.store_path,
            corpus_path=os.path.join(self.tmp, "corpus.jsonl"),
            golden_dir=GOLDEN_DIR,
            workers=2,
        )
        self.server = loopback_server(self.app)
        self.client = ServeClient(*self.server.__enter__())
        self.specs = [
            {"benchmark": b, "cluster": cl, "nnodes": 1}
            for b in SERVE_CODES for cl in CLUSTERS
        ]
        for spec in self.specs:
            self.client.run(spec)
        #: first warm answer per spec: every later repeat must match it
        self.first_warm: dict[int, bytes] = {}
        self.next_seed = {"predict": 1, "cold": COLD_SEED_BASE}
        self.stored = len(self.specs)

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.__exit__(None, None, None)
        if getattr(self, "tmp", None):
            drop_scratch(self.tmp)

    def _stream(self) -> list:
        stream = [
            (kind, i) for i in range(len(self.specs))
            for kind, n in SERVE_MIX.items() for _ in range(n)
        ]
        self.rng.shuffle(stream)
        return stream

    def _ask(self, spec: dict, band):
        try:
            return self.client.run(spec, max_band=band)
        except (ServeError, OSError) as exc:
            return exc

    def run_pass(self, rec, clock) -> Pass:
        p = Pass(clock)
        before = self.client.metrics()
        answers = []
        for kind, i in self._stream():
            spec, band = self.specs[i], None
            if kind != "warm":
                spec = {**spec, "seed": self.next_seed[kind]}
                self.next_seed[kind] += 1
            if kind == "predict":
                band = MAX_BAND
            answers.append((kind, i, p.op("stream", self._ask, spec, band)))
        t0 = time.perf_counter()
        with rec.span("serve.store_load"):
            reopened = ResultStore(self.store_path)
        p.stages["restart"] = time.perf_counter() - t0
        after = self.client.metrics()
        warm = [dt for (kind, _, _), dt in zip(answers, p.latencies)
                if kind == "warm"]
        p.layer.update(self._server_layer(before, after, warm))
        p.outputs = [answers, reopened]
        return p

    @staticmethod
    def _server_layer(before: dict, after: dict, warm: list) -> dict:
        """Per-pass numbers from two ``/metrics`` snapshots (counts are
        deltas; latency percentiles cover the server's recent window)
        and the client's warm-request latencies."""
        answered = after["answered"] - before["answered"]
        delta = {
            k: after["answers"].get(k, 0) - before["answers"].get(k, 0)
            for k in after["answers"]
        }
        lat = after["latency"]
        return {
            "serve.hit_rate": 1.0 - delta.get("des", 0) / answered,
            "serve.des_runs": after["des_runs"] - before["des_runs"],
            "serve.coalesced": delta.get("coalesced", 0),
            "serve.store_p50_ms": lat["store"]["p50_ms"],
            "serve.store_p99_ms": lat["store"]["p99_ms"],
            "serve.predict_p50_ms": lat["predict"]["p50_ms"],
            "serve.predict_p90_ms": lat["predict"]["p90_ms"],
            "serve.des_p50_ms": lat["des"]["p50_ms"],
            "serve.client_overhead_ms": (
                1e3 * percentile(warm, 50) - lat["store"]["p50_ms"]
            ),
        }

    def check(self, p: Pass) -> None:
        answers, reopened = p.outputs
        for kind, i, answer in answers:
            spec = self.specs[i]
            what = f"{kind} {spec['benchmark']}/{spec['cluster']}"
            if isinstance(answer, Exception):
                p.expect(False, f"{what}: {answer}")
                continue
            digest, elapsed = self.oracle.golden[
                run_key(spec["benchmark"], spec["cluster"],
                        get_cluster(spec["cluster"]).cores_per_node)
            ]
            if kind == "predict":
                rt = answer.doc["result"]["elapsed"]
                ok = (answer.source == "predict" and answer.band <= MAX_BAND
                      and abs(rt / elapsed - 1.0) <= answer.band)
            elif kind == "warm" and i in self.first_warm:
                ok = answer.raw == self.first_warm[i]
            else:
                # a first warm answer or a cold DES answer: its payload
                # must carry, and reproduce, the golden fingerprint
                ok = (answer.source == ("store" if kind == "warm" else "des")
                      and answer.fingerprint == digest
                      and golden.fingerprint(answer.result()).digest == digest)
                if kind == "warm" and ok:
                    self.first_warm[i] = answer.raw
            p.expect(ok, what)
        self.stored += SERVE_MIX["cold"] * len(self.specs)
        p.expect(len(reopened) == self.stored
                 and reopened.rejected_lines == 0, "store reopen")


WORKLOADS = {
    w.name: w for w in (PaperScale, NodeSweep, PredictGrid, ServeMixed)
}
