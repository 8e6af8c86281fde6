"""Layer spans for the traced benchmark run, placed from outside ``src/``.

:data:`BOUNDARIES` names each layer's coarse public entry points and the
span each one records.  :func:`traced` patches every entry point *where
callers look it up* (a module attribute, or a class attribute for
methods), so the program itself is unchanged, and restores the original
objects on exit.  Functions called once per simulated event are never
wrapped; the DES work counts come from the engine's own counters in
``RunResult.meta["metrics"]`` instead (see :func:`_count_run`).

Spans are kept in memory as ``{id, parent, name, job, start, end}``
dicts; a layer's self time is its duration minus the time its child
spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import itertools
import threading
import time
from collections import defaultdict

#: (module, attribute path, span name).  The module is where the entry
#: point is *looked up* by its callers, which is not always where it is
#: defined: ``parallel`` imports the checkpoint functions by name, and
#: ``api`` imports ``analytic_prediction`` by name.
BOUNDARIES = (
    ("repro.harness.runner", "run", "harness.run"),
    ("repro.harness.parallel", "execute", "harness.execute"),
    ("repro.harness.parallel", "append_checkpoint", "harness.checkpoint_append"),
    ("repro.harness.parallel", "load_checkpoint", "harness.checkpoint_load"),
    ("repro.harness.parallel", "compact", "harness.checkpoint_compact"),
    ("repro.smpi.runtime", "MpiRuntime.launch", "smpi.launch"),
    ("repro.spechpc.wavefront", "WavefrontProgram.compile", "wavefront.compile"),
    ("repro.spechpc.wavefront", "WavefrontProgram.run", "wavefront.replay"),
    ("repro.spechpc.fastforward", "Replayer.run", "fastforward.scalar_check"),
    ("repro.spechpc.fastforward", "VectorReplayer.compile",
     "fastforward.vector_compile"),
    ("repro.spechpc.fastforward", "VectorReplayer.run",
     "fastforward.vector_replay"),
    ("repro.model.dvfs", "apply_frequency", "dvfs.apply_frequency"),
    ("repro.perfmon.rapl", "EnergyMeter.read", "perfmon.energy_read"),
    ("repro.predict.api", "predict", "predict.query"),
    ("repro.predict.api", "analytic_prediction", "predict.analytic"),
    ("repro.predict.analytic", "profile_step", "predict.profile"),
    ("repro.predict.surrogate", "ResidualSurrogate.estimate", "predict.surrogate"),
    ("repro.predict.corpus", "PredictionCorpus.add", "predict.corpus_add"),
    ("repro.serve.spec", "ServeSpec.canonical_record", "serve.spec_key"),
    ("repro.serve.store", "ResultStore.get", "serve.store_get"),
    ("repro.serve.store", "ResultStore.put", "serve.store_put"),
    ("repro.validate.golden", "fingerprint", "validate.fingerprint"),
)

#: engine counters summed over the runs a traced pass executes
#: (``peak_heap_size`` is a high-water mark and takes the max)
RUN_COUNTERS = (
    ("engine", "events", "des.events"),
    ("engine", "heap_pushes", "des.heap_pushes"),
    ("engine", "runq_events", "des.runq_events"),
    ("engine", "peak_heap_size", "des.peak_heap_size"),
    ("mailboxes", "matching_ops", "smpi.matching_ops"),
)


class Recorder:
    """Thread-safe in-memory span and counter store for one traced pass.

    Parents are tracked per thread, so a span opened on a server worker
    thread becomes a root there rather than a child of whatever the
    client thread has open.  ``job`` labels every span opened while it
    is set (the benchmark runs one job or request at a time).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        job = self.job
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"id": sid, "parent": parent, "name": name,
                               "job": job, "start": start, "end": end})

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one ``name`` span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def add(self, name: str, value: float, peak: bool = False) -> None:
        with self._lock:
            if peak:
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """span name -> (total seconds, self seconds, calls)."""
        selfs = self_times(self.spans)
        out: dict[str, list] = {}
        for s in self.spans:
            row = out.setdefault(s["name"], [0.0, 0.0, 0])
            row[0] += s["end"] - s["start"]
            row[1] += selfs[s["id"]]
            row[2] += 1
        return {name: tuple(row) for name, row in out.items()}

    def by_job(self) -> dict[str, dict[str, float]]:
        """job -> span name -> self seconds, for spans opened in a job;
        a job's self times add up to its root span's duration."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            if s["job"] is not None:
                row = out.setdefault(s["job"], {})
                row[s["name"]] = row.get(s["name"], 0.0) + selfs[s["id"]]
        return out


class NullRecorder:
    """The untraced pass: spans cost nothing and nothing is patched."""

    job = None

    def span(self, name: str):
        return contextlib.nullcontext()


def self_times(spans: list[dict]) -> dict[int, float]:
    """span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in spans}


def _count_run(rec: Recorder, result) -> None:
    """Fold one finished run's engine counters and tier decision in."""
    snap = result.meta.get("metrics") or {}
    for source, key, name in RUN_COUNTERS:
        value = snap.get(source, {}).get(key, 0.0)
        rec.add(name, value, peak=(key == "peak_heap_size"))
    tier = snap.get("wavefront", {})
    if tier.get("eligible"):
        rec.add("tier.engaged_runs", 1)
        if result.meta.get("wavefront"):
            rec.add("wavefront.levels", tier.get("levels", 0.0))
            rec.add("wavefront.events_saved", tier.get("events_saved", 0.0))
    else:
        rec.add("tier.declined_runs", 1)


def resolve(module: str, path: str):
    """-> (owner object, attribute name, raw attribute) for one boundary.

    For a class attribute the raw value is the descriptor stored in the
    class ``__dict__`` (a ``classmethod`` stays a ``classmethod``), so
    restoring it puts back exactly what was there.
    """
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    raw = vars(owner)[attr]
    return owner, attr, raw


def _wrapped(rec: Recorder, name: str, raw):
    hook = functools.partial(_count_run, rec) if name == "harness.run" else None
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(rec.wrap(name, raw.__func__, hook))
    return rec.wrap(name, raw, hook)


def _gc_timer(rec: Recorder):
    """A ``gc.callbacks`` hook adding collector time (``python.gc_s``)
    and full collections (``python.gc_gen2``) to ``rec``."""
    started = [0.0]

    def hook(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            rec.add("python.gc_s", time.perf_counter() - started[0])
            rec.add("python.gc_gen2", info["generation"] == 2)

    return hook


@contextlib.contextmanager
def traced(rec: Recorder, boundaries=BOUNDARIES):
    """Patch every boundary to record into ``rec`` and time the cyclic
    collector; restore everything on exit."""
    patched = []
    hook = _gc_timer(rec)
    gc.callbacks.append(hook)
    try:
        for module, path, name in boundaries:
            owner, attr, raw = resolve(module, path)
            setattr(owner, attr, _wrapped(rec, name, raw))
            patched.append((owner, attr, raw))
        yield rec
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)
        gc.callbacks.remove(hook)
