"""Simulation-as-a-service: the ``repro serve`` HTTP front end.

The paper's entire result set is a finite grid — nine SPEChpc 2021
benchmarks x two clusters x power-of-two node counts — so most queries
against this reproduction are *repeat* queries and should never reach
the event heap.  This package is the distribution layer that makes that
true: a stdlib-only asyncio HTTP service in front of a three-level
answer ladder.

1. **Result store** (:mod:`repro.serve.store`) — a content-addressed
   JSONL store keyed by the canonical SHA-256 spec digest
   (:mod:`repro.serve.spec`, the golden-fingerprint idiom).  Exact
   repeats are answered from disk in microseconds, integrity-checked
   against the stored result fingerprint on load.
2. **Tiered predictor** — requests that state an acceptable error band
   (``max_band``) are answered by :func:`repro.predict.api.predict`
   when a cheap tier's stated band satisfies it; the answer is flagged
   and band-annotated, never silently substituted for ground truth.
3. **Single-flight DES** (:mod:`repro.serve.flight`) — genuine cold
   misses from ``/run``, ``/sweep`` and ``/predict``'s DES tier take
   one cold path: deduplicated against identical in-flight requests (N
   concurrent identical specs -> exactly one engine execution), run in
   ``run_many`` batches on the pluggable executor layer, and written
   back to both the store and the prediction corpus — the service gets
   cheaper as it runs.

:mod:`repro.serve.server` is the asyncio server (``POST /run``,
``POST /sweep``, ``POST /predict``, ``GET /status/<job>``,
``GET /metrics``); :mod:`repro.serve.client` is the matching stdlib
client used by tests, the serving differential
(:mod:`repro.validate.serving`) and the load benchmark.  See
``docs/serving.md``.
"""

from __future__ import annotations

from repro.serve.client import ServeClient
from repro.serve.flight import SingleFlight
from repro.serve.jobs import Job, JobTable
from repro.serve.server import ServeApp, loopback_server
from repro.serve.spec import ServeSpec, SpecError
from repro.serve.store import ResultStore, StoreEntry

__all__ = [
    "Job",
    "JobTable",
    "ResultStore",
    "ServeApp",
    "ServeClient",
    "ServeSpec",
    "SingleFlight",
    "SpecError",
    "StoreEntry",
    "loopback_server",
]
