"""The asyncio HTTP server: ``POST /run``, ``POST /sweep``,
``POST /predict``, ``GET /status/<job>``, ``GET /metrics``.

Pure stdlib (``asyncio`` + ``http.HTTPStatus``): requests are parsed off
an :func:`asyncio.start_server` stream, one request per connection
(``Connection: close``), JSON bodies in, JSON or NDJSON out.

Every answer flows through the three-level ladder (cheapest level that
can defend its answer):

1. **store** — the canonical spec key hits the content-addressed result
   store: the cached, integrity-verified DES answer is returned as-is.
2. **predict** — the request stated a ``max_band`` and a cheap
   prediction tier's *own stated band* satisfies it: the tier's answer
   is returned, band-annotated and flagged (``source: "predict"``,
   ``fingerprint: null`` — a prediction is never dressed up as ground
   truth).
3. **des** — a genuine cold miss: deduplicated against identical
   in-flight requests (single-flight — N concurrent identical specs
   cost one engine execution and every caller receives the leader's
   exact bytes), executed, fingerprinted, and written back to both the
   result store and the prediction corpus.  The service gets cheaper
   as it runs.

The DES never blocks the event loop: executions run on a bounded thread
pool for ``/run`` and through :func:`repro.harness.parallel.run_many`
(pluggable executor — local pool or the TCP fabric) for ``/sweep``
batches.
"""

from __future__ import annotations

import asyncio
import collections
import json
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Any, Optional

from repro.serve.flight import SingleFlight
from repro.serve.jobs import JobTable
from repro.serve.spec import ServeSpec, SpecError
from repro.serve.store import ResultStore, StoreEntry

#: Request size guards (one simulation spec is a few hundred bytes; a
#: grid sweep of every paper point is well under a megabyte).
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Latency samples kept per ladder level for the /metrics percentiles.
LATENCY_WINDOW = 4096

_JSON = "application/json"
_NDJSON = "application/x-ndjson"


class HttpError(Exception):
    """Maps straight to an HTTP error response."""

    def __init__(self, status: HTTPStatus, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _dumps(doc: Any) -> bytes:
    """Deterministic response encoding (sorted keys — identical answers
    are identical bytes, which the single-flight contract relies on)."""
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


class ServeApp:
    """The service: ladder, store, corpus, jobs, metrics, HTTP front.

    Parameters
    ----------
    store_path / corpus_path:
        JSONL backing files (``None`` keeps either in memory).
    golden_dir:
        Seed the prediction corpus from the golden fingerprint corpus
        (the 36 checked-in DES ground-truth points), so ``max_band``
        requests interpolate from the first request onward.
    workers:
        Thread-pool width for ``/run`` DES executions *and* the
        ``run_many`` worker count for ``/sweep`` batches.
    sweep_executor:
        ``run_many`` backend for sweep batches: ``None`` (auto),
        ``"serial"``, ``"local"``, or a constructed executor instance —
        e.g. :class:`repro.harness.fabric.FabricExecutor` so a TCP
        worker fleet backs the service.
    inject_des_latency:
        Test/chaos hook: sleep this many seconds inside every DES
        execution (exercises coalescing windows deterministically).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_path: str | None = None,
        corpus_path: str | None = None,
        golden_dir: str | None = None,
        workers: int = 2,
        sweep_executor: Any = None,
        inject_des_latency: float = 0.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.host = host
        self.port = port
        self.store = ResultStore(store_path)
        if golden_dir is not None:
            from repro.predict.corpus import corpus_from_golden

            self.corpus = corpus_from_golden(golden_dir, path=corpus_path)
        else:
            from repro.predict.corpus import PredictionCorpus

            self.corpus = PredictionCorpus(corpus_path)
        self.workers = workers
        self.sweep_executor = sweep_executor
        if not isinstance(sweep_executor, (str, type(None))):
            # one backend serves many run_many batches; drive() must not
            # shut it down after the first — the app owns its lifecycle
            sweep_executor.persistent = True
        self.inject_des_latency = inject_des_latency
        self.flight = SingleFlight()
        self.jobs = JobTable()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve-des"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = time.monotonic()
        # --- metrics ---------------------------------------------------
        self.requests: collections.Counter = collections.Counter()
        self.answers: collections.Counter = collections.Counter()
        self.des_runs = 0
        self._latency: dict[str, collections.deque] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_HEADER_BYTES
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.host, self.port = host, port
        return host, port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False)
        if not isinstance(self.sweep_executor, (str, type(None))):
            self.sweep_executor.shutdown()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except HttpError as exc:
                await self._respond_error(writer, exc)
                return
            try:
                await self._dispatch(method, path, body, writer)
            except HttpError as exc:
                await self._respond_error(writer, exc)
            except SpecError as exc:
                await self._respond_error(
                    writer, HttpError(HTTPStatus.BAD_REQUEST, str(exc))
                )
            except Exception as exc:  # a bug must not kill the server
                self.answers["error"] += 1
                await self._respond_error(writer, HttpError(
                    HTTPStatus.INTERNAL_SERVER_ERROR,
                    f"{type(exc).__name__}: {exc}",
                ))
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, Optional[dict]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise HttpError(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "headers too large"
            )
        except asyncio.IncompleteReadError:
            raise HttpError(HTTPStatus.BAD_REQUEST, "truncated request")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise HttpError(HTTPStatus.BAD_REQUEST,
                            f"malformed request line: {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise HttpError(HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                            f"body of {length} bytes exceeds the "
                            f"{MAX_BODY_BYTES}-byte limit")
        body: Optional[dict] = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except ValueError as exc:
                raise HttpError(HTTPStatus.BAD_REQUEST,
                                f"body is not valid JSON: {exc}")
        return method, path, body

    async def _write_head(self, writer: asyncio.StreamWriter,
                          status: HTTPStatus, content_type: str,
                          length: Optional[int]) -> None:
        head = [f"HTTP/1.1 {status.value} {status.phrase}",
                f"Content-Type: {content_type}",
                "Connection: close"]
        if length is not None:
            head.append(f"Content-Length: {length}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode())
        await writer.drain()

    async def _respond(self, writer: asyncio.StreamWriter, payload: bytes,
                       status: HTTPStatus = HTTPStatus.OK) -> None:
        await self._write_head(writer, status, _JSON, len(payload))
        writer.write(payload)
        await writer.drain()

    async def _respond_error(self, writer: asyncio.StreamWriter,
                             exc: HttpError) -> None:
        payload = _dumps({"error": exc.message, "status": exc.status.value})
        await self._respond(writer, payload, exc.status)

    async def _dispatch(self, method: str, path: str, body: Optional[dict],
                        writer: asyncio.StreamWriter) -> None:
        if path == "/run" or path == "/predict" or path == "/sweep":
            if method != "POST":
                raise HttpError(HTTPStatus.METHOD_NOT_ALLOWED,
                                f"{path} requires POST")
            if body is None:
                raise HttpError(HTTPStatus.BAD_REQUEST,
                                f"{path} requires a JSON body")
        self.requests[f"{method} {path.split('/')[1] or '/'}"] += 1
        if path == "/run":
            await self._handle_run(body, writer)
        elif path == "/predict":
            await self._handle_predict(body, writer)
        elif path == "/sweep":
            await self._handle_sweep(body, writer)
        elif path.startswith("/status/") and method == "GET":
            await self._handle_status(path[len("/status/"):], writer)
        elif path == "/metrics" and method == "GET":
            await self._respond(writer, _dumps(self.metrics_doc()))
        elif path == "/healthz" and method == "GET":
            await self._respond(writer, _dumps({"ok": True}))
        else:
            raise HttpError(HTTPStatus.NOT_FOUND, f"no route for {path}")

    # ------------------------------------------------------------------
    # the answer ladder
    # ------------------------------------------------------------------

    def _observe(self, source: str, t0: float) -> None:
        self.answers[source] += 1
        window = self._latency.setdefault(
            source, collections.deque(maxlen=LATENCY_WINDOW)
        )
        window.append(time.perf_counter() - t0)

    def _entry_payload(self, entry: StoreEntry, source: str) -> bytes:
        return _dumps({
            "key": entry.key,
            "source": source,
            "tier": "des",
            "band": 0.0,
            "fingerprint": entry.fingerprint,
            "spec": entry.spec,
            "result": entry.result.to_checkpoint_dict(),
        })

    def _prediction_payload(self, spec: ServeSpec, key: str,
                            pred: Any) -> bytes:
        from repro.predict.api import prediction_to_result

        result = prediction_to_result(pred)
        return _dumps({
            "key": key,
            "source": "predict",        # flagged: not ground truth
            "tier": pred.details.get("fallback") or pred.tier,
            "band": pred.band,
            "fingerprint": None,        # predictions are never fingerprinted
            "spec": spec.canonical_record(),
            "result": result.to_checkpoint_dict(),
        })

    def _execute_des(self, spec: ServeSpec):
        """Worker-thread entry: one engine execution for one spec."""
        from repro.harness.parallel import execute

        if self.inject_des_latency > 0.0:
            time.sleep(self.inject_des_latency)
        return execute(spec.run_spec())

    def _absorb(self, spec: ServeSpec, key: str, result) -> StoreEntry:
        """Write one fresh DES answer back to the store and the corpus."""
        from repro.validate.golden import fingerprint

        entry = StoreEntry(
            key=key,
            spec=spec.canonical_record(),
            result=result,
            fingerprint=fingerprint(result).digest,
            source="des",
        )
        self.store.put(entry)
        if spec.prediction_spec() is not None:
            # only clean grid points train the predictor (noise, faults
            # and truncated step counts would poison the residuals)
            self.corpus.add_run(result, spec.resolve()[1], spec.threads)
        return entry

    def _try_predict(self, spec: ServeSpec, max_band: float):
        """Ladder level 2 (worker thread): a cheap tier's answer iff its
        stated band satisfies the request's ``max_band``."""
        pspec = spec.prediction_spec()
        if pspec is None:
            return None
        from repro.predict.api import predict

        pred = predict(pspec, tier="auto", corpus=self.corpus,
                       allow_des=False)
        if pred.band <= max_band:
            return pred
        return None

    async def _answer_run(self, spec: ServeSpec, max_band: Optional[float],
                          force: bool) -> tuple[bytes, str]:
        """-> (payload bytes, ladder level) for one spec."""
        key = spec.key
        loop = asyncio.get_running_loop()
        if not force:
            entry = self.store.get(key)
            if entry is not None:
                return self._entry_payload(entry, "store"), "store"
            if max_band is not None and not self.flight.flying(key):
                pred = await loop.run_in_executor(
                    self._pool, self._try_predict, spec, max_band
                )
                if pred is not None:
                    return self._prediction_payload(spec, key, pred), "predict"

        async def thunk() -> bytes:
            result = await loop.run_in_executor(
                self._pool, self._execute_des, spec
            )
            self.des_runs += 1
            entry = self._absorb(spec, key, result)
            return self._entry_payload(entry, "des")

        payload, joined = await self.flight.do(key, thunk)
        return payload, ("coalesced" if joined else "des")

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_envelope(body: dict) -> tuple[ServeSpec, Optional[float], bool]:
        if "spec" not in body:
            raise SpecError("body needs a 'spec' object "
                            '(e.g. {"spec": {"benchmark": "lbm", '
                            '"cluster": "A", "nnodes": 4}})')
        extra = sorted(set(body) - {"spec", "max_band", "force"})
        if extra:
            raise SpecError(f"unknown request field(s): {', '.join(extra)}")
        spec = ServeSpec.from_request(body["spec"])
        max_band = body.get("max_band")
        if max_band is not None:
            max_band = float(max_band)
            if max_band < 0.0:
                raise SpecError("max_band must be >= 0")
        return spec, max_band, bool(body.get("force", False))

    async def _handle_run(self, body: dict,
                          writer: asyncio.StreamWriter) -> None:
        t0 = time.perf_counter()
        spec, max_band, force = self._parse_envelope(body)
        payload, source = await self._answer_run(spec, max_band, force)
        self._observe(source, t0)
        await self._respond(writer, payload)

    async def _handle_predict(self, body: dict,
                              writer: asyncio.StreamWriter) -> None:
        t0 = time.perf_counter()
        if "spec" not in body:
            raise SpecError("body needs a 'spec' object")
        extra = sorted(set(body) - {"spec", "tier", "allow_des"})
        if extra:
            raise SpecError(f"unknown request field(s): {', '.join(extra)}")
        spec = ServeSpec.from_request(body["spec"])
        tier = body.get("tier", "auto")
        allow_des = bool(body.get("allow_des", False))
        pspec = spec.prediction_spec()
        if pspec is None:
            raise SpecError(
                "spec uses DES-only axes (noise_sigma, sim_steps, faults) "
                "that no prediction tier can price — POST /run instead"
            )
        from repro.predict.api import TIERS, predict

        if tier not in TIERS:
            raise SpecError(f"unknown tier {tier!r}; expected one of {TIERS}")
        loop = asyncio.get_running_loop()
        pred = await loop.run_in_executor(
            self._pool,
            lambda: predict(pspec, tier=tier, corpus=self.corpus,
                            allow_des=allow_des),
        )
        if pred.tier == "des":
            self.des_runs += 1
        low, high = pred.runtime_interval
        self._observe("predict", t0)
        await self._respond(writer, _dumps({
            "key": spec.key,
            "source": "predict",
            "tier": pred.details.get("fallback") or pred.tier,
            "band": pred.band,
            "runtime_s": pred.runtime,
            "runtime_interval_s": [low, high],
            "energy_j": pred.energy.total_energy,
            "spec": spec.canonical_record(),
        }))

    def _run_batch(self, run_specs: list) -> list:
        """Worker-thread entry: one ``run_many`` batch over the
        configured executor (local pool by default, fabric when the
        server was started with one)."""
        from repro.harness.parallel import run_many

        if self.inject_des_latency > 0.0:
            time.sleep(self.inject_des_latency)
        return run_many(
            run_specs,
            workers=self.workers,
            executor=self.sweep_executor,
            tolerate_failures=True,
        )

    async def _handle_sweep(self, body: dict,
                            writer: asyncio.StreamWriter) -> None:
        extra = sorted(set(body) - {"specs", "max_band", "stream"})
        if extra:
            raise SpecError(f"unknown request field(s): {', '.join(extra)}")
        raw_specs = body.get("specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise SpecError("body needs a non-empty 'specs' array")
        specs = [ServeSpec.from_request(doc) for doc in raw_specs]
        max_band = body.get("max_band")
        if max_band is not None:
            max_band = float(max_band)
        stream = bool(body.get("stream", False))

        job = self.jobs.create("sweep", total=len(specs))
        events: list[bytes] = []

        async def emit(doc: dict) -> None:
            line = _dumps(doc)
            if stream:
                writer.write(line)
                await writer.drain()
            else:
                events.append(line)

        if stream:
            await self._write_head(writer, HTTPStatus.OK, _NDJSON, None)
        await emit({"event": "accepted", "job": job.id, "total": len(specs)})

        loop = asyncio.get_running_loop()
        keys = [s.key for s in specs]
        cold: list[tuple[int, ServeSpec, str, asyncio.Future]] = []
        waiting: list[tuple[int, str]] = []
        try:
            for i, (spec, key) in enumerate(zip(specs, keys)):
                t0 = time.perf_counter()
                entry = self.store.get(key)
                if entry is not None:
                    job.tick("store")
                    self._observe("store", t0)
                    await emit({"event": "point", "index": i, "job": job.id,
                                "source": "store", "key": key,
                                "fingerprint": entry.fingerprint})
                    continue
                if max_band is not None:
                    pred = await loop.run_in_executor(
                        self._pool, self._try_predict, spec, max_band
                    )
                    if pred is not None:
                        job.tick("predict")
                        self._observe("predict", t0)
                        await emit({
                            "event": "point", "index": i, "job": job.id,
                            "source": "predict", "key": key,
                            "tier": pred.details.get("fallback") or pred.tier,
                            "band": pred.band, "fingerprint": None,
                        })
                        continue
                fut = self.flight.claim(key)
                if fut is None:
                    # an identical spec is already executing (another
                    # request, or earlier in this very sweep)
                    waiting.append((i, key))
                else:
                    cold.append((i, spec, key, fut))

            # batch the cold points through run_many in worker-sized
            # chunks, so progress streams while later chunks still run
            chunk = max(1, self.workers)
            for lo in range(0, len(cold), chunk):
                batch = cold[lo:lo + chunk]
                t0 = time.perf_counter()
                outcomes = await loop.run_in_executor(
                    self._pool, self._run_batch,
                    [spec.run_spec() for _, spec, _, _ in batch],
                )
                for (i, spec, key, fut), outcome in zip(batch, outcomes):
                    if getattr(outcome, "failed", False):
                        error = RuntimeError(outcome.summary())
                        self.flight.settle(key, fut, error=error)
                        job.tick("failed")
                        self._observe("failed", t0)
                        await emit({
                            "event": "point", "index": i, "job": job.id,
                            "source": "failed", "key": key,
                            "error": outcome.summary(),
                        })
                        continue
                    self.des_runs += 1
                    entry = self._absorb(spec, key, outcome)
                    self.flight.settle(
                        key, fut, value=self._entry_payload(entry, "des")
                    )
                    job.tick("des")
                    self._observe("des", t0)
                    await emit({"event": "point", "index": i, "job": job.id,
                                "source": "des", "key": key,
                                "fingerprint": entry.fingerprint})

            for i, key in waiting:
                t0 = time.perf_counter()
                try:
                    await self.flight.wait(key)
                except Exception as exc:
                    job.tick("failed")
                    await emit({"event": "point", "index": i, "job": job.id,
                                "source": "failed", "key": key,
                                "error": str(exc)})
                    continue
                entry = self.store.get(key)
                source = "coalesced" if entry is not None else "failed"
                job.tick(source)
                self._observe(source, t0)
                await emit({
                    "event": "point", "index": i, "job": job.id,
                    "source": source, "key": key,
                    "fingerprint": entry.fingerprint if entry else None,
                })
        except BaseException:
            # settle any unresolved claims so /run joiners don't hang
            for _, _, key, fut in cold:
                if not fut.done():
                    self.flight.settle(
                        key, fut,
                        error=RuntimeError("sweep aborted mid-batch"),
                    )
            self.jobs.finish(job, error="sweep aborted")
            raise
        self.jobs.finish(job)
        await emit({"event": "done", **job.to_doc()})
        if stream:
            return  # NDJSON already written; close-delimited
        payload = b"".join(events)
        await self._write_head(writer, HTTPStatus.OK, _NDJSON, len(payload))
        writer.write(payload)
        await writer.drain()

    async def _handle_status(self, job_id: str,
                             writer: asyncio.StreamWriter) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(HTTPStatus.NOT_FOUND, f"unknown job {job_id!r}")
        await self._respond(writer, _dumps(job.to_doc()))

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def metrics_doc(self) -> dict[str, Any]:
        answered = sum(self.answers.values())
        cheap = answered - self.answers["des"] - self.answers["failed"] \
            - self.answers["error"]
        latency = {}
        for source, window in sorted(self._latency.items()):
            samples = list(window)
            latency[source] = {
                "count": len(samples),
                "p50_ms": 1e3 * _percentile(samples, 0.50),
                "p90_ms": 1e3 * _percentile(samples, 0.90),
                "p99_ms": 1e3 * _percentile(samples, 0.99),
            }
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "requests": dict(self.requests),
            "answers": dict(self.answers),
            "answered": answered,
            "hit_rate": (cheap / answered) if answered else 0.0,
            "des_runs": self.des_runs,
            "singleflight": {
                "leads": self.flight.leads,
                "joins": self.flight.joins,
                "open": len(self.flight),
            },
            "store": {
                "entries": len(self.store),
                "rejected_lines": self.store.rejected_lines,
                "path": self.store.path,
            },
            "corpus": {"samples": len(self.corpus),
                       "path": self.corpus.path},
            "jobs": len(self.jobs),
            "latency": latency,
        }


# ----------------------------------------------------------------------
# loopback harness (tests, the serving differential, the load bench)
# ----------------------------------------------------------------------


class loopback_server:
    """Context manager: run a :class:`ServeApp` on a background thread.

    ::

        app = ServeApp(store_path=tmp / "store.jsonl")
        with loopback_server(app) as (host, port):
            client = ServeClient(host, port)
            ...

    The event loop lives on the spawned thread; entering waits until the
    socket is bound, exiting stops the server and joins the thread.
    """

    def __init__(self, app: ServeApp) -> None:
        self.app = app
        self._thread: Any = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready: Any = None

    def __enter__(self) -> tuple[str, int]:
        import threading

        self._ready = threading.Event()
        failure: list[BaseException] = []

        def _serve() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.app.start())
            except BaseException as exc:  # bind failure etc.
                failure.append(exc)
                self._ready.set()
                return
            self._ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.app.stop())
                loop.close()

        self._thread = threading.Thread(
            target=_serve, name="serve-loopback", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if failure:
            raise failure[0]
        if self._loop is None or not self._ready.is_set():
            raise RuntimeError("loopback server failed to start in time")
        return self.app.address

    def __exit__(self, *exc_info: Any) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
