"""The asyncio HTTP server: ``POST /run``, ``POST /sweep``,
``POST /predict``, ``GET /status/<job>``, ``GET /metrics``.

Pure stdlib (``asyncio`` + ``http.HTTPStatus``): requests are parsed off
an :func:`asyncio.start_server` stream, one request per connection
(``Connection: close``), JSON bodies in, JSON or NDJSON out.

Every answer flows through one three-level ladder (cheapest level that
can defend its answer):

1. **store** — the canonical spec key hits the content-addressed result
   store: the cached, integrity-verified DES answer is returned as-is.
2. **predict** — the request stated a ``max_band``, the key is not
   already executing, and a cheap prediction tier's *own stated band*
   satisfies it: the tier's answer is returned, band-annotated and
   flagged (``source: "predict"``, ``fingerprint: null`` — a prediction
   is never dressed up as ground truth).
3. **des** — a genuine cold miss, answered by the one cold path
   (:meth:`ServeApp._cold`): every cold key is claimed under
   single-flight (N concurrent identical specs cost one engine
   execution and every caller receives the same answer), the claimed
   specs run in worker-sized :func:`repro.harness.parallel.run_many`
   batches over the configured executor, and each result is
   fingerprinted and written back to both the result store and the
   prediction corpus.  The service gets cheaper as it runs.

``/run`` sends one point down the ladder, ``/sweep`` streams its points
from it, and ``/predict`` answers its DES tier from the store or the
cold path.  The engine never blocks the event loop: batches run on a
bounded thread pool, and a shared executor instance (the fabric) runs
one batch at a time.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from http import HTTPStatus
from typing import Any, Callable, Optional

from repro.harness.parallel import run_many
from repro.harness.results import FailedRun
from repro.serve.flight import SingleFlight
from repro.serve.jobs import JobTable
from repro.serve.spec import ServeSpec, SpecError, json_typed
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


def _parse_max_band(value: Any) -> Optional[float]:
    """The ``max_band`` request field of ``/run`` and ``/sweep``: absent,
    or a number >= 0 (``inf`` accepts any band)."""
    if value is None:
        return None
    band = float(json_typed(value, float, "max_band"))
    if not band >= 0.0:  # NaN fails too
        raise SpecError("max_band must be >= 0")
    return band


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
        Thread-pool width, and the ``run_many`` worker count and batch
        size of the cold path.
    sweep_executor:
        ``run_many`` backend of every cold execution: ``None`` (auto —
        a one-point batch runs in-process, a wider one in a local
        pool), ``"serial"``, ``"local"``, or a constructed executor
        instance — e.g. :class:`repro.harness.fabric.FabricExecutor` so
        a TCP worker fleet backs the service.
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
        shared = not isinstance(sweep_executor, (str, type(None)))
        if shared:
            # one backend serves many run_many batches; drive() must not
            # shut it down after the first — the app owns its lifecycle
            sweep_executor.persistent = True
        # a shared instance keys its work by each batch's item indices
        # 0..n-1, so its batches must not overlap; named and auto
        # executors are built afresh for every batch
        self._one_batch = asyncio.Lock() if shared else contextlib.nullcontext()
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
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise HttpError(HTTPStatus.BAD_REQUEST,
                            f"bad Content-Length: {raw_length!r}")
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
            if not isinstance(body, dict):
                raise HttpError(HTTPStatus.BAD_REQUEST,
                                f"{path} requires a JSON body (an object)")
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

    async def _cheap(self, spec: ServeSpec, key: str,
                     max_band: Optional[float]) -> Optional[tuple[str, Any]]:
        """Ladder levels 1-2 -> ``("store", StoreEntry)``,
        ``("predict", Prediction)``, or ``None`` for a cold point.  A
        key already in flight is not predicted: the engine's answer is
        on its way."""
        entry = self.store.get(key)
        if entry is not None:
            return "store", entry
        if max_band is not None and not self.flight.flying(key):
            pred = await asyncio.get_running_loop().run_in_executor(
                self._pool, self._try_predict, spec, max_band
            )
            if pred is not None:
                return "predict", pred
        return None

    async def _cold(self, points: list[tuple[int, ServeSpec, str]],
                    answer: Callable[[int, str, Any], None]) -> None:
        """Ladder level 3 for ``(index, spec, key)`` points — the one
        place the service starts the engine.

        Claims every cold key up front (a key already in flight is
        joined instead), runs the claimed specs in worker-sized
        ``run_many`` batches over the configured executor, settles each
        flight with its :class:`StoreEntry` or error, then waits on the
        joined flights.  ``answer(index, source, outcome)`` is called
        once per point as it resolves: ``source`` is ``"des"``,
        ``"coalesced"`` or ``"failed"``, ``outcome`` the entry or the
        error.
        """
        loop = asyncio.get_running_loop()
        claimed, joined = [], []
        for i, spec, key in points:
            fut = self.flight.claim(key)
            if fut is None:
                joined.append((i, key))
            else:
                claimed.append((i, spec, key, fut))
        try:
            for lo in range(0, len(claimed), self.workers):
                batch = claimed[lo:lo + self.workers]
                async with self._one_batch:
                    outcomes = await loop.run_in_executor(self._pool, partial(
                        run_many, [spec.run_spec() for _, spec, _, _ in batch],
                        workers=self.workers, executor=self.sweep_executor,
                        tolerate_failures=True,
                    ))
                for (i, spec, key, fut), outcome in zip(batch, outcomes):
                    if isinstance(outcome, FailedRun):
                        source, value = "failed", RuntimeError(outcome.summary())
                        self.flight.settle(key, fut, error=value)
                    else:
                        self.des_runs += 1
                        source, value = "des", self._absorb(spec, key, outcome)
                        self.flight.settle(key, fut, value=value)
                    answer(i, source, value)
        finally:
            # an aborted batch must not leave joiners on open flights
            for _, _, key, fut in claimed:
                if not fut.done():
                    self.flight.settle(
                        key, fut, error=RuntimeError("cold batch aborted")
                    )
        for i, key in joined:
            try:
                # a flight that closed before we got here left its
                # entry in the store (or failed)
                entry = await self.flight.wait(key) or self.store.get(key)
            except Exception as exc:
                answer(i, "failed", exc)
                continue
            if entry is None:
                answer(i, "failed", RuntimeError("joined flight failed"))
            else:
                answer(i, "coalesced", entry)

    async def _cold_one(self, spec: ServeSpec, key: str) -> tuple[str, Any]:
        """One point through :meth:`_cold`; a failed run raises."""
        answers: list = []
        await self._cold([(0, spec, key)], lambda _, *got: answers.append(got))
        [(source, outcome)] = answers
        if isinstance(outcome, BaseException):
            raise outcome
        return source, outcome

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
        max_band = _parse_max_band(body.get("max_band"))
        return spec, max_band, json_typed(body.get("force", False), bool,
                                          "force")

    async def _handle_run(self, body: dict,
                          writer: asyncio.StreamWriter) -> None:
        t0 = time.perf_counter()
        spec, max_band, force = self._parse_envelope(body)
        key = spec.key
        found = None if force else await self._cheap(spec, key, max_band)
        source, answer = found or await self._cold_one(spec, key)
        self._observe(source, t0)
        if source == "predict":
            payload = self._prediction_payload(spec, key, answer)
        else:
            # joiners get the leader's exact bytes
            payload = self._entry_payload(
                answer, "store" if source == "store" else "des"
            )
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
        allow_des = json_typed(body.get("allow_des", False), bool, "allow_des")
        pspec = spec.prediction_spec()
        if pspec is None:
            raise SpecError(
                f"{spec.unpriceable_reason()} — POST /run instead"
            )
        from repro.predict.api import TIERS, predict

        if tier not in TIERS:
            raise SpecError(f"unknown tier {tier!r}; expected one of {TIERS}")
        key = spec.key
        pred = None
        if tier != "des":
            pred = await asyncio.get_running_loop().run_in_executor(
                self._pool,
                lambda: predict(pspec, tier=tier, corpus=self.corpus,
                                allow_des=False),
            )
            if (tier == "auto" and allow_des
                    and pred.details.get("fallback") == "analytic"):
                pred = None  # no cheap tier could vouch: escalate
        if pred is None:
            # the DES tier is an exact answer: store, else the cold path
            source, entry = (await self._cheap(spec, key, None)
                             or await self._cold_one(spec, key))
            tier, band = "des", 0.0
            runtime, energy = entry.result.elapsed, entry.result.energy
        else:
            source, band, runtime, energy = (
                "predict", pred.band, pred.runtime, pred.energy)
            tier = pred.details.get("fallback") or pred.tier
        self._observe(source, t0)
        await self._respond(writer, _dumps({
            "key": key,
            "source": "predict",
            "tier": tier,
            "band": band,
            "runtime_s": runtime,
            "runtime_interval_s": [runtime / (1.0 + band),
                                   runtime * (1.0 + band)],
            "energy_j": energy.total_energy,
            "spec": spec.canonical_record(),
        }))

    async def _handle_sweep(self, body: dict,
                            writer: asyncio.StreamWriter) -> None:
        extra = sorted(set(body) - {"specs", "max_band", "stream"})
        if extra:
            raise SpecError(f"unknown request field(s): {', '.join(extra)}")
        raw_specs = body.get("specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise SpecError("body needs a non-empty 'specs' array")
        specs = [ServeSpec.from_request(doc) for doc in raw_specs]
        keys = [s.key for s in specs]
        max_band = _parse_max_band(body.get("max_band"))
        stream = json_typed(body.get("stream", False), bool, "stream")

        job = self.jobs.create("sweep", total=len(specs))
        events: list[bytes] = []

        def emit(doc: dict) -> None:
            # a streamed line goes out now; flow control waits for done
            (writer.write if stream else events.append)(_dumps(doc))

        def point(i: int, source: str, outcome: Any, t0: float) -> None:
            job.tick(source)
            self._observe(source, t0)
            doc = {"event": "point", "index": i, "job": job.id,
                   "source": source, "key": keys[i]}
            if source == "predict":
                doc.update(tier=outcome.details.get("fallback") or outcome.tier,
                           band=outcome.band, fingerprint=None)
            elif source == "failed":
                doc["error"] = str(outcome)
            else:
                doc["fingerprint"] = outcome.fingerprint
            emit(doc)

        if stream:
            await self._write_head(writer, HTTPStatus.OK, _NDJSON, None)
        emit({"event": "accepted", "job": job.id, "total": len(specs)})

        cold = []
        try:
            for i, (spec, key) in enumerate(zip(specs, keys)):
                t0 = time.perf_counter()
                found = await self._cheap(spec, key, max_band)
                if found is None:
                    cold.append((i, spec, key))
                else:
                    point(i, *found, t0)
            t0 = time.perf_counter()
            await self._cold(
                cold, lambda i, source, outcome: point(i, source, outcome, t0)
            )
        except BaseException:
            self.jobs.finish(job, error="sweep aborted")
            raise
        self.jobs.finish(job)
        emit({"event": "done", **job.to_doc()})
        if stream:
            await writer.drain()
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
