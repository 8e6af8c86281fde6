"""Distributed sweep fabric: a TCP manager/worker executor.

One process (the *manager* — whoever called ``run_many``) listens on a
TCP socket; any number of *workers* (``python -m repro worker --connect
host:port``) dial in, elastically, at any point during the sweep.  The
protocol is deliberately boring: length-prefixed JSON frames over a
plain stream socket, stdlib only, with a version-stamped handshake so a
stale worker build is rejected loudly instead of mis-executing work.

Robustness model
----------------
The manager owns all state; workers are expendable:

* every dispatched spec is a **lease** — ``(item, worker, lease-id,
  start time)`` — journaled to the sweep checkpoint (when one is
  active) so a crashed manager leaves an audit trail of exactly what
  was in flight;
* workers heartbeat every ``heartbeat_interval``; a worker silent past
  the grace window, or whose connection drops, is declared lost and its
  leases are **re-queued** for other workers (worker loss does not
  consume the spec's retry budget — it is not the spec's fault — but is
  bounded by ``requeue_limit`` so a spec that reliably kills workers
  terminalizes instead of cycling through the fleet forever);
* results commit **at most once**, keyed by the work item and its
  lease: a straggler that went silent, lost its lease, and later
  delivers anyway is journaled as a ``duplicate`` and dropped, never
  double-counted;
* a per-spec ``timeout`` expires the lease on the manager side; unlike
  the local pool (which must abandon its whole worker pool), the fabric
  retries timed-out specs on *another* worker
  (``capabilities.retries_timeouts``), falling to
  :class:`~repro.harness.results.FailedRun` only when the retry budget
  is spent.

Failure of everything — every worker gone and none returning — simply
blocks the sweep until a worker (re)joins: a degraded fabric waits, it
does not lose work.  Manager death is covered by the checkpoint: re-run
with ``--resume`` and completed points restore while leased-but-
uncommitted specs re-queue from scratch (the JSONL loader tolerates a
line torn mid-append).

Workers execute specs in-process, one at a time; isolation between
points is the worker process boundary itself.  Specs travel pickled
(base64 inside the JSON frame) exactly as they would into a local
process pool, so any benchmark importable on the worker works.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import queue
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.harness.checkpoint import append_event, spec_key
from repro.harness.executors import (
    Executor,
    ExecutorCapabilities,
    Outcome,
    _packed_failure,
)
from repro.harness.results import RunResult

#: Wire-protocol version; bumped on any frame-shape change.  Handshakes
#: between mismatched versions are rejected, never guessed at.
FABRIC_PROTO = 1

#: Frames larger than this are treated as protocol corruption.
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class FrameError(ValueError):
    """A malformed frame (bad length, oversize, or invalid JSON)."""


# --- framing ----------------------------------------------------------------


def send_frame(sock: socket.socket, doc: dict) -> None:
    """Serialize ``doc`` and write it as one length-prefixed frame."""
    data = json.dumps(doc, separators=(",", ":")).encode()
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise FrameError("connection closed mid-frame")
            return None  # clean EOF on a frame boundary
        buf += chunk
    return buf


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one frame; ``None`` on clean EOF, :class:`FrameError` on a
    torn or corrupt frame."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise FrameError("connection closed mid-frame")
    try:
        doc = json.loads(payload)
    except ValueError as exc:
        raise FrameError(f"invalid frame payload: {exc}") from exc
    if not isinstance(doc, dict):
        raise FrameError("frame payload is not an object")
    return doc


def encode_spec(spec) -> str:
    return base64.b64encode(pickle.dumps(spec)).decode("ascii")


def decode_spec(data: str):
    return pickle.loads(base64.b64decode(data.encode("ascii")))


# --- manager ----------------------------------------------------------------


@dataclass
class _Worker:
    name: str
    sock: socket.socket
    host: str = ""
    pid: int = 0
    last_seen: float = field(default_factory=time.monotonic)
    leases: set = field(default_factory=set)
    alive: bool = True
    send_lock: threading.Lock = field(default_factory=threading.Lock)

    def send(self, doc: dict) -> None:
        with self.send_lock:
            send_frame(self.sock, doc)


@dataclass(frozen=True)
class _Lease:
    worker: str
    lease: int
    started: float


class FabricExecutor(Executor):
    """The manager side of the fabric (see the module docstring).

    Construct with a listen address (``("0.0.0.0", 7071)``; port 0
    picks a free port — read it back from :attr:`address`), hand it to
    ``run_many(..., executor=...)``, and point workers at it.
    """

    name = "fabric"
    capabilities = ExecutorCapabilities(
        parallel=True, distributed=True, retries_timeouts=True,
    )

    def __init__(
        self,
        listen: tuple[str, int] = ("127.0.0.1", 0),
        *,
        heartbeat_interval: float = 0.5,
        heartbeat_grace: Optional[float] = None,
        requeue_limit: int = 5,
        echo: Optional[Callable[[str], None]] = None,
    ) -> None:
        if heartbeat_interval <= 0.0:
            raise ValueError("heartbeat_interval must be > 0")
        if requeue_limit < 1:
            raise ValueError("requeue_limit must be >= 1")
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_grace = (
            heartbeat_grace
            if heartbeat_grace is not None
            else 5.0 * heartbeat_interval
        )
        self.requeue_limit = requeue_limit
        self._echo = echo or (lambda msg: None)
        self._timeout: Optional[float] = None

        self._events: queue.Queue = queue.Queue()
        self._ready: deque = deque()  # outcomes produced between collects
        self._workers: dict[str, _Worker] = {}
        self._idle: deque = deque()  # worker names with no lease
        self._queue: deque = deque()  # items awaiting dispatch
        self._specs: dict = {}
        self._keys: dict[int, str] = {}
        self._leases: dict[int, _Lease] = {}
        self._lease_seq = 0
        self._requeues: dict[int, int] = {}
        self._resolved: set = set()
        self._last_worker: dict[int, str] = {}
        self._names: set = set()
        self._name_lock = threading.Lock()
        self._closing = False
        self._waiting_warned = False

        self._server = socket.create_server(listen)
        self.address: tuple[str, int] = self._server.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fabric-accept", daemon=True
        )
        self._accept_thread.start()

    # --- executor protocol ---------------------------------------------------

    def prepare(self, specs: Sequence, timeout: Optional[float]) -> None:
        self._timeout = timeout

    def submit(self, item: int, spec) -> None:
        self._specs[item] = spec
        self._keys[item] = spec_key(spec)
        self._resolved.discard(item)  # a resubmit opens a new commit slot
        self._queue.append(item)
        self._dispatch()

    def collect(self) -> Outcome:
        tick = min(self.heartbeat_interval / 2.0, 0.1)
        waiting_since = time.monotonic()
        while True:
            if self._ready:
                return self._ready.popleft()
            self._dispatch()
            try:
                event = self._events.get(timeout=tick)
            except queue.Empty:
                event = None
            if event is not None:
                self._handle(event)
            self._check_deadlines()
            if (
                not self._workers
                and (self._queue or self._leases)
                and not self._waiting_warned
                and time.monotonic() - waiting_since > 3.0
            ):
                self._waiting_warned = True
                host, port = self.address
                self._echo(
                    f"fabric: no workers connected; waiting on {host}:{port} "
                    f"(start one with: python -m repro worker "
                    f"--connect {host}:{port})"
                )

    def shutdown(self) -> None:
        if self._closing:
            return
        self._closing = True
        for worker in list(self._workers.values()):
            try:
                worker.send({"type": "shutdown"})
            except OSError:
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
        self._workers.clear()
        self._idle.clear()
        try:
            self._server.close()
        except OSError:
            pass

    # --- accept / reader threads ---------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, addr = self._server.accept()
            except OSError:
                return  # server socket closed
            if self._closing:
                sock.close()
                return
            threading.Thread(
                target=self._reader,
                args=(sock, addr),
                name=f"fabric-reader-{addr[0]}:{addr[1]}",
                daemon=True,
            ).start()

    def _unique_name(self, requested: str) -> str:
        with self._name_lock:
            name, n = requested, 1
            while name in self._names:
                n += 1
                name = f"{requested}~{n}"
            self._names.add(name)
            return name

    def _reader(self, sock: socket.socket, addr) -> None:
        worker = None
        try:
            hello = recv_frame(sock)
            if hello is None or hello.get("type") != "hello":
                sock.close()
                return
            if hello.get("proto") != FABRIC_PROTO:
                send_frame(sock, {
                    "type": "reject",
                    "reason": (
                        f"protocol version {hello.get('proto')!r} != "
                        f"manager's {FABRIC_PROTO}"
                    ),
                })
                sock.close()
                return
            requested = str(hello.get("worker") or f"{addr[0]}:{addr[1]}")
            worker = _Worker(
                name=self._unique_name(requested),
                sock=sock,
                host=str(hello.get("host", addr[0])),
                pid=int(hello.get("pid", 0)),
            )
            worker.send({
                "type": "welcome",
                "proto": FABRIC_PROTO,
                "worker": worker.name,
                "heartbeat": self.heartbeat_interval,
            })
            self._events.put(("join", worker))
            while True:
                doc = recv_frame(sock)
                if doc is None:
                    self._events.put(("gone", worker, "connection closed"))
                    return
                self._events.put(("msg", worker, doc))
        except (OSError, FrameError) as exc:
            if worker is not None:
                self._events.put(("gone", worker, str(exc)))
            else:
                try:
                    sock.close()
                except OSError:
                    pass

    # --- manager state machine ------------------------------------------------

    def _handle(self, event: tuple) -> None:
        kind = event[0]
        if kind == "join":
            worker = event[1]
            self._workers[worker.name] = worker
            self._mark_idle(worker.name)
            self._echo(
                f"fabric: worker {worker.name} joined "
                f"({len(self._workers)} connected)"
            )
            return
        if kind == "gone":
            worker, reason = event[1], event[2]
            if worker.alive:
                self._drop_worker(worker.name, reason)
            return
        # kind == "msg"
        worker, doc = event[1], event[2]
        if not worker.alive:
            return  # already dropped; late frames are void
        worker.last_seen = time.monotonic()
        mtype = doc.get("type")
        if mtype == "heartbeat":
            return
        if mtype == "result":
            self._on_result(worker, doc)
            return
        if mtype == "goodbye":
            self._drop_worker(worker.name, "left cleanly")
            return

    def _on_result(self, worker: _Worker, doc: dict) -> None:
        item = doc.get("item")
        lease = self._leases.get(item)
        worker.leases.discard(item)
        self._mark_idle(worker.name)
        if (
            lease is None
            or item in self._resolved
            or lease.worker != worker.name
            or lease.lease != doc.get("lease")
        ):
            # at-most-once commit: a straggler whose lease was re-queued
            # (or already resolved) delivers into the void
            if item in self._keys:
                self._journal(
                    "duplicate", item, worker=worker.name,
                    lease=doc.get("lease"),
                )
            return
        del self._leases[item]
        self._last_worker[item] = worker.name
        self._resolved.add(item)
        if doc.get("status") == "ok":
            try:
                result = RunResult.from_checkpoint_dict(doc["result"])
            except (KeyError, TypeError, ValueError) as exc:
                self._journal("failed", item, worker=worker.name,
                              error="undecodable result")
                self._ready.append(Outcome(
                    item, "failed", error_type="FabricProtocolError",
                    error_message=f"worker {worker.name} sent an "
                    f"undecodable result: {exc}", worker=worker.name,
                ))
                return
            self._journal("complete", item, worker=worker.name,
                          lease=lease.lease)
            self._ready.append(
                Outcome(item, "ok", result=result, worker=worker.name)
            )
            return
        error = doc.get("error") or {}
        self._journal("failed", item, worker=worker.name, lease=lease.lease,
                      error=error.get("type", "?"))
        self._ready.append(Outcome(
            item, "failed",
            error_type=str(error.get("type", "RemoteError")),
            error_message=str(error.get("message", "")),
            traceback=str(error.get("traceback", "")),
            worker=worker.name,
        ))

    def _drop_worker(self, name: str, reason: str) -> None:
        worker = self._workers.pop(name, None)
        if worker is None:
            return
        worker.alive = False
        try:
            worker.sock.close()
        except OSError:
            pass
        if name in self._idle:
            self._idle.remove(name)
        self._echo(
            f"fabric: worker {name} lost ({reason}); "
            f"re-queueing {len(worker.leases)} leased spec(s)"
        )
        for item in sorted(worker.leases):
            self._requeue(item, f"worker {name} lost: {reason}")
        worker.leases.clear()

    def _requeue(self, item: int, reason: str) -> None:
        self._leases.pop(item, None)
        if item in self._resolved:
            return
        count = self._requeues.get(item, 0) + 1
        self._requeues[item] = count
        self._journal("requeue", item, reason=reason, count=count)
        if count > self.requeue_limit:
            self._resolved.add(item)
            self._ready.append(Outcome(
                item, "failed", error_type="WorkerLostError",
                error_message=(
                    f"spec lost {count} worker(s) (requeue_limit="
                    f"{self.requeue_limit} exceeded); last: {reason}"
                ),
            ))
            return
        self._queue.append(item)

    def _mark_idle(self, name: str) -> None:
        worker = self._workers.get(name)
        if worker is None or not worker.alive:
            return
        if not worker.leases and name not in self._idle:
            self._idle.append(name)
        self._dispatch()

    def _pick_worker(self, item: int) -> Optional[str]:
        if not self._idle:
            return None
        avoid = self._last_worker.get(item)
        for offset, name in enumerate(self._idle):
            if name != avoid:
                del self._idle[offset]
                return name
        return self._idle.popleft()  # only the avoided worker is free

    def _dispatch(self) -> None:
        while self._queue and self._idle:
            item = self._queue.popleft()
            if item in self._resolved or item in self._leases:
                continue
            name = self._pick_worker(item)
            if name is None:
                self._queue.appendleft(item)
                return
            worker = self._workers[name]
            self._lease_seq += 1
            lease = _Lease(
                worker=name, lease=self._lease_seq, started=time.monotonic()
            )
            self._leases[item] = lease
            worker.leases.add(item)
            self._journal("lease", item, worker=name, lease=lease.lease)
            try:
                worker.send({
                    "type": "work",
                    "item": item,
                    "lease": lease.lease,
                    "key": self._keys[item],
                    "spec": encode_spec(self._specs[item]),
                })
            except OSError as exc:
                self._drop_worker(name, f"send failed: {exc}")

    def _check_deadlines(self) -> None:
        now = time.monotonic()
        for name, worker in list(self._workers.items()):
            if now - worker.last_seen > self.heartbeat_grace:
                self._drop_worker(
                    name,
                    f"no heartbeat for {now - worker.last_seen:.2f}s "
                    f"(grace {self.heartbeat_grace:.2f}s)",
                )
        if self._timeout is None:
            return
        for item, lease in list(self._leases.items()):
            if now - lease.started > self._timeout:
                # the manager-side analog of the local pool's abandoned
                # worker: expire the lease; the worker keeps computing
                # into a deduped void and goes idle when it reports
                del self._leases[item]
                worker = self._workers.get(lease.worker)
                if worker is not None:
                    worker.leases.discard(item)
                self._resolved.add(item)
                self._journal("timeout", item, worker=lease.worker,
                              lease=lease.lease)
                self._ready.append(
                    Outcome(item, "timeout", worker=lease.worker)
                )

    def _journal(self, event: str, item: int, **fields) -> None:
        if self.journal_path is None:
            return
        append_event(self.journal_path, event, self._keys[item], item=item,
                     **fields)

    # --- introspection (tests, status displays) -------------------------------

    @property
    def workers(self) -> list[str]:
        return sorted(self._workers)


# --- worker -----------------------------------------------------------------


def _default_worker_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _serve_connection(
    sock: socket.socket,
    name: str,
    heartbeat_interval: float,
    echo: Callable[[str], None],
) -> str:
    """One manager session; returns ``"shutdown"`` (clean), ``"lost"``
    (connection dropped — reconnectable) or ``"rejected"``."""
    from repro.harness.parallel import _execute_packed

    stop = threading.Event()
    send_lock = threading.Lock()
    try:
        send_frame(sock, {
            "type": "hello",
            "proto": FABRIC_PROTO,
            "worker": name,
            "pid": os.getpid(),
            "host": socket.gethostname(),
        })
        reply = recv_frame(sock)
        if reply is None:
            return "lost"
        if reply.get("type") == "reject":
            echo(f"worker {name}: rejected by manager: "
                 f"{reply.get('reason', 'no reason given')}")
            return "rejected"
        if reply.get("type") != "welcome":
            return "rejected"
        assigned = str(reply.get("worker", name))
        interval = float(reply.get("heartbeat", heartbeat_interval))

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    with send_lock:
                        send_frame(sock, {"type": "heartbeat"})
                except OSError:
                    return

        threading.Thread(
            target=beat, name=f"fabric-heartbeat-{assigned}", daemon=True
        ).start()
        echo(f"worker {assigned}: joined manager")

        while True:
            frame = recv_frame(sock)
            if frame is None:
                return "lost"
            ftype = frame.get("type")
            if ftype == "shutdown":
                try:
                    with send_lock:
                        send_frame(sock, {"type": "goodbye"})
                except OSError:
                    pass
                return "shutdown"
            if ftype != "work":
                continue
            try:
                spec = decode_spec(frame["spec"])
                packed = _execute_packed(spec)
            except Exception as exc:  # undecodable spec, import error, ...
                packed = _packed_failure(exc)
            doc = {
                "type": "result",
                "item": frame["item"],
                "lease": frame["lease"],
                "key": frame.get("key", ""),
            }
            if packed[0] == "ok":
                doc["status"] = "ok"
                doc["result"] = packed[1].to_checkpoint_dict()
            else:
                doc["status"] = "failed"
                doc["error"] = {
                    "type": packed[1],
                    "message": packed[2],
                    "traceback": packed[3],
                }
            with send_lock:
                send_frame(sock, doc)
    except (OSError, FrameError):
        return "lost"
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass


def worker_loop(
    host: str,
    port: int,
    *,
    name: Optional[str] = None,
    reconnect: float = 0.0,
    heartbeat_interval: float = 0.5,
    echo: Optional[Callable[[str], None]] = None,
) -> int:
    """Run one fabric worker until the manager says shutdown.

    ``reconnect`` is the window (seconds) during which a refused or
    dropped connection is retried — it covers both "worker started
    before the manager" and "manager crashed and is being restarted
    with ``--resume``".  Returns a process exit code: 0 after a clean
    shutdown, 1 when the connection could not be (re)established inside
    the window or the manager rejected the handshake.
    """
    echo = echo or (lambda msg: None)
    name = name or _default_worker_name()
    deadline = time.monotonic() + max(reconnect, 0.0)
    announced = False
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
        except OSError:
            if time.monotonic() >= deadline:
                echo(f"worker {name}: cannot reach manager at {host}:{port}")
                return 1
            if not announced:
                announced = True
                echo(f"worker {name}: waiting for manager at {host}:{port}")
            time.sleep(0.25)
            continue
        announced = False
        status = _serve_connection(sock, name, heartbeat_interval, echo)
        if status == "shutdown":
            echo(f"worker {name}: manager finished; exiting")
            return 0
        if status == "rejected":
            return 1
        # connection lost: open a fresh reconnect window
        if reconnect <= 0.0:
            return 1
        echo(f"worker {name}: connection lost; retrying for {reconnect:.0f}s")
        deadline = time.monotonic() + reconnect
        time.sleep(0.25)
