"""Nonblocking-communication request handles."""

from __future__ import annotations

from repro.des.simulator import Signal


class Request:
    """Handle returned by ``isend``/``irecv``.

    ``done_signal`` fires when the operation completes; its value is the
    completion time (and, for receives, the message payload descriptor).
    The communicator passes it in: a fresh :class:`Signal` for a send,
    the mailbox match signal for a receive.
    """

    __slots__ = ("kind", "peer", "tag", "nbytes", "done_signal", "posted_at")

    def __init__(
        self, kind: str, peer: int, tag: int, nbytes: int, posted_at: float,
        done_signal: Signal,
    ) -> None:
        if kind not in ("send", "recv"):
            raise ValueError(f"unknown request kind {kind!r}")
        self.kind = kind
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.posted_at = posted_at
        self.done_signal = done_signal

    @property
    def done(self) -> bool:
        return self.done_signal.fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return f"<Request {self.kind} peer={self.peer} tag={self.tag} {state}>"
