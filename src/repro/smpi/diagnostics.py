"""Human-readable failure diagnostics for the simulated MPI layer.

Real-world send/recv mismatches either hang the job (a rank parks in a
receive that never matches) or leave unmatched traffic at finalize.  The
formatters here turn both into actionable reports: which ranks are stuck,
in which MPI call, on which peer/tag, for how long — the information an
ITAC trace would show.  They are shared by the enriched
:class:`~repro.des.simulator.DeadlockError` raised from
:meth:`~repro.smpi.runtime.MpiRuntime.launch` and by the
leftover-mailbox finalize error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.smpi.mailbox import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.smpi.mailbox import Mailbox


class RankCrashedError(RuntimeError):
    """Raised at finalize when one or more ranks crashed (fault injection)
    but the surviving ranks ran to completion — MPI semantics: a job with
    a lost rank has failed even if the survivors finished."""


class BlockedCall(NamedTuple):
    """What one rank is currently parked in (set by the communicator right
    before it yields a blocking ``Wait``, cleared on wake-up).  A
    NamedTuple, not a dataclass: the engine builds one per blocking
    wait."""

    rank: int
    op: str                 # e.g. "MPI_Recv", "MPI_Allreduce"
    peer: Optional[int]     # partner rank; None for collectives
    tag: Optional[int]      # message tag; None for collectives
    since: float            # simulated time the rank blocked at

    def describe(self, now: float) -> str:
        parts = []
        if self.peer is not None:
            parts.append("peer=*" if self.peer == ANY_SOURCE else f"peer={self.peer}")
        if self.tag is not None:
            parts.append("tag=*" if self.tag == ANY_TAG else f"tag={self.tag}")
        args = ", ".join(parts)
        return (
            f"rank {self.rank}: {self.op}({args}) blocked since "
            f"t={self.since:.6g}, waited {max(0.0, now - self.since):.6g}s"
        )


def _fmt_tag(tag: int) -> str:
    return "*" if tag == ANY_TAG else str(tag)


def _fmt_src(src: int) -> str:
    return "*" if src == ANY_SOURCE else str(src)


def format_mailbox_leftovers(mailboxes: list["Mailbox"], limit: int = 16) -> str:
    """Per-rank report of unmatched sends/recvs at finalize."""
    lines = []
    shown = 0
    for box in mailboxes:
        if box.idle():
            continue
        for arr in box._arrivals:
            if shown >= limit:
                break
            lines.append(
                f"  rank {box.rank}: unreceived send from rank {arr.src} "
                f"(tag={arr.tag}, {arr.nbytes} B"
                f"{', rendezvous' if arr.rendezvous else ''})"
            )
            shown += 1
        for post in box._posts:
            if shown >= limit:
                break
            lines.append(
                f"  rank {box.rank}: unmatched recv posted for "
                f"src={_fmt_src(post.src)}, tag={_fmt_tag(post.tag)} "
                f"(posted at t={post.posted_time:.6g})"
            )
            shown += 1
    total = sum(
        box.pending_arrivals + box.pending_posts for box in mailboxes
    )
    if shown < total:
        lines.append(f"  ... and {total - shown} more")
    return "\n".join(lines)


def format_deadlock(
    now: float,
    blocked_ranks: list[int],
    blocked_calls: dict[int, BlockedCall],
    crashed: dict[int, float],
    mailboxes: list["Mailbox"],
) -> str:
    """Full deadlock report: stuck ranks, their parked MPI calls, any
    crashed ranks, and leftover mailbox traffic."""
    lines = [
        f"MPI deadlock at t={now:.6g}: "
        f"{len(blocked_ranks)} rank(s) blocked forever"
    ]
    for rank in blocked_ranks:
        call = blocked_calls.get(rank)
        if call is not None:
            lines.append("  " + call.describe(now))
        else:
            lines.append(f"  rank {rank}: blocked outside any tracked MPI call")
    for rank, t in sorted(crashed.items()):
        lines.append(f"  rank {rank}: CRASHED at t={t:.6g} (fault injection)")
    leftovers = format_mailbox_leftovers(mailboxes)
    if leftovers:
        lines.append("unmatched traffic:")
        lines.append(leftovers)
    return "\n".join(lines)
