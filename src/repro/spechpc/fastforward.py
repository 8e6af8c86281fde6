"""Steady-state fast-forward: analytic advancement of periodic steps.

SPEChpc benchmark bodies simulate ``ctx.sim_steps`` *representative* time
steps whose structure is identical step over step.  The event-level
engine nevertheless pays the full price for every step.  This module
detects the steady state **by observation** and then advances the
remaining steps with a pure-Python replay that performs *exactly the same
floating-point operations* the event engine would, so the final per-rank
statistics, counters, and makespan are bit-identical to the full
simulation.

Why replay, not delta extrapolation
-----------------------------------
Per-step *deltas* of the accumulated times are **not** exactly periodic:
all event arithmetic happens in absolute time (``end = start + cost``),
so the rounding of each addition depends on the magnitude of the
accumulated clock — the same step costs a last-ulp-different delta at
``t≈3`` than at ``t≈6`` (binade effects).  Multiplying a measured delta
by N therefore diverges bitwise.  What *is* stable is the step's
**op structure**: the sequence of MPI calls and their pricing constants
(phase seconds, message sizes, per-byte costs).  The replayer re-executes
that op sequence with the engine's own expressions — each absolute-time
addition is performed at its true magnitude — which reproduces the exact
accumulator arithmetic without generators, signals, or heap events.

Protocol (driven by :class:`StepLoop` at step boundaries)
---------------------------------------------------------
One :class:`ReplayController` runs it for every code, whether its steps
end in a full-communicator collective (all ranks cross each boundary at
one instant) or keep the rank clocks skewed (minisweep's KBA ripple,
weather's halo pipeline): the boundary shape decides nothing, the
journal shape picks the compiled program.

* boundary 0: every rank notes its clock and a copy of its
  ``RankStats``.  The engine simulates step 0 with no instrumentation
  at all.
* boundary 1 (PARK): every rank notes its clock and parks on the
  decision signal.  The last arrival dry-runs every rank's body for
  **two** steps with the Tier-A profiler
  (:func:`~repro.predict.profile.profile_rank`) and lowers each recorded
  step to a replay journal (:func:`lower_step`), priced with the
  communicator's own expressions.  A body the dry run cannot follow
  (wildcard receives, payload-carrying sends, data reductions, reading
  the clock, waits on requests from before the step) declines; so does
  a rank whose two lowered steps differ — that equality is the
  periodicity proof.  It verifies quiescence (mailboxes empty, no
  pending events) and the scalar :class:`Replayer` must reproduce step
  0's clocks.  Then it picks the **program by journal shape**: a
  column-uniform journal compiles to :class:`VectorReplayer`, every
  other journal to a :class:`~repro.spechpc.wavefront.WavefrontProgram`
  (a journal neither accepts declines ``structure``).  It **validates
  by observation**: the program's replay of the journal, started from
  boundary 0's clocks and statistics, must land bitwise on boundary
  1's — clocks, every ``time_by_kind`` entry and every counter.  Then
  the program replays the remaining ``sim_steps - 1`` steps, applying
  per-rank statistics directly, and fires the signal with every rank's
  final clock; ranks land on it and their bodies finish.

The scalar :class:`Replayer` is the one-step clock cross-check and the
test reference: in production it replays exactly one step per engaged
run and keeps no statistics.

The dry run happens after the engine finished step 0 on every rank, so
its first step only retraces control flow that already terminated, and
its second runs what the engine's step 1 would run.  The one gap: a
body that behaves differently under the engine than under the dry run,
and only from step 1 on, is no longer observed (no shipped body
inspects its communicator's type).

A decline at PARK — no allowed program applies, or a check fails — has
one exit: the last rank raises a private exception that carries the
``(code, reason)`` pair and stops the DES world with no further step
simulated; :func:`~repro.harness.runner.run` re-executes the job with
the replay off (recording ``declined.<code>``), so a decline yields the
full-DES answer by construction and pays the one-step prologue twice.

Fidelity is forced (the controller is never created) for runs with
noise, fault injection, tracing, invariant checking, schedule
perturbation, fewer than three steps (two left to replay), or both
programs off.  The shared gating lives in :func:`replay_ineligibility`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Callable, Generator, Optional, Sequence, Union,
)

import numpy as np

from repro.des.simulator import Signal, Wait
from repro.model.collectives import collective_cost
from repro.predict.profile import (
    BlockingRecv, BlockingSend, Coll, ComputeOp, ProfileUnsupported, RecvPost,
    SendPost, SendRecv, WaitAll, WaitOne, profile_rank,
)
from repro.smpi.runtime import RankStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.smpi.comm import Communicator
    from repro.smpi.runtime import MpiRuntime


class ReplayUnsupported(Exception):
    """The recorded op structure cannot be replayed (falls back to full
    event-level simulation; never escapes the controller)."""


def replay_ineligibility(
    *,
    noise: Any = None,
    faults: Any = None,
    trace: Any = None,
    checker: Any = None,
    perturb_seed: Optional[int] = None,
    sim_steps: int = 0,
) -> Optional[tuple[str, str]]:
    """Why a run can never engage the replay, or ``None`` if it may.

    This is the single source of truth for the *structural* gating of
    the steady-state replay, whichever program it compiles: anything
    that perturbs or observes individual steps (noise, faults, tracing,
    invariant checking, schedule perturbation) or leaves no step to skip
    forces full fidelity.  Returns a
    ``(code, reason)`` pair — the code is a stable slug used for the
    ``wavefront.declined.<code>`` metric.
    """
    if noise is not None:
        return ("noise", "compute noise requires full fidelity")
    if faults is not None:
        return ("faults", "fault injection requires full fidelity")
    if trace is not None:
        return ("tracing", "tracing observes every step")
    if checker is not None:
        return ("invariants", "invariant checking observes every event")
    if perturb_seed is not None:
        return ("perturb", "schedule perturbation forbids fixed tie-breaks")
    if sim_steps < ReplayController.PARK + 2:
        return ("steps", "fewer than two steps left after the one-step "
                "prologue")
    return None


# --------------------------------------------------------------------------
# the step journal: one dry-run step, lowered to replay ops
# --------------------------------------------------------------------------

def _send_params(net, nbytes: int, intra: bool) -> tuple:
    """A send's pricing constants, as the communicator and the matching
    glue compute them."""
    if net.is_eager(nbytes):
        return ("e", net.transfer_time(nbytes, intra), net.per_message_overhead)
    bw = net.intra_node_bandwidth if intra else net.effective_bandwidth
    lat = net.intra_node_latency if intra else net.latency
    return (
        "r",
        lat,                          # RTS latency (arrival offset)
        net.rendezvous_handshake,
        lat,
        nbytes / bw,                  # the exact quotient the match uses
        net.per_message_overhead,
    )


def lower_step(ops: list, rank: int, runtime: "MpiRuntime",
               prices: dict) -> list:
    """Lower one rank's dry-run step — the ops a
    :class:`~repro.predict.profile.RecordingComm` recorded — to its
    replay journal: constant-only tuples (no absolute times), priced the
    way the communicator prices the same calls.

    Requests and collectives are numbered by their per-step ordinals, so
    the journal is step-invariant (the engine pairs collective gates by a
    global sequence number; the validation replay catches any
    mispairing).  ``prices`` memoizes send parameters and collective
    costs across the ranks of one runtime.  Raises
    :class:`~repro.predict.profile.ProfileUnsupported` for a wildcard
    receive or a wait on a request posted outside the step.
    """
    net = runtime.network
    journal: list = []
    hids: dict[int, int] = {}   # dry-run request id -> per-step ordinal
    nreq = ncoll = 0

    def isend(dest: int, tag: int, nbytes: int) -> int:
        nonlocal nreq
        intra = runtime.same_node(rank, dest)
        params = prices.get((nbytes, intra))
        if params is None:
            params = prices[(nbytes, intra)] = _send_params(net, nbytes, intra)
        hid, nreq = nreq, nreq + 1
        journal.append(("isend", hid, dest, tag, nbytes, params))
        return hid

    def irecv(src: int, tag: int) -> int:
        nonlocal nreq
        if src < 0 or tag < 0:
            raise ProfileUnsupported("wildcard receive")
        hid, nreq = nreq, nreq + 1
        journal.append(("irecv", hid, src, tag))
        return hid

    def own(req: int) -> int:
        hid = hids.pop(req, None)
        if hid is None:
            raise ProfileUnsupported("wait on a request from outside the step")
        return hid

    for op in ops:
        cls = op.__class__
        if cls is ComputeOp:
            journal.append((
                "compute", op.seconds, op.flops, op.simd_flops, op.mem_bytes,
                op.l3_bytes, op.l2_bytes, op.busy_seconds, op.heat_seconds,
                op.heat_busy_seconds,
            ))
        elif cls is SendPost:
            hids[op.req] = isend(op.dest, op.tag, op.nbytes)
        elif cls is RecvPost:
            hids[op.req] = irecv(op.source, op.tag)
        elif cls is WaitOne:
            journal.append(("wait", own(op.req), op.kind))
        elif cls is WaitAll:
            for req in op.reqs:
                journal.append(("wait", own(req), op.kind))
        elif cls is BlockingSend:
            journal.append(("wait", isend(op.dest, op.tag, op.nbytes), "MPI_Send"))
        elif cls is BlockingRecv:
            journal.append(("wait", irecv(op.source, op.tag), "MPI_Recv"))
        elif cls is SendRecv:
            # the communicator posts the receive first, then the send,
            # and completes the send leg before the receive leg
            rhid = irecv(op.source, op.tag)
            shid = isend(op.dest, op.tag, op.send_bytes)
            journal.append(("srwait", shid, rhid))
        elif cls is Coll:
            key = ("coll", op.kind, op.nbytes)
            cost = prices.get(key)
            if cost is None:
                cost = prices[key] = collective_cost(
                    op.kind, net, runtime.nprocs, runtime.nnodes, op.nbytes
                )
            journal.append(("coll", op.kind, ncoll, cost, op.nbytes))
            ncoll += 1
        else:  # pragma: no cover - RecordingComm and lowering share one op set
            raise ProfileUnsupported(f"unlowerable op {op!r}")
    return journal


# --------------------------------------------------------------------------
# replay
# --------------------------------------------------------------------------

class _ReplayRank:
    __slots__ = ("ops", "pos", "t", "reqs", "stage")

    def __init__(self, ops: list, t: float) -> None:
        self.ops = ops
        self.pos = 0
        self.t = t
        self.reqs: dict[int, tuple] = {}
        self.stage = 0      # srwait progress (0 = send leg, 1 = recv leg)


def _wait_step(t: float, fire_t: float, fin: float) -> float:
    """One completion-wait of the engine, in its exact arithmetic:
    resume at the signal's fire time if parked, then ``Delay(fin - now)``
    (the engine schedules at ``now + (fin - now)``, *not* at ``fin``)."""
    resume = fire_t if fire_t > t else t
    if fin > resume:
        return resume + (fin - resume)
    return resume


class Replayer:
    """Executes the recorded steady-state step in pure Python, one rank
    and one op at a time, clocks only.

    The reference the compiled programs answer to: the controller runs
    it for one step as the clock cross-check of every engaged run, and
    the tests replay journals on it against :class:`VectorReplayer` and
    :class:`~repro.spechpc.wavefront.WavefrontProgram`."""

    def __init__(self, journals: list[list], nprocs: int) -> None:
        self.journals = journals
        self.nprocs = nprocs

    def run(
        self, t_start: Union[float, Sequence[float]], nsteps: int
    ) -> list[float]:
        """Replay ``nsteps`` steps from ``t_start`` — a single
        synchronized instant or one clock per rank (skewed wavefront
        boundaries); returns the final per-rank clocks."""
        if isinstance(t_start, (int, float)):
            starts = [float(t_start)] * self.nprocs
        else:
            starts = [float(t) for t in t_start]
        ranks = [
            _ReplayRank(self.journals[r], starts[r]) for r in range(self.nprocs)
        ]
        for _ in range(nsteps):
            self._run_step(ranks)
            for rr in ranks:
                rr.pos = 0
                rr.reqs.clear()
        return [rr.t for rr in ranks]

    # --- one step ----------------------------------------------------------

    def _run_step(self, ranks: list[_ReplayRank]) -> None:
        # (dest, src, tag) -> [posts, arrivals]: FIFO lists, paired by
        # ordinal — MPI non-overtaking makes the k-th posted receive of a
        # key match the k-th arrival, exactly like the mailbox queues
        matches: dict[tuple[int, int, int], list] = {}
        # (kind, seq) -> [arrivals dict rank->t, cost]
        gates: dict[tuple[str, int], list] = {}
        pending = set(range(self.nprocs))
        while pending:
            progressed = False
            for r in sorted(pending):
                rr = ranks[r]
                moved = self._advance_rank(r, rr, matches, gates)
                if rr.pos >= len(rr.ops):
                    pending.discard(r)
                    progressed = True
                elif moved:
                    progressed = True
            if not progressed and pending:
                raise ReplayUnsupported(
                    "replay stalled: op structure has cross-step or "
                    "unresolvable dependencies"
                )

    def _advance_rank(self, r: int, rr: _ReplayRank, matches, gates) -> bool:
        """Run rank ``r`` until it blocks or exhausts its ops; returns
        True if at least one op completed."""
        ops = rr.ops
        moved = False
        while rr.pos < len(ops):
            op = ops[rr.pos]
            code = op[0]
            if code == "compute":
                rr.t = rr.t + op[1]
            elif code == "isend":
                _, hid, dest, tag, _, params = op
                key = (dest, r, tag)
                entry = matches.setdefault(key, [[], []])
                ordinal = len(entry[1])
                if params[0] == "e":
                    entry[1].append((rr.t + params[1], params))
                    # eager send completes locally: fires at post time
                    rr.reqs[hid] = ("done", rr.t + params[2], rr.t)
                else:
                    entry[1].append((rr.t + params[1], params))  # RTS latency
                    rr.reqs[hid] = ("send_rndv", key, ordinal)
            elif code == "irecv":
                _, hid, src, tag = op
                key = (r, src, tag)
                entry = matches.setdefault(key, [[], []])
                ordinal = len(entry[0])
                entry[0].append(rr.t)
                rr.reqs[hid] = ("recv", key, ordinal)
            elif code == "wait":
                resolved = self._resolve(rr, matches, rr.reqs[op[1]])
                if resolved is None:
                    return moved  # blocked on the peer's side of the match
                fin, fire_t = resolved
                rr.t = _wait_step(rr.t, fire_t, fin)
            elif code == "srwait":
                _, shid, rhid = op
                if rr.stage == 0:
                    resolved = self._resolve(rr, matches, rr.reqs[shid])
                    if resolved is None:
                        return moved
                    fin, fire_t = resolved
                    rr.t = _wait_step(rr.t, fire_t, fin)
                    rr.stage = 1
                resolved = self._resolve(rr, matches, rr.reqs[rhid])
                if resolved is None:
                    return moved
                fin, fire_t = resolved
                rr.t = _wait_step(rr.t, fire_t, fin)
                rr.stage = 0
            elif code == "coll":
                _, kind, seq, cost, _ = op
                gate = gates.setdefault((kind, seq), [{}, 0.0, None])
                arrivals = gate[0]
                if r not in arrivals:
                    arrivals[r] = rr.t
                    gate[1] = max(gate[1], cost)
                if len(arrivals) < self.nprocs:
                    return moved  # parked at the gate
                if gate[2] is None:
                    # resolve once per gate: the engine fires at the last
                    # arrival and completes max(arrivals) + max(costs)
                    t_fire = max(arrivals.values())
                    gate[2] = (t_fire, t_fire + gate[1])
                t_fire, finish = gate[2]
                rr.t = _wait_step(arrivals[r], t_fire, finish)
            else:
                raise ReplayUnsupported(f"unsupported op {code!r}")
            rr.pos += 1
            moved = True
        return moved

    def _resolve(self, rr: _ReplayRank, matches, req: tuple):
        """Completion (finish_time, fire_time) of a request, or None if
        the peer's half of the match is not known yet."""
        code = req[0]
        if code == "done":
            return req[1], req[2]
        _, key, ordinal = req
        entry = matches.get(key)
        if entry is None or len(entry[0]) <= ordinal or len(entry[1]) <= ordinal:
            return None
        post_t = entry[0][ordinal]
        arr_t, params = entry[1][ordinal]
        start = post_t if post_t > arr_t else arr_t
        if params[0] == "e":
            if code == "send_rndv":
                raise ReplayUnsupported("eager params on a rendezvous send")
            return start + params[2], start
        # rendezvous: both sides complete at the transfer end, in the
        # engine's exact left-associated expression
        _, _, handshake, lat, xfer, ov = params
        return start + handshake + lat + xfer + ov, start


# --------------------------------------------------------------------------
# vectorized replay (structurally uniform benchmarks)
# --------------------------------------------------------------------------

#: counter names a compute phase updates, in the communicator's order
_COMPUTE_COUNTERS = (
    "flops", "simd_flops", "mem_bytes", "l3_bytes", "l2_bytes",
    "busy_seconds", "heat_seconds", "heat_busy_seconds",
)


def _stats_arrays(stats: list, kinds) -> tuple[dict, dict, dict]:
    """The vectorized replayers' accumulators, read from every rank's
    ``RankStats``: per-kind times, per-kind "key present" masks, and
    per-counter values, each an array over ranks."""
    tacc = {
        k: np.array([s.time_by_kind.get(k, 0.0) for s in stats]) for k in kinds
    }
    touched = {
        k: np.array([k in s.time_by_kind for s in stats], dtype=bool)
        for k in kinds
    }
    cacc = {
        nm: np.array([s.counters.get(nm, 0.0) for s in stats])
        for nm in _COMPUTE_COUNTERS + ("messages", "msg_bytes")
    }
    return tacc, touched, cacc


def _store_stats(stats: list, tacc: dict, touched: dict, cacc: dict) -> None:
    """Write the accumulators back; a time kind appears in a rank's
    ``time_by_kind`` only if the engine would have added it."""
    times = [(k, arr.tolist(), touched[k].tolist()) for k, arr in tacc.items()]
    counts = [(nm, arr.tolist()) for nm, arr in cacc.items()]
    for i, s in enumerate(stats):
        tbk = s.time_by_kind
        for kind, vals, hit in times:
            if hit[i] or kind in tbk:
                tbk[kind] = vals[i]
        c = s.counters
        for nm, vals in counts:
            c[nm] = vals[i]


class VectorReplayer:
    """Column-vectorized replay: all ranks advance one op *column* at a
    time as numpy array operations.

    Compiles only when the journals are **structurally uniform**: every
    rank has the same op-kind sequence, every wait column resolves
    against the same own/peer columns on every rank (peers themselves
    may differ — they become gather indices), and all referenced columns
    precede the consuming column (so column order is a valid schedule).
    Stencil benchmarks on periodic grids (lbm's torus) satisfy this;
    for anything else :meth:`compile` raises :class:`ReplayUnsupported`
    and the controller replays on a
    :class:`~repro.spechpc.wavefront.WavefrontProgram` instead.

    Bit-identity: numpy float64 elementwise ``+``/``-``/``maximum``/
    ``where`` are the same IEEE-754 double operations the scalar engine
    performs, applied to the same operands in the same per-rank order,
    so the results (clocks, statistics, counters) are bitwise equal.
    The controller still checks the compiled program against the
    observed step 0, and the scalar replayer against its clocks,
    before trusting it.
    """

    def __init__(self, program: list, nprocs: int, ncols: int) -> None:
        self._program = program
        self.nprocs = nprocs
        #: replay depth: one level per op column
        self.nlevels = ncols

    # --- compilation --------------------------------------------------------

    @classmethod
    def compile(cls, journals: list[list], nprocs: int) -> "VectorReplayer":
        """Build the column program for one journaled step, or raise
        :class:`ReplayUnsupported` when the journals are not
        column-uniform."""
        ncols = len(journals[0])
        if any(len(j) != ncols for j in journals):
            raise ReplayUnsupported("vector: journal lengths differ")

        # per-rank request bookkeeping: hid -> (column, code), plus the
        # per-key FIFO column lists both sides of a match pair against
        hid_src = [dict() for _ in range(nprocs)]
        send_cols = [dict() for _ in range(nprocs)]   # (dest, tag) -> [col]
        recv_cols = [dict() for _ in range(nprocs)]   # (src, tag)  -> [col]
        send_ord = [dict() for _ in range(nprocs)]    # col -> ordinal
        recv_ord = [dict() for _ in range(nprocs)]    # col -> ordinal
        for r, ops in enumerate(journals):
            for j, op in enumerate(ops):
                code = op[0]
                if code == "isend":
                    hid_src[r][op[1]] = (j, "isend")
                    lst = send_cols[r].setdefault((op[2], op[3]), [])
                    send_ord[r][j] = len(lst)
                    lst.append(j)
                elif code == "irecv":
                    hid_src[r][op[1]] = (j, "irecv")
                    lst = recv_cols[r].setdefault((op[2], op[3]), [])
                    recv_ord[r][j] = len(lst)
                    lst.append(j)

        def uniform(values):
            first = values[0]
            for v in values:
                if v != first:
                    raise ReplayUnsupported(
                        f"vector: column not uniform ({first!r} vs {v!r})"
                    )
            return first

        def farr(col_vals):
            return np.array(col_vals, dtype=np.float64)

        def send_resolver(j, c):
            """Resolve a wait on the isend at column ``c`` (own send)."""
            mode = uniform([journals[r][c][5][0] for r in range(nprocs)])
            if mode == "e":
                ov = farr([journals[r][c][5][2] for r in range(nprocs)])
                return ("edone", c, ov)
            # rendezvous: completion needs the peer's posted-receive time
            pcols, peers = [], []
            for r in range(nprocs):
                op = journals[r][c]
                dest, tag = op[2], op[3]
                k = send_ord[r][c]
                posts = recv_cols[dest].get((r, tag))
                if posts is None or len(posts) <= k:
                    raise ReplayUnsupported("vector: send without a receive")
                pcols.append(posts[k])
                peers.append(dest)
            pcol = uniform(pcols)
            if pcol >= j or c >= j:
                raise ReplayUnsupported("vector: wait precedes its match")
            p = [journals[r][c][5] for r in range(nprocs)]
            return (
                "sendr", c, pcol, np.array(peers),
                farr([x[2] for x in p]), farr([x[3] for x in p]),
                farr([x[4] for x in p]), farr([x[5] for x in p]),
            )

        def recv_resolver(j, c):
            """Resolve a wait on the irecv at column ``c``."""
            scols, peers = [], []
            for r in range(nprocs):
                op = journals[r][c]
                src, tag = op[2], op[3]
                k = recv_ord[r][c]
                sends = send_cols[src].get((r, tag))
                if sends is None or len(sends) <= k:
                    raise ReplayUnsupported("vector: receive without a send")
                scols.append(sends[k])
                peers.append(src)
            scol = uniform(scols)
            if scol >= j or c >= j:
                raise ReplayUnsupported("vector: wait precedes its match")
            peer = np.array(peers)
            mode = uniform([journals[r][scol][5][0] for r in range(nprocs)])
            # sender-side params, pre-gathered per receiving rank
            p = [journals[pr][scol][5] for pr in peers]
            if mode == "e":
                return ("recve", c, scol, peer, farr([x[2] for x in p]))
            return (
                "recvr", c, scol, peer,
                farr([x[2] for x in p]), farr([x[3] for x in p]),
                farr([x[4] for x in p]), farr([x[5] for x in p]),
            )

        def resolver(j, hid_col):
            srcs = [hid_src[r].get(hid_col[r]) for r in range(nprocs)]
            if any(s is None for s in srcs):
                raise ReplayUnsupported("vector: wait on an unknown request")
            c = uniform([s[0] for s in srcs])
            code = uniform([s[1] for s in srcs])
            if code == "isend":
                return send_resolver(j, c)
            return recv_resolver(j, c)

        program = []
        for j in range(ncols):
            col = [journals[r][j] for r in range(nprocs)]
            code = uniform([op[0] for op in col])
            if code == "compute":
                program.append(
                    ("compute",) + tuple(
                        farr([op[i] for op in col]) for i in range(1, 10)
                    )
                )
            elif code == "isend":
                mode = uniform([op[5][0] for op in col])
                nbytes = farr([op[4] for op in col])
                lat1 = farr([op[5][1] for op in col])
                program.append(("send", j, lat1, nbytes))
            elif code == "irecv":
                program.append(("post", j))
            elif code == "wait":
                kind = uniform([op[2] for op in col])
                program.append(
                    ("wait", kind, resolver(j, [op[1] for op in col]))
                )
            elif code == "srwait":
                program.append((
                    "srwait",
                    resolver(j, [op[1] for op in col]),
                    resolver(j, [op[2] for op in col]),
                ))
            elif code == "coll":
                kind = uniform([op[1] for op in col])
                uniform([op[2] for op in col])  # per-step ordinal
                costs = [op[3] for op in col]
                has_nb = uniform([op[4] is not None for op in col])
                nbytes = farr([op[4] for op in col]) if has_nb else None
                # the scalar gate maxes costs starting from 0.0
                program.append(("coll", kind, max([0.0] + costs), nbytes))
            else:
                raise ReplayUnsupported(f"vector: unsupported op {code!r}")
        return cls(program, nprocs, ncols)

    # --- execution ----------------------------------------------------------

    def run(
        self,
        t_start: Union[float, Sequence[float]],
        nsteps: int,
        stats: Optional[list] = None,
    ) -> list[float]:
        """Replay ``nsteps`` steps from one synchronized or per-rank
        start clock(s); with ``stats`` also lands every statistics
        update exactly as the communicator would."""
        n = self.nprocs
        t = np.empty(n, dtype=np.float64)
        t[:] = t_start
        tacc = cacc = touched = None
        if stats is not None:
            kinds = {"compute"}
            for ins in self._program:
                if ins[0] == "wait" or ins[0] == "coll":
                    kinds.add(ins[1])
                elif ins[0] == "srwait":
                    kinds.add("MPI_Sendrecv")
            tacc, touched, cacc = _stats_arrays(stats, kinds)
            if any(ins[0] == "compute" for ins in self._program):
                # compute adds unconditionally, so the key always appears
                touched["compute"][:] = True
        maximum, where = np.maximum, np.where
        S: list = [None] * self.nlevels
        A: list = [None] * self.nlevels

        def resolve(res):
            """(fin, fire) arrays of one resolver."""
            mode = res[0]
            if mode == "edone":
                post = S[res[1]]
                return post + res[2], post
            if mode == "sendr":
                _, c, pcol, peer, hs, lat, xf, ov = res
                start = maximum(S[pcol][peer], A[c])
                return start + hs + lat + xf + ov, start
            if mode == "recve":
                _, c, scol, peer, ov = res
                start = maximum(S[c], A[scol][peer])
                return start + ov, start
            _, c, scol, peer, hs, lat, xf, ov = res
            start = maximum(S[c], A[scol][peer])
            return start + hs + lat + xf + ov, start

        for _ in range(nsteps):
            for ins in self._program:
                code = ins[0]
                if code == "compute":
                    sec = ins[1]
                    t = t + sec
                    if stats is not None:
                        tacc["compute"] += sec
                        for nm, col in zip(_COMPUTE_COUNTERS, ins[2:]):
                            cacc[nm] += col
                elif code == "send":
                    _, j, lat1, nbytes = ins
                    S[j] = t
                    A[j] = t + lat1
                    if stats is not None:
                        cacc["messages"] += 1.0
                        cacc["msg_bytes"] += nbytes
                elif code == "post":
                    S[ins[1]] = t
                elif code == "wait":
                    _, kind, res = ins
                    fin, fire = resolve(res)
                    resume = maximum(fire, t)
                    nt = where(fin > resume, resume + (fin - resume), resume)
                    if stats is not None:
                        mask = nt > t
                        tacc[kind] = where(mask, tacc[kind] + (nt - t), tacc[kind])
                        touched[kind] |= mask
                    t = nt
                elif code == "srwait":
                    _, sres, rres = ins
                    t0 = t
                    for res in (sres, rres):
                        fin, fire = resolve(res)
                        resume = maximum(fire, t)
                        t = where(fin > resume, resume + (fin - resume), resume)
                    if stats is not None:
                        mask = t > t0
                        tacc["MPI_Sendrecv"] = where(
                            mask, tacc["MPI_Sendrecv"] + (t - t0),
                            tacc["MPI_Sendrecv"],
                        )
                        touched["MPI_Sendrecv"] |= mask
                else:  # coll
                    _, kind, cmax, nbytes = ins
                    if stats is not None and nbytes is not None:
                        cacc["messages"] += 1.0
                        cacc["msg_bytes"] += nbytes
                    t_fire = t.max()
                    finish = t_fire + cmax
                    resume = maximum(t_fire, t)
                    nt = where(finish > resume, resume + (finish - resume), resume)
                    if stats is not None:
                        mask = nt > t
                        tacc[kind] = where(mask, tacc[kind] + (nt - t), tacc[kind])
                        touched[kind] |= mask
                    t = nt
        if stats is not None:
            _store_stats(stats, tacc, touched, cacc)
        return t.tolist()


# --------------------------------------------------------------------------
# controller + step loop
# --------------------------------------------------------------------------

class _ParkDeclined(Exception):
    """No allowed program applied, or a check failed, after every rank
    parked.  Raised by the last rank at the PARK boundary with the
    controller's ``(code, reason)`` decline, it stops the DES world with
    no further step simulated;
    :meth:`~repro.smpi.runtime.MpiRuntime.launch` lets it through and
    :func:`~repro.harness.runner.run` re-executes the job with the
    replay off, recording that code."""

    def __init__(self, declined: tuple[str, str]) -> None:
        super().__init__(declined[1])
        self.declined = declined


def _stats_copy(s: RankStats) -> RankStats:
    return RankStats(s.rank, s.node, s.domain, dict(s.time_by_kind),
                     dict(s.counters))


def _same_stats(a: list, b: list) -> bool:
    """Bitwise-equal ``time_by_kind`` and counters on every rank."""
    return all(
        x.time_by_kind == y.time_by_kind and x.counters == y.counters
        for x, y in zip(a, b)
    )


class ReplayController:
    """Per-run coordinator of the observation/decision/replay protocol.

    Created by the harness only for runs :func:`replay_ineligibility`
    lets through with at least one program on; one instance serves all
    ranks.  ``body`` is the per-rank program factory the runtime
    launched; the PARK boundary dry-runs it for the step journal.
    ``fast_forward`` allows :class:`VectorReplayer`, ``wavefront`` the
    :class:`~repro.spechpc.wavefront.WavefrontProgram`; the one rule
    (:meth:`_compile`) takes the column program if it is allowed and the
    journal is column-uniform, else the level-set program if it is
    allowed, else declines ``structure``.  Both programs
    share one protocol — ``compile`` raises :class:`ReplayUnsupported`,
    ``run(t_start, nsteps, stats)`` replays, ``nlevels`` is the replay
    depth reported as ``wavefront.levels``.
    """

    #: boundary index at which every rank parks; boundaries before it
    #: are observed (clocks and statistics), steps before it simulated
    PARK = 1

    def __init__(self, runtime: "MpiRuntime", body: Callable, sim_steps: int,
                 fast_forward: bool = True, wavefront: bool = True) -> None:
        self.runtime = runtime
        self.body = body
        self.sim_steps = sim_steps
        self.nprocs = n = runtime.nprocs
        self.fast_forward = fast_forward
        self.wavefront = wavefront
        #: boundary index -> per-rank clock, rank-indexed so skewed
        #: wavefront boundaries keep their per-rank identity
        self._clocks = [[0.0] * n for _ in range(self.PARK + 1)]
        #: per-rank ``RankStats`` copy at boundary 0
        self._stats0: list = [None] * n
        self._parked = 0
        self._park_signal = Signal("replay-decision")
        #: per-rank step journal (set by the dry run at PARK)
        self.journals: Optional[list[list]] = None
        #: the committed compiled program, its replay depth and the
        #: analytically-skipped op count, set on commit
        self.program = None
        self.levels = 0
        self.events_saved = 0

    # --- per-rank boundary hook -------------------------------------------

    def boundary(self, comm: "Communicator", idx: int) -> Optional[Signal]:
        """Called by every rank right before it starts step ``idx``.
        Returns the signal to park on at the PARK boundary, else None."""
        rt = self.runtime
        rank = comm.rank
        self._clocks[idx][rank] = rt.sim.now
        if idx < self.PARK:
            self._stats0[rank] = _stats_copy(rt.stats[rank])
            return None
        self._parked += 1
        if self._parked == self.nprocs:
            self._park_signal.fire(self._execute())
        return self._park_signal

    # --- the journal and its program ----------------------------------------

    def _record(self) -> Optional[tuple[str, str]]:
        """Dry-run every rank's body for two steps and lower step 0 to
        the step journal; returns the ``unsupported-op`` decline if the
        dry run cannot follow a body, and the ``validation`` decline if
        a rank's two lowered steps differ (the periodicity proof)."""
        # taken, not kept: the body closes over the run context, which
        # holds this controller, and a finished run must stay acyclic
        body, self.body = self.body, None
        rt = self.runtime
        prices: dict = {}
        journals = []
        for r in range(self.nprocs):
            try:
                steps = profile_rank(body, self.nprocs, r, nsteps=2).steps
                j0, j1 = (lower_step(ops, r, rt, prices) for ops in steps)
            except ProfileUnsupported as exc:
                return ("unsupported-op", f"unsupported op: rank {r}: {exc}")
            if j0 != j1:
                return ("validation", f"rank {r}: dry-run steps 0 and 1 differ")
            journals.append(j0)
        self.journals = journals
        return None

    def _compile(self):
        """The one program choice, by journal shape: a column-uniform
        journal compiles to :class:`VectorReplayer` when ``fast_forward``
        allows it, any other to a
        :class:`~repro.spechpc.wavefront.WavefrontProgram` when
        ``wavefront`` allows it.  A journal neither allowed program
        accepts stops the world with the ``structure`` decline, naming
        both reasons."""
        from repro.spechpc.wavefront import WavefrontProgram  # import cycle

        why = "column program disabled"
        if self.fast_forward:
            try:
                return VectorReplayer.compile(self.journals, self.nprocs)
            except ReplayUnsupported as exc:
                why = str(exc)
        if self.wavefront:
            try:
                return WavefrontProgram.compile(self.journals, self.nprocs)
            except ReplayUnsupported as exc:
                why = f"{why}; {exc}"
        else:
            why = f"{why}; level-set program disabled"
        declined = ("structure", why)
        # raised outside any handler, so the error chains no context
        raise _ParkDeclined(declined)

    # --- engagement ---------------------------------------------------------

    def _execute(self) -> list[float]:
        """Last rank at the PARK boundary: record the journal, then
        commit a program for it; returns every rank's final clock.  A
        decline of any kind stops the world instead
        (:class:`_ParkDeclined`)."""
        declined = self._record()
        if declined is None:
            try:
                return self._commit()
            except ReplayUnsupported as exc:
                declined = ("validation", str(exc))
        # raised outside the handler, so the error chains no context
        raise _ParkDeclined(declined)

    def _commit(self) -> list[float]:
        """Check quiescence, compile the journal, validate the program
        against the observed step 0, and replay the remaining steps on
        it."""
        rt = self.runtime
        n = self.nprocs
        journals = self.journals
        b0, b1 = self._clocks
        remaining = self.sim_steps - self.PARK
        if not all(m.idle() for m in rt.mailboxes):
            raise ReplayUnsupported("in-flight messages at the boundary")
        if rt.sim._heap or rt.sim._runq:
            raise ReplayUnsupported("pending events at the boundary")
        # the scalar cross-check: step 0 replayed on the scalar replayer
        # must land every rank bitwise on its observed PARK clock
        if Replayer(journals, n).run(b0, 1) != b1:
            raise ReplayUnsupported(
                "validation failed: scalar replay does not reproduce "
                "the simulated boundary clocks"
            )
        # compiled only here, where neither the DES step nor the scalar
        # check holds memory (peak RSS)
        prog = self._compile()
        # validation by observation: the program's replay of the journal
        # from boundary 0's clocks and statistics must land bitwise on
        # boundary 1's, clocks and statistics alike
        stats = self._stats0
        if prog.run(b0, 1, stats) != b1 or not _same_stats(stats, rt.stats):
            raise ReplayUnsupported(
                f"validation failed: {type(prog).__name__} replay of step 0 "
                "does not reproduce boundary 1"
            )
        finals = prog.run(b1, remaining, rt.stats)
        self.program = prog
        self.levels = prog.nlevels
        self.events_saved = remaining * sum(len(j) for j in journals)
        return finals

    # --- observability -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Post-run counters of the committed replay (the ``wavefront``
        metrics source; see :mod:`repro.obs.metrics`)."""
        return {
            "eligible": 1.0,
            "levels": float(self.levels),
            "events_saved": float(self.events_saved),
        }


class StepLoop:
    """Benchmark-side driver of the per-step protocol.

    Bodies iterate their representative steps as::

        loop = ctx.step_loop(comm)
        while (yield loop.next_step()):
            ... one step ...

    Without a controller this is a plain counter (no events, no time) —
    the loop is bit-identical to ``for _ in range(ctx.sim_steps)``.
    """

    __slots__ = ("_comm", "_ctl", "_total", "_idx")

    def __init__(self, comm: "Communicator", total: int,
                 ctl: Optional[ReplayController]) -> None:
        self._comm = comm
        self._ctl = ctl
        self._total = total
        self._idx = 0

    def next_step(self) -> Generator[Any, Any, bool]:
        if self._idx >= self._total:
            return False
        ctl = self._ctl
        if ctl is not None and self._idx <= ctl.PARK:
            sig = ctl.boundary(self._comm, self._idx)
            if sig is not None:
                t_final = (yield Wait(sig))[self._comm.rank]
                if t_final > self._comm.now:
                    # land on the replayed clock *exactly*: a
                    # Delay(t_final - now) would re-round the
                    # subtraction; call_at schedules at t_final itself
                    wake = Signal("replay-wake")
                    self._comm.runtime.sim.call_at(
                        t_final, lambda: wake.fire(None)
                    )
                    yield Wait(wake)
                self._idx = self._total
                return False
        self._idx += 1
        return True
