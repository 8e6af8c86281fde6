"""Wavefront fast path: precomputed KBA dependency DAG with vectorized
level-set replay.

The paper's wavefront codes keep their step boundaries *skewed*:
minisweep's KBA sweep has **no collective at all** (Table 1) and its
rendezvous serialization ripple (Sect. 4.1.5) keeps rank clocks at a step
boundary apart by design.  The column program of the steady-state replay
(:class:`~repro.spechpc.fastforward.VectorReplayer`) needs every rank to
run the same op sequence; this module holds the program for every other
journal shape, skewed or synchronized: the
:class:`~repro.spechpc.fastforward.ReplayController` compiles it at the
PARK boundary (boundary 1) whenever the journal is not column-uniform
(tealeaf, cloverleaf, pot3d, sph-exa, hpgmgfv, weather, minisweep at
multi-rank scale) or the column program is switched off.

How it works
------------
The protocol is the controller's (step 0 simulated and observed, a
two-step dry run at the PARK boundary whose lowered steps must be equal,
the observed step validated).  What differs is the replay:

* **DAG compilation** — the per-rank op journals are compiled *once* into
  a dependency DAG over their send/receive *post nodes*: each op depends
  on its program-order predecessor, and each wait additionally on its
  match partner's post node (the k-th send of a ``(dest, src, tag)``
  channel pairs with the k-th receive — MPI non-overtaking).  The
  engine's mailbox pairs by arrival order instead, which differs when a
  small eager message overtakes a larger one sent before it; the
  scalar cross-check then declines ``validation`` (hpgmgfv on ClusterA
  at 4 nodes) — the engine fix is the first open item of ROADMAP.md.
  Compilation requires the per-channel send and receive counts to
  balance within the step; otherwise matches would cross step
  boundaries and the program declines.
* **Level-set scheduling** — the DAG is leveled with a work-list pass
  over the per-rank chains (each rank contributes at most one frontier
  node, so leveling is O(total ops)).  Every level holds at most one op
  per rank — an *antidiagonal front* of the sweep — so the ops of a level
  can be batched into numpy lane arrays with no index collisions.
* **Vectorized replay** — a step executes as O(levels) batched array
  instructions instead of O(events) coroutine wakeups.  A level is one
  publish instruction (compute phases, sends and receive posts in one
  gather-add-scatter) and one wait kernel (every wait of the level on
  flat index arrays: ``start = max(P[x], A[y])``, then the engine's
  resume-then-pay step), so a whole front advances at once.  The
  statistics land once per step: each wait-like op leaves its pre- and
  post-op clock in a per-rank slot, and the step's increments, compute
  counters and message counts are folded into the accumulators one slot
  row at a time, in each rank's program order.

Bit-identity
------------
numpy float64 elementwise ``+``/``maximum`` are the same IEEE-754
double operations the scalar engine performs.  Each instruction applies
them to the same operands in the same per-rank program order (levels
strictly increase along every rank's chain), and every absolute time is
computed by the engine's own expressions (``_wait_step``, the
left-associated rendezvous sum) — **no** max-plus path-weight
precomputation, which would re-associate the adds and drift by ulps.
Three identities make the branch-free kernel exact for clocks
``r >= +0.0``: ``max(r + (f - r), r)`` is ``_wait_step``'s
``r + (f - r) if f > r else r``; ``x + 0.0 == x``, so zero pads
(eager legs, posts, slot pads in the statistics fold) change nothing;
and ``max(p, -inf) == p``, so a leg on the ``-inf`` sentinel never
moves a clock.
Before committing, the compiled program must reproduce the engine's own
observed step 0 bitwise (from boundary 0's clocks and statistics to
boundary 1's), and the scalar
:class:`~repro.spechpc.fastforward.Replayer` — the one-step clock
cross-check and the test reference — is checked on step 0's clocks.
A failure there stops the parked world and the harness re-runs the job
in full DES, so a decline is exact too.
"""

from __future__ import annotations

import collections
from typing import Optional, Sequence, Union

import numpy as np

from repro.spechpc.fastforward import (
    _COMPUTE_COUNTERS, ReplayUnsupported, _stats_arrays, _store_stats,
)


class WavefrontProgram:
    """A compiled level-set replay program (see the module docstring).

    The replay state is one float64 vector ``S``: the post time ``P`` of
    every send/receive post node, the arrival time ``A`` of every send
    (eager arrival or rendezvous RTS), a sentinel ``A[nposts] = -inf``
    and the rank clocks ``t``.  A level runs at most two instructions,
    and every index points into ``S``:

    ``("pub", dst, src, add)``
        ``S[dst] = S[src] + add``: the level's compute phases
        (``t[r] + sec``), sends (``P[node] = t[r] + 0.0``,
        ``A[node] = t[r] + lat1``) and receive posts
        (``P[node] = t[r] + 0.0``) in one gather-add-scatter.
    ``("wait", idx, legs, tidx, hidx)``
        every wait of the level in one kernel.  A wait is one leg, a
        sendrecv two (send, then receive); on a level that holds a
        sendrecv, the one-leg waits get a second leg on the sentinel,
        which leaves their clock as it is.  Per leg, two ``idx`` rows
        give ``start = max(P[x], A[y])`` (an eager send reads the
        sentinel as ``A[y]``), ``legs`` the constants of
        ``fin = start + hs + lat + xf + ov`` (all-zero columns dropped,
        uniform ones as scalars), and the clock moves to
        ``max(resume + (fin - resume), resume)`` with
        ``resume = max(start, t)``; the last ``idx`` row gathers ``t``.
        ``hidx`` scatters each lane's post- and pre-wait clock into its
        statistics slot.
    ``("coll", cmax, hpost, hpre)``
        full-communicator gate: fires at ``t.max()``, completes at
        ``t_fire + cmax`` (the scalar gate's ``max([0.0] + costs)``);
        each rank's post- and pre-gate clock goes to its slot.

    Statistics land once per step.  Each time kind owns a block of slot
    rows; a rank's k-th wait-like op (wait, sendrecv, collective) of a
    kind owns row k of that block, and its increment is post minus pre.
    The compute columns (``compute`` time and the eight counters) and
    the message columns (``messages``, ``msg_bytes``) are step-constant
    slot matrices.  At the end of each step :meth:`run` folds every
    block and matrix into its accumulators one slot row at a time, so
    each accumulator takes its rank's increments in program order, with
    ``+0.0`` as the pad of a slot the rank does not fill.
    """

    def __init__(
        self, program: list, nprocs: int, nposts: int, nlevels: int,
        total_ops: int, kinds: tuple, kind_base: list, computes: np.ndarray,
        compute_rows: np.ndarray, message_rows: np.ndarray,
    ) -> None:
        self._program = program
        self.nprocs = nprocs
        self._nposts = nposts
        self.nlevels = nlevels
        self.total_ops = total_ops
        self._kinds = kinds
        self._kind_base = kind_base
        self._computes = computes
        self._compute_rows = compute_rows
        self._message_rows = message_rows

    # --- compilation --------------------------------------------------------

    @classmethod
    def compile(cls, journals: list[list], nprocs: int) -> "WavefrontProgram":
        """Build the level-set program for one journaled step, or raise
        :class:`ReplayUnsupported` when the structure cannot be proven
        step-local and acyclic."""
        # --- pass 1: decode ops, assign post-node ids, build the
        # per-channel FIFO lists both sides of a match pair against.
        # Each send gets the id (sid) of its params in one table, keyed by
        # identity: a journal's sends share their params tuples, and
        # hashing the floats would cost more.
        nposts = 0
        send_chan: dict[tuple, list] = {}   # (dest, src, tag) -> [(node, sid)]
        recv_chan: dict[tuple, list] = {}   # (dest, src, tag) -> [node]
        send_ids: dict[int, int] = {}       # id(params) -> sid
        send_params: list[tuple] = []       # sid -> params
        kinds: dict[str, int] = {}          # time kind -> kind index
        rank_ops: list[list] = []
        rank_kinds: list[dict] = []         # per rank: kind -> wait-like ops
        total_ops = 0
        for r, ops in enumerate(journals):
            hid2req: dict[int, tuple] = {}
            decoded: list = []
            nkind: dict[int, int] = {}
            for op in ops:
                code = op[0]
                if code == "compute":
                    decoded.append(op)
                elif code == "isend":
                    _, hid, dest, tag, nbytes, params = op
                    sid = send_ids.get(id(params))
                    if sid is None:
                        sid = send_ids[id(params)] = len(send_params)
                        send_params.append(params)
                    node = nposts
                    nposts += 1
                    key = (dest, r, tag)
                    lst = send_chan.setdefault(key, [])
                    hid2req[hid] = ("s", key, len(lst), node,
                                    params[0] == "e", sid)
                    lst.append((node, sid))
                    decoded.append(("isend", node, sid, params[1], nbytes))
                elif code == "irecv":
                    _, hid, src, tag = op
                    node = nposts
                    nposts += 1
                    key = (r, src, tag)
                    lst = recv_chan.setdefault(key, [])
                    hid2req[hid] = ("r", key, len(lst), node)
                    lst.append(node)
                    decoded.append(("irecv", node))
                elif code == "wait":
                    _, hid, kind = op
                    req = hid2req.get(hid)
                    if req is None:
                        raise ReplayUnsupported(
                            "wavefront: wait on an unknown request"
                        )
                    k = kinds.setdefault(kind, len(kinds))
                    nkind[k] = nkind.get(k, 0) + 1
                    decoded.append(("wait", k, req))
                elif code == "srwait":
                    _, shid, rhid = op
                    sreq = hid2req.get(shid)
                    rreq = hid2req.get(rhid)
                    if (
                        sreq is None or rreq is None
                        or sreq[0] != "s" or rreq[0] != "r"
                    ):
                        raise ReplayUnsupported(
                            "wavefront: sendrecv with foreign requests"
                        )
                    k = kinds.setdefault("MPI_Sendrecv", len(kinds))
                    nkind[k] = nkind.get(k, 0) + 1
                    decoded.append(("srwait", k, sreq, rreq))
                elif code == "coll":
                    k = kinds.setdefault(op[1], len(kinds))
                    nkind[k] = nkind.get(k, 0) + 1
                    decoded.append(op)
                else:
                    raise ReplayUnsupported(
                        f"wavefront: unsupported op {code!r}"
                    )
            total_ops += len(decoded)
            rank_ops.append(decoded)
            rank_kinds.append(nkind)

        # step-invariance of the p2p pattern: every channel's send count
        # must equal its receive count *within* the step, else the FIFO
        # pairing would cross the step boundary and per-step replay lies
        for key in set(send_chan) | set(recv_chan):
            ns = len(send_chan.get(key, ()))
            nr = len(recv_chan.get(key, ()))
            if ns != nr:
                raise ReplayUnsupported(
                    "wavefront: per-channel send/recv counts differ within "
                    f"the step (dest={key[0]} src={key[1]} tag={key[2]}: "
                    f"{ns} send(s) vs {nr} recv(s)) — matches would cross "
                    "step boundaries"
                )

        # statistics slots: each time kind owns a block of rows, as many
        # as the most wait-like ops of that kind on one rank; a rank's
        # k-th op of a kind fills row k of the block
        kind_base = [0]
        for k in range(len(kinds)):
            kind_base.append(
                kind_base[-1] + max(c.get(k, 0) for c in rank_kinds)
            )
        pre = kind_base[-1] * nprocs    # offset of the pre-op clocks

        # --- pass 2: level the DAG with a work-list over the per-rank
        # chains.  node_level[n] == 0 means "not produced yet"; a wait
        # blocks until its partner's post node has a level.  Each op
        # appends a fixed-width record to its level's flat lists (pub:
        # dst, src, add; waits: clock, post slot, pre slot, then two
        # (x, y, sid) legs) or to a statistics list.
        arr0 = nposts               # S offset of the arrival times A
        sentinel = 2 * nposts       # S index of A[nposts] = -inf
        clock0 = sentinel + 1       # S offset of the rank clocks t
        noleg = (sentinel, sentinel, -1)    # a plain wait's second leg
        node_level = [0] * nposts
        lvl = [0] * nprocs
        pos = [0] * nprocs
        ncompute = [0] * nprocs     # per-rank slot counters
        nmessage = [0] * nprocs
        nwait = [kind_base[:-1] for _ in range(nprocs)]
        levels: dict[int, tuple] = collections.defaultdict(lambda: ([], []))
        computes: list = []   # rank, slot, sec and the eight counters
        messages: list = []   # rank, slot, bytes
        gates: dict[tuple, list] = {}   # -> [{rank: (cost, row)}, maxlvl, level]
        colls: dict[int, tuple] = {}    # level -> (cmax, per-rank rows)

        def advance(r: int) -> bool:
            """Level rank ``r``'s ops until one blocks; True if any
            was leveled."""
            ops = rank_ops[r]
            rows = nwait[r]
            clock = clock0 + r
            p = first = pos[r]
            level = lvl[r]
            while p < len(ops):
                op = ops[p]
                code = op[0]
                if code == "compute":
                    level += 1
                    levels[level][0].extend((clock, clock, op[1]))
                    computes.extend((r, ncompute[r]))
                    computes.extend(op[1:])
                    ncompute[r] += 1
                elif code == "isend":
                    _, node, sid, lat1, nbytes = op
                    level += 1
                    levels[level][0].extend(
                        (node, clock, 0.0, arr0 + node, clock, lat1)
                    )
                    messages.extend((r, nmessage[r], nbytes))
                    nmessage[r] += 1
                    node_level[node] = level
                elif code == "irecv":
                    node = op[1]
                    level += 1
                    levels[level][0].extend((node, clock, 0.0))
                    node_level[node] = level
                elif code == "wait":
                    leg = resolve(op[2])
                    if leg is None:
                        break
                    level = max(level, leg[0]) + 1
                    post = rows[op[1]] * nprocs + r
                    rows[op[1]] += 1
                    waits = levels[level][1]
                    waits.extend((clock, post, post + pre))
                    waits.extend(leg[1:])
                    waits.extend(noleg)
                elif code == "srwait":
                    sleg = resolve(op[2])
                    rleg = resolve(op[3])
                    if sleg is None or rleg is None:
                        break
                    level = max(level, sleg[0], rleg[0]) + 1
                    post = rows[op[1]] * nprocs + r
                    rows[op[1]] += 1
                    waits = levels[level][1]
                    waits.extend((clock, post, post + pre))
                    waits.extend(sleg[1:])
                    waits.extend(rleg[1:])
                elif code == "coll":
                    _, kind, ordinal, cost, nbytes = op
                    gate = gates.setdefault((kind, ordinal), [{}, 0, None])
                    arrivals = gate[0]
                    if r not in arrivals:
                        k = kinds[kind]
                        arrivals[r] = (cost, rows[k])
                        rows[k] += 1
                        if nbytes is not None:
                            messages.extend((r, nmessage[r], nbytes))
                            nmessage[r] += 1
                        if level > gate[1]:
                            gate[1] = level
                    if len(arrivals) < nprocs:
                        break  # parked at the gate
                    if gate[2] is None:
                        gate[2] = gate[1] + 1
                        colls[gate[2]] = (
                            max([0.0] + [c for c, _ in arrivals.values()]),
                            [arrivals[q][1] for q in range(nprocs)],
                        )
                    level = gate[2]
                else:  # pragma: no cover - pass 1 rejects unknown codes
                    raise ReplayUnsupported(f"wavefront: unsupported op {code!r}")
                p += 1
            pos[r] = p
            lvl[r] = level
            return p > first

        def resolve(req: tuple) -> Optional[tuple]:
            """(partner_level, x, y, sid) of a wait leg, or None while
            the partner's post node is not leveled yet."""
            if req[0] == "s":
                _, key, ordinal, own, eager, sid = req
                if eager:
                    # eager send completes locally — no partner
                    return (0, own, sentinel, sid)
                peer = recv_chan[key][ordinal]
                plevel = node_level[peer]
                if plevel == 0:
                    return None
                return (plevel, peer, arr0 + own, sid)
            _, key, ordinal, ownp = req
            peer, sid = send_chan[key][ordinal]
            plevel = node_level[peer]
            if plevel == 0:
                return None
            return (plevel, ownp, arr0 + peer, sid)

        pending = set(range(nprocs))
        while pending:
            progressed = False
            for r in sorted(pending):
                moved = advance(r)
                if pos[r] >= len(rank_ops[r]):
                    pending.discard(r)
                    progressed = True
                elif moved:
                    progressed = True
            if not progressed and pending:
                raise ReplayUnsupported(
                    "wavefront: dependency DAG is cyclic or has cross-step "
                    "dependencies — level-set replay would stall"
                )
        # levels only grow along a chain, so the deepest is a chain's last
        max_level = max(lvl, default=0)
        del rank_ops, send_chan, recv_chan, gates   # leveled: free them

        # --- pass 3: one pub and one wait instruction per level, and the
        # step-constant statistics matrices
        const_rows = [
            p[2:] if p[0] == "r" else (0.0, 0.0, 0.0, p[2])
            for p in send_params
        ] + [(0.0, 0.0, 0.0, 0.0)]          # sid -1: the sentinel leg
        send_consts = np.array(const_rows, dtype=np.float64)
        nonzero_consts = [tuple(c for c in row if c) for row in const_rows]

        def leg_consts(sid: np.ndarray) -> tuple:
            """The constants a leg adds: zero columns dropped, uniform
            ones as scalars."""
            if (sid == sid[0]).all():
                return nonzero_consts[sid[0]]
            out = []
            for col in send_consts[sid].T:
                if (col == col[0]).all():
                    if col[0]:
                        out.append(float(col[0]))
                else:
                    out.append(col)
            return tuple(out)

        program: list = []
        for level in range(1, max_level + 1):
            pub, waits = levels[level]
            if pub:
                rec = np.array(pub, dtype=np.float64).reshape(-1, 3)
                program.append(("pub", rec[:, 0].astype(np.intp),
                                rec[:, 1].astype(np.intp), rec[:, 2].copy()))
            if waits:
                rec = np.array(waits, dtype=np.intp).reshape(-1, 9)
                if (rec[:, 7] != sentinel).any():   # a sendrecv: two legs
                    idx = rec[:, [3, 4, 6, 7, 0]].T.copy()
                    legs = (leg_consts(rec[:, 5]), leg_consts(rec[:, 8]))
                else:
                    idx = rec[:, [3, 4, 0]].T.copy()
                    legs = (leg_consts(rec[:, 5]),)
                program.append(("wait", idx, legs, rec[:, 0].copy(),
                                rec[:, 1:3].T.copy()))
            if level in colls:
                cmax, rows = colls[level]
                post = np.array(rows, dtype=np.intp) * nprocs + np.arange(nprocs)
                program.append(("coll", cmax, post, post + pre))

        rec = np.array(computes, dtype=np.float64).reshape(-1, 11)
        rank, slot = rec[:, 0].astype(np.intp), rec[:, 1].astype(np.intp)
        compute_rows = np.zeros((max(ncompute, default=0), 9, nprocs))
        compute_rows[slot, :, rank] = rec[:, 2:]
        rec = np.array(messages, dtype=np.float64).reshape(-1, 3)
        rank, slot = rec[:, 0].astype(np.intp), rec[:, 1].astype(np.intp)
        message_rows = np.zeros((max(nmessage, default=0), 2, nprocs))
        message_rows[slot, 0, rank] = 1.0
        message_rows[slot, 1, rank] = rec[:, 2]
        return cls(program, nprocs, nposts, max_level, total_ops,
                   tuple(kinds), kind_base, np.array(ncompute) > 0,
                   compute_rows, message_rows)

    # --- execution ----------------------------------------------------------

    def run(
        self,
        t_start: Union[float, Sequence[float]],
        nsteps: int,
        stats: Optional[list] = None,
    ) -> list[float]:
        """Replay ``nsteps`` steps from per-rank (or one synchronized)
        start clock(s); with ``stats`` also lands every statistics update
        exactly as the communicator would."""
        n = self.nprocs
        clock0 = 2 * self._nposts + 1
        # post/arrival times, the sentinel and the clocks; every node is
        # rewritten at its level before any same-step read, so no
        # per-step reset
        S = np.zeros(clock0 + n, dtype=np.float64)
        S[clock0 - 1] = -np.inf
        t = S[clock0:]
        t[:] = t_start
        # each wait slot's post-op (block 0) and pre-op (block 1) clock;
        # a slot no op of its rank fills stays 0.0 in both
        kinds = self._kinds
        H = np.zeros((2, self._kind_base[-1], n), dtype=np.float64)
        slots = H.reshape(-1)
        if stats is not None:
            tacc, touched, cacc = _stats_arrays(stats, ("compute",) + kinds)
            wait_acc = np.array([tacc[k] for k in kinds]).reshape(len(kinds), n)
            wait_hit = np.array([touched[k] for k in kinds]).reshape(len(kinds), n)
            compute_acc = np.array(
                [tacc["compute"]] + [cacc[nm] for nm in _COMPUTE_COUNTERS]
            )
            message_acc = np.array([cacc["messages"], cacc["msg_bytes"]])
            inc = np.empty(H.shape[1:])
            if nsteps > 0:
                touched["compute"] |= self._computes
        maximum, add = np.maximum, np.add

        for _ in range(nsteps):
            for ins in self._program:
                code = ins[0]
                if code == "pub":
                    _, dst, src, off = ins
                    S[dst] = S[src] + off
                elif code == "wait":
                    _, idx, legs, tidx, hidx = ins
                    g = S[idx]
                    cur = g[-1]
                    row = 0
                    for cs in legs:
                        start, fin = g[row], g[row + 1]
                        maximum(start, fin, out=start)
                        if cs:
                            add(start, cs[0], out=fin)
                            for c in cs[1:]:
                                fin += c
                        else:
                            fin[:] = start
                        maximum(start, cur, out=start)      # resume
                        fin -= start
                        fin += start
                        maximum(fin, start, out=fin)
                        cur = fin
                        row += 2
                    S[tidx] = cur
                    slots[hidx] = g[row - 1:]
                else:  # coll
                    _, cmax, hpost, hpre = ins
                    slots[hpre] = t
                    t_fire = float(t.max())
                    finish = t_fire + cmax
                    t[:] = (
                        t_fire + (finish - t_fire) if finish > t_fire
                        else t_fire
                    )
                    slots[hpost] = t
            if stats is not None:
                self._fold(H, inc, wait_acc, wait_hit, compute_acc,
                           message_acc)
        if stats is not None:
            tacc = {"compute": compute_acc[0]}
            tacc.update(zip(kinds, wait_acc))
            touched.update(zip(kinds, wait_hit))
            cacc = dict(zip(_COMPUTE_COUNTERS, compute_acc[1:]))
            cacc["messages"], cacc["msg_bytes"] = message_acc
            _store_stats(stats, tacc, touched, cacc)
        return t.tolist()

    def _fold(self, H, inc, wait_acc, wait_hit, compute_acc,
              message_acc) -> None:
        """Land one step's statistics: every slot row, in slot order."""
        np.subtract(H[0], H[1], out=inc)
        base = self._kind_base
        for k in range(len(self._kinds)):
            rows = inc[base[k]:base[k + 1]]
            if len(rows):
                wait_hit[k] |= rows.max(axis=0) > 0.0
            acc = wait_acc[k]
            for row in rows:
                acc += row
        for row in self._compute_rows:
            compute_acc += row
        for row in self._message_rows:
            message_acc += row
