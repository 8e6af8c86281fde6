"""Wavefront fast path: precomputed KBA dependency DAG with vectorized
level-set replay.

The steady-state fast-forward (:mod:`repro.spechpc.fastforward`) requires
globally synchronized step boundaries — every journal ends in a
full-communicator collective and all ranks cross each boundary at one
instant.  The paper's wavefront codes violate both: minisweep's KBA sweep
has **no collective at all** (Table 1) and its rendezvous serialization
ripple (Sect. 4.1.5) keeps the pipeline *skewed* — rank clocks at a step
boundary differ by design.  This module holds the program of the
second replay tier, for exactly that shape: the
:class:`~repro.spechpc.fastforward.ReplayController` compiles it at the
PARK boundary (boundary 1) when the synchronized tier declines (or is
switched off).  The tier follows the boundary shape and the program the
journal shape, so the synchronized tier replays on this program too
whenever its journal is not column-uniform
(:class:`~repro.spechpc.fastforward.VectorReplayer` rejects it):
tealeaf, cloverleaf, pot3d, sph-exa and hpgmgfv at multi-rank scale.

How it works
------------
The protocol is the controller's (step 0 simulated and observed, a
two-step dry run at the PARK boundary whose lowered steps must be equal,
the observed step validated).  What differs is the replay:

* **DAG compilation** — the per-rank op journals are compiled *once* into
  a dependency DAG over their send/receive *post nodes*: each op depends
  on its program-order predecessor, and each wait additionally on its
  match partner's post node (the k-th send of a ``(dest, src, tag)``
  channel pairs with the k-th receive — MPI non-overtaking, exactly the
  mailbox's FIFO).  Compilation requires the per-channel send and receive
  counts to balance within the step; otherwise matches would cross step
  boundaries and the tier declines.
* **Level-set scheduling** — the DAG is leveled with a work-list pass
  over the per-rank chains (each rank contributes at most one frontier
  node, so leveling is O(total ops)).  Every level holds at most one op
  per rank — an *antidiagonal front* of the sweep — so the ops of a level
  can be batched into numpy lane arrays with no index collisions.
* **Vectorized replay** — a step executes as O(levels) batched array
  instructions instead of O(events) coroutine wakeups: one
  ``np.maximum`` over predecessor post/arrival arrays plus the per-rank
  cost vectors advances a whole front at once.

Bit-identity
------------
numpy float64 elementwise ``+``/``maximum``/``where`` are the same
IEEE-754 double operations the scalar engine performs.  Each instruction
applies them to the same operands in the same per-rank program order
(levels strictly increase along every rank's chain), and every absolute
time is computed by the engine's own expressions (``_wait_step``, the
left-associated rendezvous sum) — **no** max-plus path-weight
precomputation, which would re-associate the adds and drift by ulps.
Before committing, the compiled program must reproduce the engine's own
observed step 0 bitwise (from boundary 0's clocks and statistics to
boundary 1's), and the scalar
:class:`~repro.spechpc.fastforward.Replayer` — the one-step clock
cross-check and the test reference — is checked on step 0's clocks.
A failure there stops the parked world and the harness re-runs the job
in full DES, so a decline is exact too.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.spechpc.fastforward import (
    _COMPUTE_COUNTERS, ReplayUnsupported, _stats_arrays, _store_stats,
)


class WavefrontProgram:
    """A compiled level-set replay program (see the module docstring).

    Instruction set (one tuple per (level, kind) group; ``lanes`` are the
    ranks the instruction advances, ``nodes`` index the flat post-time
    ``P`` / arrival-time ``A`` arrays):

    ``("compute", lanes, sec, *counter_cols)``
        ``t[lanes] += sec`` plus the eight compute counters.
    ``("send", lanes, nodes, lat1, nbytes)``
        publish ``P[nodes] = t`` and ``A[nodes] = t + lat1`` (eager
        transfer time or rendezvous RTS latency) and count the message.
    ``("post", lanes, nodes)``
        publish ``P[nodes] = t`` for a posted receive.
    ``("waite", kind, lanes, own, ov)``
        wait on an own *eager* send: completes at ``P[own] + ov``,
        fired at ``P[own]``.
    ``("waitsr", kind, lanes, own, peer, hs, lat, xf, ov)``
        wait on an own *rendezvous* send: starts at
        ``max(P[peer_recv], A[own])``.
    ``("waitre", kind, lanes, ownp, peer, ov)`` /
    ``("waitrr", kind, lanes, ownp, peer, hs, lat, xf, ov)``
        wait on an own receive matched by an eager / rendezvous send:
        starts at ``max(P[ownp], A[peer_send])``.
    ``("srwait", lanes, send_leg, recv_leg)``
        sendrecv completion: both legs sequentially, one
        ``MPI_Sendrecv`` time entry.
    ``("coll", kind, cmax, nb_lanes, nb_vals)``
        full-communicator gate: fires at ``t.max()``, completes at
        ``t_fire + cmax`` (the scalar gate's ``max([0.0] + costs)``).
    """

    def __init__(
        self, program: list, nprocs: int, nposts: int, nlevels: int,
        total_ops: int,
    ) -> None:
        self._program = program
        self.nprocs = nprocs
        self._nposts = nposts
        self.nlevels = nlevels
        self.total_ops = total_ops

    # --- compilation --------------------------------------------------------

    @classmethod
    def compile(cls, journals: list[list], nprocs: int) -> "WavefrontProgram":
        """Build the level-set program for one journaled step, or raise
        :class:`ReplayUnsupported` when the structure cannot be proven
        step-local and acyclic."""
        # --- pass 1: decode ops, assign post-node ids, build the
        # per-channel FIFO lists both sides of a match pair against
        nposts = 0
        send_chan: dict[tuple, list] = {}   # (dest, src, tag) -> [(node, params)]
        recv_chan: dict[tuple, list] = {}   # (dest, src, tag) -> [node]
        rank_ops: list[list] = []
        total_ops = 0
        for r, ops in enumerate(journals):
            hid2req: dict[int, tuple] = {}
            decoded: list = []
            for op in ops:
                code = op[0]
                if code == "compute":
                    decoded.append(op)
                elif code == "isend":
                    _, hid, dest, tag, nbytes, params = op
                    node = nposts
                    nposts += 1
                    lst = send_chan.setdefault((dest, r, tag), [])
                    hid2req[hid] = ("s", (dest, r, tag), len(lst), node, params)
                    lst.append((node, params))
                    decoded.append(("isend", node, nbytes, params))
                elif code == "irecv":
                    _, hid, src, tag = op
                    node = nposts
                    nposts += 1
                    lst = recv_chan.setdefault((r, src, tag), [])
                    hid2req[hid] = ("r", (r, src, tag), len(lst), node)
                    lst.append(node)
                    decoded.append(("irecv", node))
                elif code == "wait":
                    _, hid, kind = op
                    req = hid2req.get(hid)
                    if req is None:
                        raise ReplayUnsupported(
                            "wavefront: wait on an unknown request"
                        )
                    decoded.append(("wait", kind, req))
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
                    decoded.append(("srwait", sreq, rreq))
                elif code == "coll":
                    decoded.append(op)
                else:
                    raise ReplayUnsupported(
                        f"wavefront: unsupported op {code!r}"
                    )
            total_ops += len(decoded)
            rank_ops.append(decoded)

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

        # --- pass 2: level the DAG with a work-list over the per-rank
        # chains.  node_level[n] == 0 means "not produced yet"; a wait
        # blocks until its partner's post node has a level.
        node_level = [0] * nposts
        lvl = [0] * nprocs
        pos = [0] * nprocs
        groups: dict[tuple, list] = {}
        gates: dict[tuple, dict] = {}
        max_level = 0

        def emit(key: tuple, lane_entry: tuple) -> None:
            groups.setdefault(key, []).append(lane_entry)

        def advance(r: int) -> bool:
            nonlocal max_level
            ops = rank_ops[r]
            moved = False
            while pos[r] < len(ops):
                op = ops[pos[r]]
                code = op[0]
                if code == "compute":
                    level = lvl[r] + 1
                    emit((level, "compute"), (r,) + op[1:])
                elif code == "isend":
                    _, node, nbytes, params = op
                    level = lvl[r] + 1
                    emit((level, "send"), (r, node, params[1], nbytes))
                    node_level[node] = level
                elif code == "irecv":
                    _, node = op
                    level = lvl[r] + 1
                    emit((level, "post"), (r, node))
                    node_level[node] = level
                elif code == "wait":
                    _, kind, req = op
                    resolved = resolve(r, req)
                    if resolved is None:
                        return moved
                    plevel, entry, shape = resolved
                    level = max(lvl[r], plevel) + 1
                    emit((level, "wait" + shape, kind), (r,) + entry)
                elif code == "srwait":
                    _, sreq, rreq = op
                    rs = resolve(r, sreq)
                    rr = resolve(r, rreq)
                    if rs is None or rr is None:
                        return moved
                    slevel, sentry, sshape = rs
                    rlevel, rentry, rshape = rr
                    level = max(lvl[r], slevel, rlevel) + 1
                    emit(
                        (level, "srwait", sshape, rshape),
                        (r, sentry, rentry),
                    )
                elif code == "coll":
                    _, kind, ordinal, cost, nbytes = op
                    gate = gates.setdefault(
                        (kind, ordinal),
                        {"ranks": {}, "maxlvl": 0, "level": None},
                    )
                    if r not in gate["ranks"]:
                        gate["ranks"][r] = (cost, nbytes)
                        if lvl[r] > gate["maxlvl"]:
                            gate["maxlvl"] = lvl[r]
                    if len(gate["ranks"]) < nprocs:
                        return moved  # parked at the gate
                    if gate["level"] is None:
                        level = gate["maxlvl"] + 1
                        gate["level"] = level
                        costs = [c for c, _ in gate["ranks"].values()]
                        nb = [
                            (rr_, n) for rr_, (_, n) in
                            sorted(gate["ranks"].items()) if n is not None
                        ]
                        emit(
                            (level, "coll", kind, ordinal),
                            (max([0.0] + costs), nb),
                        )
                    level = gate["level"]
                else:  # pragma: no cover - pass 1 rejects unknown codes
                    raise ReplayUnsupported(f"wavefront: unsupported op {code!r}")
                lvl[r] = level
                if level > max_level:
                    max_level = level
                pos[r] += 1
                moved = True
            return moved

        def resolve(r: int, req: tuple) -> Optional[tuple]:
            """(partner_level, lane_entry_tail, shape) for a wait, or
            None while the partner's post node is not leveled yet."""
            if req[0] == "s":
                _, key, ordinal, own, params = req
                if params[0] == "e":
                    # eager send completes locally — no partner
                    return (0, (own, params[2]), "e")
                peer = recv_chan[key][ordinal]
                plevel = node_level[peer]
                if plevel == 0:
                    return None
                _, _, hs, lat, xf, ov = params
                return (plevel, (own, peer, hs, lat, xf, ov), "sr")
            _, key, ordinal, ownp = req
            peer, sparams = send_chan[key][ordinal]
            plevel = node_level[peer]
            if plevel == 0:
                return None
            if sparams[0] == "e":
                return (plevel, (ownp, peer, sparams[2]), "re")
            _, _, hs, lat, xf, ov = sparams
            return (plevel, (ownp, peer, hs, lat, xf, ov), "rr")

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

        # --- pass 3: batch each (level, kind) group into array lanes
        def iarr(vals):
            return np.array(vals, dtype=np.intp)

        def farr(vals):
            return np.array(vals, dtype=np.float64)

        def leg_arrays(shape: str, entries: list) -> tuple:
            if shape == "e":
                return ("e", iarr([e[0] for e in entries]),
                        farr([e[1] for e in entries]))
            # sr / re / rr all carry (own, peer, consts...)
            consts = tuple(
                farr([e[i] for e in entries]) for i in range(2, len(entries[0]))
            )
            return (shape, iarr([e[0] for e in entries]),
                    iarr([e[1] for e in entries])) + consts

        program: list = []
        for key in sorted(groups, key=lambda k: (k[0], str(k[1:]))):
            entries = groups[key]
            gkind = key[1]
            lanes = iarr([e[0] for e in entries])
            if gkind == "compute":
                program.append(
                    ("compute", lanes) + tuple(
                        farr([e[i] for e in entries]) for i in range(1, 10)
                    )
                )
            elif gkind == "send":
                program.append((
                    "send", lanes,
                    iarr([e[1] for e in entries]),
                    farr([e[2] for e in entries]),
                    farr([e[3] for e in entries]),
                ))
            elif gkind == "post":
                program.append(("post", lanes, iarr([e[1] for e in entries])))
            elif gkind.startswith("wait"):
                shape = gkind[4:]
                kind = key[2]
                program.append(
                    ("wait" + shape, kind, lanes)
                    + leg_arrays(shape, [e[1:] for e in entries])[1:]
                )
            elif gkind == "srwait":
                sshape, rshape = key[2], key[3]
                program.append((
                    "srwait", lanes,
                    leg_arrays(sshape, [e[1] for e in entries]),
                    leg_arrays(rshape, [e[2] for e in entries]),
                ))
            else:  # coll — exactly one entry per gate
                kind = key[2]
                cmax, nb = entries[0]
                if nb:
                    nb_lanes = iarr([x[0] for x in nb])
                    nb_vals = farr([x[1] for x in nb])
                else:
                    nb_lanes = nb_vals = None
                program.append(("coll", kind, cmax, nb_lanes, nb_vals))
        return cls(program, nprocs, nposts, max_level, total_ops)

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
        if isinstance(t_start, (int, float)):
            t = np.full(n, float(t_start), dtype=np.float64)
        else:
            t = np.array([float(x) for x in t_start], dtype=np.float64)
        # post-time / arrival-time value arrays; every node is rewritten
        # at its level before any same-step read, so no per-step reset
        P = np.zeros(self._nposts, dtype=np.float64)
        A = np.zeros(self._nposts, dtype=np.float64)
        tacc = cacc = touched = None
        if stats is not None:
            kinds = set()
            for ins in self._program:
                if ins[0].startswith("wait") or ins[0] == "coll":
                    kinds.add(ins[1])
                elif ins[0] == "srwait":
                    kinds.add("MPI_Sendrecv")
                elif ins[0] == "compute":
                    kinds.add("compute")
            tacc, touched, cacc = _stats_arrays(stats, kinds)
        maximum, where = np.maximum, np.where

        def leg(legdesc: tuple):
            """(fin, fire) arrays of one wait leg."""
            shape = legdesc[0]
            if shape == "e":
                _, own, ov = legdesc
                post = P[own]
                return post + ov, post
            if shape == "sr":
                _, own, peer, hs, lat, xf, ov = legdesc
                start = maximum(P[peer], A[own])
                return start + hs + lat + xf + ov, start
            if shape == "re":
                _, ownp, peer, ov = legdesc
                start = maximum(P[ownp], A[peer])
                return start + ov, start
            _, ownp, peer, hs, lat, xf, ov = legdesc
            start = maximum(P[ownp], A[peer])
            return start + hs + lat + xf + ov, start

        for _ in range(nsteps):
            for ins in self._program:
                code = ins[0]
                if code == "compute":
                    lanes, sec = ins[1], ins[2]
                    t[lanes] += sec
                    if stats is not None:
                        tacc["compute"][lanes] += sec
                        touched["compute"][lanes] = True
                        for nm, col in zip(_COMPUTE_COUNTERS, ins[3:]):
                            cacc[nm][lanes] += col
                elif code == "send":
                    _, lanes, nodes, lat1, nbytes = ins
                    tl = t[lanes]
                    P[nodes] = tl
                    A[nodes] = tl + lat1
                    if stats is not None:
                        cacc["messages"][lanes] += 1.0
                        cacc["msg_bytes"][lanes] += nbytes
                elif code == "post":
                    _, lanes, nodes = ins
                    P[nodes] = t[lanes]
                elif code == "srwait":
                    _, lanes, sleg, rleg = ins
                    t0 = t[lanes]
                    cur = t0
                    for legdesc in (sleg, rleg):
                        fin, fire = leg(legdesc)
                        resume = maximum(fire, cur)
                        cur = where(fin > resume, resume + (fin - resume), resume)
                    if stats is not None:
                        mask = cur > t0
                        if mask.any():
                            sel = lanes[mask]
                            tacc["MPI_Sendrecv"][sel] += (cur - t0)[mask]
                            touched["MPI_Sendrecv"][sel] = True
                    t[lanes] = cur
                elif code == "coll":
                    _, kind, cmax, nb_lanes, nb_vals = ins
                    if stats is not None and nb_lanes is not None:
                        cacc["messages"][nb_lanes] += 1.0
                        cacc["msg_bytes"][nb_lanes] += nb_vals
                    t_fire = t.max()
                    finish = t_fire + cmax
                    resume = maximum(t_fire, t)
                    nt = where(finish > resume, resume + (finish - resume), resume)
                    if stats is not None:
                        mask = nt > t
                        tacc[kind] = where(mask, tacc[kind] + (nt - t), tacc[kind])
                        touched[kind] |= mask
                    t = nt
                else:  # waite / waitsr / waitre / waitrr
                    kind, lanes = ins[1], ins[2]
                    fin, fire = leg((code[4:],) + ins[3:])
                    tl = t[lanes]
                    resume = maximum(fire, tl)
                    nt = where(fin > resume, resume + (fin - resume), resume)
                    if stats is not None:
                        mask = nt > tl
                        if mask.any():
                            sel = lanes[mask]
                            tacc[kind][sel] += (nt - tl)[mask]
                            touched[kind][sel] = True
                    t[lanes] = nt
        if stats is not None:
            _store_stats(stats, tacc, touched, cacc)
        return t.tolist()
