"""Differential tests for the paper-scale engine optimizations.

Every fast path added for paper-scale runs (indexed message matching,
steady-state fast-forward, streaming trace aggregation) ships with a
reference mode; these tests drive both implementations through the
same randomized or benchmark workloads and demand bitwise-equal
behavior (matching order, fast-forward statistics).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, SlowRank
from repro.harness import run
from repro.machine import CLUSTER_A
from repro.perfmon.trace import TraceCollector
from repro.smpi.mailbox import ANY_SOURCE, ANY_TAG, Mailbox, SendArrival
from repro.spechpc import get_benchmark
from repro.validate.golden import fingerprint


# --------------------------------------------------------------------------
# indexed vs. linear message matching
# --------------------------------------------------------------------------

# op: (is_post, src, tag) — src/tag -1 on a post means wildcard
_ops = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=-1, max_value=3),
        st.integers(min_value=-1, max_value=2),
    ),
    min_size=1,
    max_size=60,
)


def _drive(indexed: bool, ops) -> list:
    """Run one op sequence through a mailbox; return the match trace."""
    box = Mailbox(rank=0, indexed=indexed)
    trace = []
    for i, (is_post, src, tag) in enumerate(ops):
        if is_post:
            arr, _post = box.post_recv(src, tag, now=float(i))
            trace.append(("post", i, None if arr is None else arr.nbytes))
        else:
            # arrivals always carry a concrete source and tag
            arrival = SendArrival(
                src=max(src, 0), tag=max(tag, 0), nbytes=i,
                arrival_time=float(i), rendezvous=False, intra_node=True,
            )
            post = box.deliver(arrival)
            trace.append(
                ("deliver", i, None if post is None else post.posted_time)
            )
    trace.append(("left-arr", [a.nbytes for a in box.iter_arrivals()]))
    trace.append(("left-post", [p.posted_time for p in box.iter_posts()]))
    trace.append(("pending", box.pending_arrivals, box.pending_posts))
    return trace


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_indexed_matcher_equals_linear_scan(ops):
    """Identical match pairs, in identical order, for any interleaving of
    posts (incl. ANY_SOURCE/ANY_TAG) and arrivals."""
    assert _drive(True, ops) == _drive(False, ops)


def test_wildcard_picks_earliest_arrival_across_keys():
    """A wildcard receive must take the earliest-stamped arrival even when
    several per-key queues are non-empty (the indexed matcher's scan)."""
    ops = [
        (False, 2, 1),           # arrival #0
        (False, 0, 0),           # arrival #1
        (False, 2, 1),           # arrival #2
        (True, ANY_SOURCE, ANY_TAG),   # must match arrival #0
        (True, ANY_SOURCE, 0),         # must match arrival #1
        (True, 2, ANY_TAG),            # must match arrival #2
    ]
    trace = _drive(True, ops)
    assert trace[3] == ("post", 3, 0)
    assert trace[4] == ("post", 4, 1)
    assert trace[5] == ("post", 5, 2)
    assert trace == _drive(False, ops)


def test_wildcard_posts_compete_by_stamp_order():
    """An arrival matching both a wildcard and an exact post must take the
    earlier-posted one, whichever shape it is."""
    ops = [
        (True, ANY_SOURCE, ANY_TAG),   # post @ t=0
        (True, 1, 0),                  # post @ t=1
        (False, 1, 0),                 # matches the wildcard (older stamp)
        (False, 1, 0),                 # then the exact post
    ]
    trace = _drive(True, ops)
    assert trace[2] == ("deliver", 2, 0.0)
    assert trace[3] == ("deliver", 3, 1.0)
    assert trace == _drive(False, ops)


# --------------------------------------------------------------------------
# steady-state fast-forward
# --------------------------------------------------------------------------

_REF = dict(fast_forward=False, wavefront=False, matcher="linear")


def _fields(r):
    return (r.elapsed, r.sim_elapsed, r.counters, r.time_by_kind, r.energy)


@pytest.mark.parametrize("name", ["lbm", "tealeaf", "cloverleaf"])
def test_fast_forward_engages_bit_identical(name):
    bench = get_benchmark(name)
    fast = run(bench, CLUSTER_A, 24, sim_steps=10)
    ref = run(bench, CLUSTER_A, 24, sim_steps=10, **_REF)
    assert fast.meta["fast_forward"] is True
    assert ref.meta["fast_forward"] is False
    assert _fields(fast) == _fields(ref)


def test_fast_forward_ineligible_structure_falls_back():
    """minisweep's journal is not column-uniform: with only the column
    program allowed (``wavefront=False``) the replay must decline and the
    run stays bit-identical; with the level-set program allowed (the
    default) the same structure engages and is still bit-identical."""
    bench = get_benchmark("minisweep")
    column_only = run(bench, CLUSTER_A, 12, sim_steps=6, wavefront=False)
    ref = run(bench, CLUSTER_A, 12, sim_steps=6, **_REF)
    assert column_only.meta["fast_forward"] is False
    assert _fields(column_only) == _fields(ref)
    wf = run(bench, CLUSTER_A, 12, sim_steps=6)
    assert wf.meta["wavefront"] is True
    assert _fields(wf) == _fields(ref)


@pytest.mark.parametrize(
    "flags",
    [
        dict(fast_forward=False),
        dict(matcher="linear"),
        dict(perturb_seed=0),
    ],
    ids=lambda f: next(iter(f)),
)
def test_reference_flags_independently_bit_identical(flags):
    """Each reference flag alone restores the old code path and must not
    change a single bit of the result (``perturb_seed`` runs the
    pure-heap engine with every replay tier off)."""
    bench = get_benchmark("lbm")
    fast = run(bench, CLUSTER_A, 24, sim_steps=10)
    ref = run(bench, CLUSTER_A, 24, sim_steps=10, **flags)
    assert _fields(fast) == _fields(ref)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(noise_sigma=0.02),
        dict(trace=True),
        dict(trace="streaming"),
        dict(perturb_seed=0),
        dict(sim_steps=2),
        dict(faults=FaultPlan(slow_ranks=(SlowRank(rank=1, factor=2.0),))),
    ],
    ids=["noise", "trace", "streaming-trace", "perturb", "short", "faults"],
)
def test_fast_forward_forced_off(kwargs):
    """Anything that perturbs or observes individual steps forces full
    event-level fidelity, and so does a run with fewer than two steps
    left after the one-step prologue."""
    kwargs.setdefault("sim_steps", 8)
    r = run(get_benchmark("lbm"), CLUSTER_A, 12, **kwargs)
    assert r.meta["fast_forward"] is False


def test_fast_forward_engages_at_three_steps():
    """Three steps leave two steps after the one-step prologue: the tier
    engages and the result is bit-identical to full simulation."""
    bench = get_benchmark("lbm")
    fast = run(bench, CLUSTER_A, 12, sim_steps=3)
    ref = run(bench, CLUSTER_A, 12, sim_steps=3, **_REF)
    assert fast.meta["fast_forward"] is True
    assert fingerprint(fast) == fingerprint(ref)


def test_prologue_simulates_one_step():
    """An engaged run simulates only step 0 in the event engine: at 8
    steps it processes fewer engine events than a full-DES run of 2
    steps."""
    bench = get_benchmark("lbm")
    engaged = run(bench, CLUSTER_A, 12, sim_steps=8)
    off = run(bench, CLUSTER_A, 12, sim_steps=2,
              fast_forward=False, wavefront=False)
    assert engaged.meta["fast_forward"] is True
    events = engaged.meta["metrics"]["engine"]["events"]
    assert events < off.meta["metrics"]["engine"]["events"]


def test_fast_forward_noisy_run_unchanged_by_flag():
    """With noise the flag is inert: identical results either way."""
    bench = get_benchmark("lbm")
    a = run(bench, CLUSTER_A, 12, sim_steps=8, noise_sigma=0.02, seed=7)
    b = run(bench, CLUSTER_A, 12, sim_steps=8, noise_sigma=0.02, seed=7,
            fast_forward=False)
    assert _fields(a) == _fields(b)


# --------------------------------------------------------------------------
# streaming trace collection
# --------------------------------------------------------------------------

def test_streaming_trace_aggregates_exactly():
    bench = get_benchmark("lbm")
    full = run(bench, CLUSTER_A, 12, sim_steps=4, trace=True)
    stream = run(bench, CLUSTER_A, 12, sim_steps=4, trace="streaming")
    tf, ts = full.trace, stream.trace
    assert ts.streaming and not tf.streaming
    assert len(ts) == len(tf)                      # every interval counted
    assert ts.intervals == ()                      # but none retained
    assert ts.span() == tf.span()
    assert ts.time_by_kind() == tf.time_by_kind()
    for rank in range(12):
        assert ts.time_by_kind(rank) == tf.time_by_kind(rank)
    assert ts.fractions() == tf.fractions()
    assert ts.dominant_mpi_kind() == tf.dominant_mpi_kind()
    # simulation outcome is unaffected by the collection mode
    assert _fields(full) == _fields(stream)


def test_streaming_ascii_timeline_degrades_gracefully():
    stream = run(get_benchmark("lbm"), CLUSTER_A, 8, sim_steps=3,
                 trace="streaming").trace
    art = stream.ascii_timeline()
    assert "aggregated" in art and "%" in art      # summary, not a crash


def test_streaming_ring_keeps_tail():
    tc = TraceCollector(streaming=True, ring=3)
    for i in range(7):
        tc.record(rank=i % 2, t0=float(i), t1=float(i + 1), kind="compute")
    assert len(tc) == 7
    assert [iv.t0 for iv in tc.intervals] == [4.0, 5.0, 6.0]
    assert [iv.t0 for iv in tc.for_rank(0)] == [4.0, 6.0]
    art = tc.ascii_timeline()
    assert "3 most recent" in art and "7" in art
    # aggregates still cover all recorded intervals
    assert tc.time_by_kind() == {"compute": 7.0}
    assert tc.span() == (0.0, 7.0)


def test_for_rank_uses_per_rank_index():
    tc = TraceCollector()
    tc.record(rank=1, t0=2.0, t1=3.0, kind="compute")
    tc.record(rank=0, t0=0.0, t1=1.0, kind="MPI_Send")
    tc.record(rank=1, t0=0.5, t1=1.0, kind="MPI_Recv")
    ivs = tc.for_rank(1)
    assert [iv.t0 for iv in ivs] == [0.5, 2.0]     # sorted by start
    assert tc.for_rank(2) == []
    assert tc.time_by_kind(0) == {"MPI_Send": 1.0}
