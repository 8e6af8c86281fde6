"""Tests for the validation subsystem: perturbation sanitizer,
cross-mode differential runner, and inline MPI invariants."""

import random

import pytest

from repro.des.simulator import Delay, Simulator
from repro.harness.runner import run
from repro.machine.registry import get_cluster
from repro.smpi.mailbox import ANY_SOURCE, Mailbox, RecvPost, SendArrival
from repro.spechpc.suite import get_benchmark
from repro.validate.differential import (
    REFERENCE_MODE,
    Mode,
    differential_run,
    flag_matrix,
)
from repro.validate.golden import fingerprint
from repro.validate.invariants import InvariantChecker, InvariantViolation
from repro.validate.perturb import _first_event_diff, sanitize


# --- the perturbation hooks actually perturb --------------------------------


def _dispatch_order(tie_seed, n=12):
    """Order in which n processes woken at the same timestamp run."""
    order = []
    sim = Simulator(fast_path=False, tie_seed=tie_seed)

    def mk(i):
        def body():
            yield Delay(1.0)
            order.append(i)

        return body

    for i in range(n):
        sim.spawn(f"p{i}", mk(i)())
    sim.run()
    return order


def test_simulator_tie_seed_reorders_same_time_events():
    identity = _dispatch_order(None)
    assert identity == list(range(12))  # unperturbed: insertion order
    orders = [_dispatch_order(seed) for seed in range(1, 6)]
    for order in orders:
        assert sorted(order) == list(range(12))  # a permutation, no loss
    assert any(order != identity for order in orders)  # ties really move
    assert _dispatch_order(3) == _dispatch_order(3)  # per-seed determinism


def test_simulator_tie_seed_never_crosses_timestamps():
    """Only *same-time* order is shuffled; causality is untouched."""
    events = []
    sim = Simulator(fast_path=False, tie_seed=7)

    def mk(i, delay):
        def body():
            yield Delay(delay)
            events.append((sim.now, i))

        return body

    for i in range(6):
        sim.spawn(f"p{i}", mk(i, 1.0 + (i % 3))())
    sim.run()
    times = [t for t, _ in events]
    assert times == sorted(times)
    assert {t for t in times} == {1.0, 2.0, 3.0}


def _arr(src, tag, t=0.0):
    return SendArrival(
        src=src, tag=tag, nbytes=8, arrival_time=t, rendezvous=False,
        intra_node=True,
    )


@pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "linear"])
def test_mailbox_shuffle_preserves_per_channel_fifo(indexed):
    """Same-channel messages match in send order under every shuffle."""
    for seed in range(8):
        mb = Mailbox(0, indexed=indexed, tie_shuffle=random.Random(seed))
        first, second = _arr(1, 7, t=1.0), _arr(1, 7, t=1.0)
        assert mb.deliver(first) is None
        assert mb.deliver(_arr(2, 7, t=1.0)) is None  # interloper channel
        assert mb.deliver(second) is None
        got1, _ = mb.post_recv(1, 7, now=1.0)
        got2, _ = mb.post_recv(1, 7, now=1.0)
        assert got1 is first and got2 is second


@pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "linear"])
def test_mailbox_shuffle_varies_cross_channel_ties(indexed):
    """A wildcard receive sees same-time cross-channel arrivals in an
    order that genuinely depends on the shuffle seed."""
    winners = set()
    for seed in range(16):
        mb = Mailbox(0, indexed=indexed, tie_shuffle=random.Random(seed))
        mb.deliver(_arr(1, 7, t=1.0))
        mb.deliver(_arr(2, 7, t=1.0))
        got, _ = mb.post_recv(ANY_SOURCE, 7, now=1.0)
        winners.add(got.src)
    assert winners == {1, 2}


def test_mailbox_shuffle_respects_arrival_time():
    """Shuffling never lets a later arrival beat an earlier one on a
    wildcard receive (only *ties* are legal freedom)."""
    for seed in range(8):
        mb = Mailbox(0, indexed=True, tie_shuffle=random.Random(seed))
        mb.deliver(_arr(1, 7, t=2.0))
        mb.deliver(_arr(2, 7, t=1.0))
        got, _ = mb.post_recv(ANY_SOURCE, 7, now=2.0)
        assert got.src == 2


# --- sanitizer ---------------------------------------------------------------


def test_sanitize_clean_benchmark_is_invariant():
    rep = sanitize("lbm", "A", 8, shuffles=5)
    assert rep.ok
    assert rep.shuffles == 5
    assert "invariant" in rep.summary()
    # the baseline is the production configuration
    base = run(get_benchmark("lbm"), get_cluster("A"), 8)
    assert fingerprint(base).digest == rep.baseline_digest


def test_perturbed_run_is_full_fidelity():
    r = run(get_benchmark("lbm"), get_cluster("A"), 8, perturb_seed=1)
    assert r.meta["fast_forward"] is False
    assert r.meta["perturb_seed"] == 1


def test_first_event_diff_reports_rank_and_time():
    class FakeTrace:
        def __init__(self, intervals):
            self.intervals = intervals

    class IV:
        def __init__(self, rank, t0, t1, kind):
            self.rank, self.t0, self.t1, self.kind = rank, t0, t1, kind

    a = FakeTrace([IV(0, 0.0, 1.0, "compute"), IV(1, 0.0, 2.0, "MPI_Wait")])
    b = FakeTrace([IV(0, 0.0, 1.0, "compute"), IV(1, 0.0, 2.5, "MPI_Wait")])
    msg = _first_event_diff(a, b)
    assert "rank=1" in msg and "2.5" in msg
    assert _first_event_diff(a, a) is None
    short = FakeTrace([IV(0, 0.0, 1.0, "compute")])
    assert "1 vs 2" in _first_event_diff(short, a)


def test_sanitize_rejects_bad_args():
    with pytest.raises(ValueError, match="shuffles"):
        sanitize("lbm", "A", 4, shuffles=0)


# --- differential ------------------------------------------------------------


def test_flag_matrix_shape():
    modes = flag_matrix()
    assert len(modes) == 6
    assert len(set(modes)) == 6
    assert modes[0] == REFERENCE_MODE
    labels = {m.label for m in modes}
    assert len(labels) == 6
    assert labels == {
        f"{m}+{t}" for m in ("linear", "indexed")
        for t in ("noff", "wf", "ff+wf")
    }
    # the traced modes: replay off
    assert sum(not (m.fast_forward or m.wavefront) for m in modes) == 2
    # every replay flag pair has its own label
    assert len({
        Mode(matcher="linear", fast_forward=ff, wavefront=wf).label
        for ff in (False, True) for wf in (False, True)
    }) == 4


def test_differential_run_conformant():
    rep = differential_run("soma", "A", 8, workers=False)
    assert rep.ok
    assert rep.modes == 6
    assert "conformant" in rep.summary()


def test_differential_run_workers_axis():
    rep = differential_run(
        "lbm", "A", 4, trace_diff=False, workers=True
    )
    assert rep.ok
    assert rep.modes == 7  # 6 engine modes + the workers=2 sweep


@pytest.mark.parametrize(
    ("bench_name", "engaged"),
    [
        # lbm's column-uniform journal also runs on the forced level-set
        # program; minisweep replays on it in both replay modes
        ("lbm", {"linear+wf", "linear+ff+wf",
                 "indexed+wf", "indexed+ff+wf"}),
        ("minisweep", {"linear+wf", "linear+ff+wf",
                       "indexed+wf", "indexed+ff+wf"}),
    ],
)
def test_differential_default_engages_replay_tiers(
    bench_name, engaged, monkeypatch
):
    """With its default step count the differential's replay axis
    compares an engaged replay with the full DES, not the DES with
    itself, and the forced level-set mode engages every code."""
    import repro.harness.runner as runner_mod

    real_run = runner_mod.run
    seen = {}

    def spy(*args, **kwargs):
        result = real_run(*args, **kwargs)
        if not kwargs.get("trace"):
            mode = Mode(matcher=kwargs["matcher"],
                        fast_forward=kwargs["fast_forward"],
                        wavefront=kwargs["wavefront"])
            seen[mode.label] = result.meta["fast_forward"]
        return result

    monkeypatch.setattr(runner_mod, "run", spy)
    rep = differential_run(bench_name, "A", 8, workers=False)
    assert rep.ok
    assert len(seen) == 6
    assert {label for label, on in seen.items() if on} == engaged


# --- invariants --------------------------------------------------------------


def test_invariants_pass_on_real_run():
    r = run(get_benchmark("tealeaf"), get_cluster("A"), 8, invariants=True)
    summary = r.meta["invariants"]
    assert summary["sends"] == summary["matches"] > 0
    assert summary["collectives"] > 0
    assert summary["clock_checks"] > 0
    assert r.meta["fast_forward"] is False  # checker forces full fidelity


def test_invariants_bit_identical_to_unchecked_run():
    bench, cluster = get_benchmark("tealeaf"), get_cluster("A")
    plain = run(bench, cluster, 8)
    checked = run(bench, cluster, 8, invariants=True)
    assert fingerprint(plain) == fingerprint(checked)


def test_invariant_non_overtaking():
    c = InvariantChecker(2)
    first, second = _arr(0, 5), _arr(0, 5)
    c.on_send(first, 0, 1)
    c.on_send(second, 0, 1)
    post = RecvPost(src=0, tag=5, posted_time=0.0)
    with pytest.raises(InvariantViolation, match="non-overtaking"):
        c.on_match(second, post, 1, 1.0)


def test_invariant_conservation_unknown_message():
    c = InvariantChecker(2)
    with pytest.raises(InvariantViolation, match="conservation"):
        c.on_match(_arr(0, 5), RecvPost(0, 5, 0.0), 1, 1.0)


def test_invariant_wildcard_match_validity():
    c = InvariantChecker(2)
    a = _arr(0, 5)
    c.on_send(a, 0, 1)
    wrong_post = RecvPost(src=3, tag=5, posted_time=0.0)
    with pytest.raises(InvariantViolation, match="matching"):
        c.on_match(a, wrong_post, 1, 1.0)


def test_invariant_causality():
    c = InvariantChecker(2)
    a = _arr(0, 5, t=5.0)
    c.on_send(a, 0, 1)
    with pytest.raises(InvariantViolation, match="causality"):
        c.on_match(a, RecvPost(0, 5, 0.0), 1, 1.0)


def test_invariant_collective_sequence():
    c = InvariantChecker(2)
    c.on_collective(0, "MPI_Barrier", 0, 0.0)
    with pytest.raises(InvariantViolation, match="sequence"):
        c.on_collective(0, "MPI_Barrier", 5, 1.0)


def test_invariant_collective_completeness_at_finalize():
    c = InvariantChecker(2)
    c.on_collective(0, "MPI_Barrier", 0, 0.0)  # rank 1 never shows up
    with pytest.raises(InvariantViolation, match="completeness"):
        c.finalize(1.0)


def test_invariant_clock_monotonicity():
    c = InvariantChecker(1)
    c.on_clock(0, 1.0)
    with pytest.raises(InvariantViolation, match="clock"):
        c.on_clock(0, 0.5)


def test_invariant_clock_within_makespan():
    c = InvariantChecker(1)
    c.on_clock(0, 2.0)
    with pytest.raises(InvariantViolation, match="makespan"):
        c.finalize(1.0)


def test_invariant_unmatched_send_at_finalize():
    c = InvariantChecker(2)
    c.on_send(_arr(0, 5), 0, 1)
    with pytest.raises(InvariantViolation, match="never matched"):
        c.finalize(1.0)


def test_invariant_checker_composes_with_perturbation():
    """The sanitizer's shuffles stay MPI-legal: every perturbed schedule
    passes the conformance audit."""
    bench, cluster = get_benchmark("soma"), get_cluster("A")
    for seed in (1, 2, 3):
        r = run(bench, cluster, 8, perturb_seed=seed, invariants=True)
        assert r.meta["invariants"]["sends"] == r.meta["invariants"]["matches"]
