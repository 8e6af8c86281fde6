"""Tests for the validation subsystem: perturbation sanitizer,
cross-mode differential runner, executor and observability
differentials, and inline MPI invariants.

Every check returns failure lines (empty = pass).  The planted-mismatch
tests wrap the engine entry point so that one mode, seed, path or
backend returns a perturbed result, and hold the failure line to its
shape: the check's label, the first differing record field and, where
traces ran, the first differing trace record."""

import dataclasses
import os
import random
from types import SimpleNamespace

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
from repro.validate.golden import (
    Fingerprint,
    fingerprint,
    fingerprint_diff,
    first_trace_diff,
)
from repro.validate.invariants import InvariantChecker, InvariantViolation
from repro.validate.perturb import sanitize

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


# --- planted mismatches ------------------------------------------------------


def _plant(result, elapsed=True, timeline=True):
    """``result`` with its elapsed time moved (unless ``elapsed=False``)
    and, when traced, the end of its last trace interval moved (unless
    ``timeline=False``)."""
    if elapsed:
        result = dataclasses.replace(
            result, elapsed=result.elapsed * (1 + 1e-9)
        )
    if timeline and result.trace is not None:
        ivs = list(result.trace.intervals)
        ivs[-1] = dataclasses.replace(ivs[-1], t1=ivs[-1].t1 + 1e-3)
        result = dataclasses.replace(
            result, trace=SimpleNamespace(intervals=tuple(ivs))
        )
    return result


def _spy_runs(monkeypatch, plant=lambda kwargs: False, **planted):
    """Record every ``runner.run`` call as ``(kwargs, result)``; a call
    whose keyword arguments satisfy ``plant`` returns a planted result
    (``planted`` goes to :func:`_plant`)."""
    import repro.harness.runner as runner_mod

    real_run = runner_mod.run
    calls = []

    def spy(*args, **kwargs):
        result = real_run(*args, **kwargs)
        if plant(kwargs):
            result = _plant(result, **planted)
        calls.append((kwargs, result))
        return result

    monkeypatch.setattr(runner_mod, "run", spy)
    return calls


def _traced(calls):
    return [result for kwargs, result in calls if kwargs.get("trace")]


def _indexed_noff(kwargs):
    return (kwargs.get("matcher") == "indexed"
            and not kwargs["fast_forward"] and not kwargs["wavefront"])


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


def test_sanitize_clean_benchmark_is_invariant(monkeypatch):
    calls = _spy_runs(monkeypatch)
    assert sanitize("lbm", "A", 8, shuffles=5) == []
    # the production baseline, one run per seed, no traced replay
    assert [kw.get("perturb_seed") for kw, _ in calls] == [None, 1, 2, 3, 4, 5]
    assert not _traced(calls)
    base = run(get_benchmark("lbm"), get_cluster("A"), 8)
    assert fingerprint(base) == fingerprint(calls[0][1])


def test_sanitize_reports_planted_divergence(monkeypatch):
    calls = _spy_runs(monkeypatch, lambda kw: kw.get("perturb_seed") == 2)
    lines = sanitize("lbm", "A", 4, shuffles=3)
    # only the diverging seed is replayed with traces
    traced = [kw.get("perturb_seed") for kw, _ in calls if kw.get("trace")]
    assert traced == [None, 2]
    base_trace, pert_trace = (r.trace for r in _traced(calls))
    [line] = lines
    assert line.startswith(
        "perturb lbm on ClusterA nprocs=4 seed 2: expected "
    )
    assert "first difference: record.elapsed" in line
    assert line.endswith(
        "first differing trace record: "
        + first_trace_diff(base_trace, pert_trace)
    )


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
    msg = first_trace_diff(a, b)
    assert msg.startswith("#1: ")
    assert "rank=1" in msg and "2.5" in msg
    assert first_trace_diff(a, a) is None
    short = FakeTrace([IV(0, 0.0, 1.0, "compute")])
    assert "1 vs 2" in first_trace_diff(short, a)


def test_fingerprint_diff_line_shape():
    a = Fingerprint(digest="a" * 64, record={"x": "0x1.0p+0"})
    b = Fingerprint(digest="b" * 64, record={"x": "0x1.8p+0"})

    def no_replay():
        raise AssertionError("traced replay on a match")

    assert fingerprint_diff("lbl", a, a) is None
    assert fingerprint_diff("lbl", a, a, no_replay) is None
    line = fingerprint_diff("lbl", a, b)
    assert line.startswith(
        f"lbl: expected {'a' * 16}…, got {'b' * 16}…; first difference: "
        "record.x: '0x1.0p+0' != '0x1.8p+0'"
    )
    assert "trace" not in line


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


def test_differential_run_conformant(monkeypatch):
    calls = _spy_runs(monkeypatch)
    assert differential_run("soma", "A", 8, workers=False) == []
    # the 6-mode matrix, then the 2 replay-off modes traced
    assert len(calls) == 8
    assert len({Mode(kw["matcher"], kw["fast_forward"], kw["wavefront"])
                for kw, _ in calls}) == 6
    assert len(_traced(calls)) == 2


def _spy_run_many(monkeypatch, plant_index=None):
    """Record every ``run_many`` call; plant result ``plant_index`` of
    the last call."""
    import repro.harness.parallel as parallel_mod

    real_run_many = parallel_mod.run_many
    calls = []

    def spy(specs, **kwargs):
        results = list(real_run_many(specs, **kwargs))
        calls.append((specs, kwargs))
        if plant_index is not None and len(calls) > 1:
            results[plant_index] = _plant(results[plant_index])
        return results

    monkeypatch.setattr(parallel_mod, "run_many", spy)
    return calls


def test_differential_run_workers_axis(monkeypatch):
    runs = _spy_runs(monkeypatch)
    sweeps = _spy_run_many(monkeypatch)
    assert differential_run("lbm", "A", 4, trace_diff=False,
                            workers=True) == []
    # 6 engine modes + the workers=2 sweep of the production flags
    assert len(runs) == 6 and not _traced(runs)
    [(specs, kwargs)] = sweeps
    assert len(specs) == 2 and kwargs == {"workers": 2}


def test_differential_run_reports_planted_workers_mismatch(monkeypatch):
    import repro.harness.parallel as parallel_mod

    real_run_many = parallel_mod.run_many

    def planted(specs, **kwargs):
        results = list(real_run_many(specs, **kwargs))
        results[1] = _plant(results[1])
        return results

    monkeypatch.setattr(parallel_mod, "run_many", planted)
    [line] = differential_run("lbm", "A", 4, trace_diff=False, workers=True)
    assert line.startswith(
        "differential lbm on ClusterA nprocs=4 workers=2[1]: expected "
    )
    assert "first difference: record.elapsed" in line


@pytest.mark.parametrize("elapsed", [True, False],
                         ids=["aggregates", "timeline-only"])
def test_differential_run_reports_planted_mode_mismatch(monkeypatch, elapsed):
    calls = _spy_runs(monkeypatch, _indexed_noff, elapsed=elapsed)
    lines = differential_run("lbm", "A", 4, workers=False)
    ref_trace, planted_trace = (r.trace for r in _traced(calls))
    [line] = lines
    assert line.startswith(
        "differential lbm on ClusterA nprocs=4 indexed+noff: expected "
    )
    field = ("record.elapsed" if elapsed
             else "none (aggregates equal, timelines differ)")
    assert f"first difference: {field}" in line
    assert line.endswith(
        "first differing trace record: "
        + first_trace_diff(ref_trace, planted_trace)
    )


# --- observability and executor differentials --------------------------------


def test_observability_differential_reports_planted_mismatch(monkeypatch):
    from repro.validate import observability_differential

    _spy_runs(monkeypatch, lambda kw: bool(kw.get("trace")), timeline=False)
    lines = observability_differential("lbm", "A", 72, golden_dir=GOLDEN_DIR)
    head = "observability lbm on ClusterA nprocs=72 traced vs"
    assert [line.split(":")[0] for line in lines] == [
        f"{head} plain", f"{head} golden lbm_A_1node"
    ]
    assert all("first difference: record.elapsed" in line for line in lines)


def test_executor_differential_reports_planted_mismatch(monkeypatch):
    from repro.validate import executor_differential

    calls = _spy_run_many(monkeypatch, plant_index=1)
    [line] = executor_differential(executors=("serial",))
    # the serial reference, then the one backend under test
    assert [kwargs.get("executor") for _, kwargs in calls] == ["serial"] * 2
    assert line.startswith(
        "executor lbm on ClusterA serial nprocs=2 seed=2000: expected "
    )
    assert "first difference: record.elapsed" in line


def test_scenario_differential_reports_planted_mismatch(monkeypatch):
    import repro.scenarios as scenarios_mod
    import repro.validate.scenario as scenario_mod

    real_run_scenario = scenarios_mod.run_scenario

    def planted(scenario, *args, **kwargs):
        result = real_run_scenario(scenario, *args, **kwargs)
        if scenario.name == "inline-icelake":
            result = _plant(result)
        return result

    monkeypatch.setattr(scenarios_mod, "run_scenario", planted)
    monkeypatch.setattr(scenario_mod, "_front_end_agreement", lambda: [])
    [line] = scenario_mod.scenario_differential()
    assert line.startswith(
        "scenario inline cluster_spec vs the registry run: expected "
    )
    assert "first difference: record.elapsed" in line


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
    assert differential_run(bench_name, "A", 8, workers=False) == []
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
