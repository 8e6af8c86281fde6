"""Observability layer: classification boundaries, pattern detectors,
the per-run metrics snapshot, and the zero-perturbation guarantee."""

import json
import os

import pytest

from repro.machine import CLUSTER_A
from repro.machine.network import NetworkSpec
from repro.obs import (
    COLLECTIVE_WAIT,
    COMPUTE,
    EAGER_SEND,
    NETWORK_TRANSFER,
    RECV_WAIT,
    RENDEZVOUS_WAIT,
    Segment,
    Timelines,
    aggregate_metrics,
    analyze_waiting,
    build_timelines,
    classify_kind,
    detect_collective_skew,
    detect_ripples,
    observe,
)
from repro.obs.timeline import RankTimeline, eager_send_bound, recv_wait_floor

NET = NetworkSpec()
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


# --- classification boundaries (hand-computed from NetworkSpec) --------------
#
# per_message_overhead = 0.4e-6, latency = 1.3e-6,
# rendezvous_handshake = 2.0e-6
#   eager bound     = 0.4e-6 * (1 + 1e-9)
#   recv-wait floor = 2.0e-6 + 1.3e-6 + 2 * 0.4e-6 = 4.1e-6


def test_eager_send_bound_value():
    assert eager_send_bound(NET) == pytest.approx(0.4e-6, rel=1e-6)


def test_recv_wait_floor_value():
    assert recv_wait_floor(NET) == pytest.approx(4.1e-6, rel=1e-12)


def test_compute_kinds_are_compute():
    assert classify_kind("compute", 1.0, NET) == COMPUTE
    # custom compute labels (Roofline phases etc.) are still compute
    assert classify_kind("stream_triad", 0.5, NET) == COMPUTE


def test_collectives_are_collective_wait():
    for kind in ("MPI_Barrier", "MPI_Allreduce", "MPI_Bcast", "MPI_Reduce"):
        assert classify_kind(kind, 1e-6, NET) == COLLECTIVE_WAIT


def test_send_boundary():
    pmo = NET.per_message_overhead
    # an eager blocking send costs exactly per_message_overhead
    assert classify_kind("MPI_Send", pmo, NET) == EAGER_SEND
    # just above the tolerance band: must have blocked in rendezvous
    assert classify_kind("MPI_Send", pmo * 1.001, NET) == RENDEZVOUS_WAIT


def test_recv_boundary():
    floor = 4.1e-6
    assert classify_kind("MPI_Recv", floor, NET) == NETWORK_TRANSFER
    assert classify_kind("MPI_Recv", floor * 1.001, NET) == RECV_WAIT
    assert classify_kind("MPI_Wait", 1.0, NET) == RECV_WAIT
    assert classify_kind("MPI_Sendrecv", 1e-9, NET) == NETWORK_TRANSFER


def test_unknown_mpi_kind_defaults_to_recv_side():
    # waiting is the conservative default for future MPI kinds
    assert classify_kind("MPI_Exotic", 1.0, NET) == RECV_WAIT
    assert classify_kind("MPI_Exotic", 1e-9, NET) == NETWORK_TRANSFER


# --- synthetic timelines ------------------------------------------------------


def _timelines(segments):
    by_rank = {}
    for s in sorted(segments, key=lambda s: (s.rank, s.t0)):
        by_rank.setdefault(s.rank, []).append(s)
    return Timelines(
        by_rank={
            r: RankTimeline(rank=r, segments=tuple(segs))
            for r, segs in by_rank.items()
        },
        network=NET,
    )


def _seg(rank, t0, t1, category, kind="MPI_Send"):
    return Segment(rank=rank, t0=t0, t1=t1, category=category, kind=kind)


def test_ripple_detects_staircase():
    # 5 ranks, each starts blocking while its predecessor still is
    segs = [
        _seg(r, 0.1 * r, 0.1 * r + 0.25, RENDEZVOUS_WAIT) for r in range(5)
    ]
    # some compute so the run has a baseline
    segs += [_seg(r, 1.0, 1.5, COMPUTE, kind="compute") for r in range(5)]
    rep = detect_ripples(_timelines(segs), min_depth=4)
    assert rep.detected
    assert rep.dominant.depth == 5
    assert rep.dominant.ranks == (0, 1, 2, 3, 4)
    assert rep.dominant.serialized_wait == pytest.approx(5 * 0.25)
    assert rep.wait_by_rank == {r: pytest.approx(0.25) for r in range(5)}


def test_ripple_requires_overlap():
    # disjoint waits: each rank blocks after the previous one finished
    segs = [_seg(r, r * 1.0, r * 1.0 + 0.2, RECV_WAIT) for r in range(5)]
    rep = detect_ripples(_timelines(segs), min_depth=4)
    assert not rep.detected


def test_ripple_requires_min_depth():
    segs = [_seg(r, 0.1 * r, 0.1 * r + 0.25, RENDEZVOUS_WAIT) for r in range(3)]
    rep = detect_ripples(_timelines(segs), min_depth=4)
    assert not rep.detected
    # the chain is still reported, just below the detection bar
    assert rep.chains and rep.chains[0].depth == 3


def test_ripple_significance_gate():
    # a geometric staircase of microsecond waits in an hour of compute is
    # protocol jitter, not a pathology
    segs = [
        _seg(r, 1e-7 * r, 1e-7 * r + 2.5e-7, RENDEZVOUS_WAIT)
        for r in range(5)
    ]
    segs += [_seg(r, 1.0, 3601.0, COMPUTE, kind="compute") for r in range(5)]
    rep = detect_ripples(_timelines(segs), min_depth=4)
    assert not rep.detected


def test_skew_single_slow_rank():
    segs = []
    for r in range(4):
        if r == 2:
            segs.append(_seg(r, 0.0, 2.0, COMPUTE, kind="compute"))
            segs.append(_seg(r, 2.0, 2.0 + 1e-6, COLLECTIVE_WAIT,
                             kind="MPI_Barrier"))
        else:
            segs.append(_seg(r, 0.0, 1.0, COMPUTE, kind="compute"))
            segs.append(_seg(r, 1.0, 2.0, COLLECTIVE_WAIT,
                             kind="MPI_Barrier"))
    rep = detect_collective_skew(_timelines(segs))
    assert rep.detected
    assert rep.slow_ranks == (2,)
    assert rep.skew_ratio == pytest.approx(2.0)
    assert rep.absorbed_wait == pytest.approx(3.0)
    assert "rank(s) 2" in rep.summary()


def test_skew_slow_majority_fast_minority():
    # lbm's natural alignment penalty: most ranks are slow, a fast
    # minority absorbs the wait
    segs = []
    for r in range(5):
        if r < 4:
            segs.append(_seg(r, 0.0, 1.2, COMPUTE, kind="compute"))
        else:
            segs.append(_seg(r, 0.0, 1.0, COMPUTE, kind="compute"))
            segs.append(_seg(r, 1.0, 1.2, COLLECTIVE_WAIT,
                             kind="MPI_Barrier"))
    rep = detect_collective_skew(_timelines(segs))
    assert rep.detected
    assert rep.slow_ranks == (0, 1, 2, 3)
    assert rep.skew_ratio == pytest.approx(1.2)


def test_skew_uniform_ranks_not_detected():
    segs = [_seg(r, 0.0, 1.0, COMPUTE, kind="compute") for r in range(4)]
    rep = detect_collective_skew(_timelines(segs))
    assert not rep.detected
    assert rep.slow_ranks == ()


def test_skew_below_ratio_threshold_not_detected():
    segs = []
    for r in range(4):
        dur = 1.0 + (0.005 if r == 0 else 0.0)  # 0.5 % skew: noise
        segs.append(_seg(r, 0.0, dur, COMPUTE, kind="compute"))
        segs.append(_seg(r, dur, 1.01, COLLECTIVE_WAIT, kind="MPI_Barrier"))
    rep = detect_collective_skew(_timelines(segs))
    assert not rep.detected


def test_analyze_waiting_composes_both():
    segs = [_seg(r, 0.1 * r, 0.1 * r + 0.25, RENDEZVOUS_WAIT) for r in range(5)]
    segs += [_seg(r, 1.0, 1.5, COMPUTE, kind="compute") for r in range(5)]
    analysis = analyze_waiting(_timelines(segs))
    assert analysis.ripple.detected
    assert not analysis.skew.detected
    assert analysis.wait_fraction == pytest.approx(
        (5 * 0.25) / (5 * 0.25 + 5 * 0.5)
    )
    assert any("ripple" in f for f in analysis.findings())


# --- run metrics -------------------------------------------------------------


def test_run_result_carries_metrics(small_run):
    m = small_run.metrics
    assert m["engine"]["events"] > 0
    assert m["mailboxes"]["matching_ops"] > 0
    # finished runs have drained queues
    assert m["mailboxes"]["pending_arrivals"] == 0
    assert m["mailboxes"]["pending_posts"] == 0
    # metrics survive the JSON checkpoint round-trip
    from repro.harness.results import RunResult

    back = RunResult.from_checkpoint_dict(
        json.loads(json.dumps(small_run.to_checkpoint_dict()))
    )
    assert back.metrics == m


def test_traced_run_has_trace_source(traced_run):
    m = traced_run.metrics
    assert m["trace"]["intervals_recorded"] == len(traced_run.trace)
    assert m["trace"]["streaming"] == 0


def test_aggregate_metrics_sums_and_maxes():
    from repro.harness import scaling_sweep
    from repro.spechpc import get_benchmark

    series = scaling_sweep(
        get_benchmark("lbm"), CLUSTER_A, [2, 4], suite="tiny", sim_steps=3
    )
    agg = aggregate_metrics(series)
    per_run = [
        r.metrics for p in series.points for r in p.runs
    ]
    assert agg["engine"]["events"] == sum(
        m["engine"]["events"] for m in per_run
    )
    assert agg["engine"]["peak_heap_size"] == max(
        m["engine"]["peak_heap_size"] for m in per_run
    )


# --- observe() / timelines from real runs ------------------------------------


@pytest.fixture(scope="module")
def small_run():
    from repro.harness import run
    from repro.spechpc import get_benchmark

    return run(get_benchmark("lbm"), CLUSTER_A, 4, sim_steps=3)


@pytest.fixture(scope="module")
def traced_run():
    from repro.harness import run
    from repro.spechpc import get_benchmark

    return run(get_benchmark("lbm"), CLUSTER_A, 4, sim_steps=3, trace=True)


def test_observe_requires_trace(small_run):
    with pytest.raises(ValueError, match="no trace"):
        observe(small_run)


def test_observe_builds_bundle(traced_run):
    obs = observe(traced_run)
    assert obs.timelines.nranks == 4
    assert obs.timelines.time_by_category()[COMPUTE] > 0
    # timeline totals agree with the raw trace aggregates
    total = sum(obs.timelines.time_by_category().values())
    raw = sum(traced_run.trace.time_by_kind().values())
    assert total == pytest.approx(raw)
    assert "Waiting-time report" in obs.report()


def test_observe_rank_subset(traced_run):
    obs = observe(traced_run, ranks=[0, 2])
    assert obs.timelines.ranks == [0, 2]


def test_observe_uses_the_simulated_machines_network():
    """A zoo machine's label names no registry cluster: the trace
    carries the network the run simulated, so observing it needs no
    lookup by label."""
    from repro.harness import run
    from repro.machine.registry import get_cluster
    from repro.spechpc import get_benchmark

    cluster = get_cluster("zoo/cascadelake")
    res = run(get_benchmark("lbm"), cluster, 4, sim_steps=3, trace=True)
    assert res.trace.network is cluster.network
    obs = res.observability()
    assert obs.timelines.network is cluster.network
    assert obs.timelines.nranks == 4


def test_streaming_trace_without_intervals_rejected():
    from repro.harness import run
    from repro.spechpc import get_benchmark

    res = run(get_benchmark("lbm"), CLUSTER_A, 4, sim_steps=3,
              trace="streaming")
    with pytest.raises(ValueError, match="retained no intervals"):
        build_timelines(res.trace, NET)


def test_bundle_write(tmp_path, traced_run):
    obs = observe(traced_run)
    paths = obs.write(str(tmp_path / "lbm4"))
    assert sorted(paths) == ["chrome", "markdown", "svg"]
    for p in paths.values():
        assert os.path.exists(p)
    doc = json.loads(open(paths["chrome"]).read())
    assert doc["otherData"]["ranks"] == 4


# --- zero-perturbation guarantee ---------------------------------------------


@pytest.mark.parametrize("bench", ["minisweep", "lbm"])
def test_observability_is_zero_perturbation(bench, monkeypatch):
    """Golden fingerprints are bit-identical with the full observability
    pipeline attached — including against the checked-in corpus."""
    from repro.validate import golden, observability_differential

    consulted = []
    real_load = golden.load_fingerprint

    def load(golden_dir, case):
        consulted.append(case.slug)
        return real_load(golden_dir, case)

    monkeypatch.setattr(golden, "load_fingerprint", load)
    assert observability_differential(
        bench, "A", 72, golden_dir=GOLDEN_DIR
    ) == []
    # the 1-node corpus point must have been consulted
    assert consulted == [f"{bench}_A_1node"]
