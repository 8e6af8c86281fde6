"""Checks on the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest benchmarks/perf -q      # ~30 s

One traced pass of every workload runs once per test run; the tests
read its spans.
"""

import json
import re

import pytest

import clock
import compare
import run
import spans

assert run.bootstrap(), "run from a checkout that has src/repro"

import workloads  # noqa: E402  (needs the checkout's src on the path)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: the boundary spans each workload must reach
EXPECTED_SPANS = {
    "paper_scale": {
        "harness.run", "smpi.launch", "wavefront.compile", "wavefront.replay",
        "fastforward.scalar_check", "fastforward.vector_compile",
        "fastforward.vector_replay", "perfmon.energy_read",
    },
    "node_sweep": {
        "harness.execute", "harness.checkpoint_append",
        "harness.checkpoint_load", "harness.checkpoint_compact",
        "dvfs.apply_frequency",
    },
    "predict_grid": {
        "predict.query", "predict.analytic", "predict.profile",
        "predict.surrogate",
    },
    "serve_mixed": {
        "predict.corpus_add", "serve.spec_key", "serve.store_get",
        "serve.store_put", "validate.fingerprint",
    },
}


@pytest.fixture(scope="session")
def decl():
    return run.declared()


@pytest.fixture(scope="session")
def traced_passes():
    """workload name -> (recorder, pass, layer metrics) of one traced pass."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(seed=3)
        rec = spans.Recorder()
        try:
            wl.setup()
            p = run.one_pass(wl, rec, clock.HostClock())
        finally:
            wl.close()
        out[name] = (rec, p, run.layer_metrics(rec, p))
    return out


def test_metric_names_match_declaration(decl, traced_passes):
    for m in decl["end_to_end"] + decl["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
    computed = set()
    for _, _, layer in traced_passes.values():
        computed |= set(layer)
    declared_layer = {m["name"] for m in decl["per_layer"]}
    # trace overhead is the one layer number that needs an untraced pass
    assert computed == declared_layer - {"bench.trace_overhead"}

    p = traced_passes["predict_grid"][1]
    e2e = run.summarize([(p, None)], [1.0], trace=False, decl=decl)
    assert set(e2e["metrics"]) == {m["name"] for m in decl["end_to_end"]}
    assert all(v["value"] > 0 for v in e2e["metrics"].values())
    layer = run.summarize([(p, None), (p, {})], [1.0], trace=True, decl=decl)
    assert set(layer["metrics"]) == declared_layer


def test_outputs_are_correct(traced_passes):
    for name, (_, p, _) in traced_passes.items():
        assert p.attempted > 0, name
        assert p.failures == [], (name, p.failures[:5])


def test_every_boundary_fires_on_its_workload(traced_passes):
    boundaries = {name for _, _, name in spans.BOUNDARIES}
    assert set().union(*EXPECTED_SPANS.values()) == boundaries
    for name, expected in EXPECTED_SPANS.items():
        fired = {s["name"] for s in traced_passes[name][0].spans}
        assert expected <= fired, (name, expected - fired)


def test_patches_restored_and_untraced_runs_never_patch(monkeypatch):
    before = [spans.resolve(m, p) for m, p, _ in spans.BOUNDARIES]
    rec = spans.Recorder()
    with spans.traced(rec):
        wrapped = [spans.resolve(m, p) for m, p, _ in spans.BOUNDARIES]
    after = [spans.resolve(m, p) for m, p, _ in spans.BOUNDARIES]
    assert all(w[2] is not b[2] for w, b in zip(wrapped, before))
    assert all(a[2] is b[2] for a, b in zip(after, before))

    class Trivial:
        pass_s = 1.0

        def run_pass(self, rec, host):
            assert isinstance(rec, spans.NullRecorder)
            return workloads.Pass(host, latencies=[0.001])

        def check(self, p):
            pass

    def refuse(rec):
        raise AssertionError("an untraced run installed the patches")

    monkeypatch.setattr(spans, "traced", refuse)
    run.run_passes(Trivial(), 0.0, False, clock.HostClock())
    assert [spans.resolve(m, p)[2] for m, p, _ in spans.BOUNDARIES] == [
        b[2] for b in before
    ]


def test_self_time_arithmetic():
    tree = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 2, "start": 2.0, "end": 3.0},
        {"id": 4, "parent": 1, "start": 5.0, "end": 9.0},
        {"id": 5, "parent": None, "start": 20.0, "end": 21.5},
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0, 5: 1.5}
    assert sum(selfs[i] for i in (1, 2, 3, 4)) == 10.0


def test_paper_jobs_self_times_cover_job_wall(traced_passes):
    rec, p, _ = traced_passes["paper_scale"]
    selfs = spans.self_times(rec.spans)
    for bench, wall in p.stages.items():
        own = sum(selfs[s["id"]] for s in rec.spans if s["job"] == bench)
        assert abs(own / wall - 1.0) <= 0.05, bench


def test_resume_makes_no_engine_runs(traced_passes):
    layer = traced_passes["node_sweep"][2]
    assert layer["harness.engine_runs"] == 0
    assert layer["tier.declined_runs"] > 0


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]                  # IQR ~4.5
    assert compare.verdict(base, [b - 20 for b in base], 0.1, "lower") \
        == "improved"
    # 8 wins in 10 pairs is not an improvement, however large
    eight = [b - 20 for b in base[:8]] + [b + 1 for b in base[8:]]
    assert compare.verdict(base, eight, 0.1, "lower") != "improved"
    assert compare.verdict(base, [b + 1 for b in base], 0.1, "lower") \
        == "unchanged"
    assert compare.verdict(base, [b * 1.2 for b in base], 0.1, "lower") \
        == "regressed"
    assert compare.verdict(base, [b * 1.2 for b in base], 0.1, "higher") \
        == "improved"
    # a spread wider than the bound is unresolved, not unchanged
    wide = [50.0, 150.0] * 5
    assert compare.verdict(base, wide, 0.1, "lower") == "unresolved"


def test_compare_error_rate_may_not_rise(decl):
    def rec(seed, failed):
        return {"workload": "w", "seed": seed, "trace": 0, "attempted": 100,
                "failed": failed,
                "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                            for m in decl["end_to_end"]}}

    rows = compare.compare([rec(s, 0) for s in range(3)],
                           [rec(s, 1 if s == 0 else 0) for s in range(3)],
                           decl)
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    assert verdicts["error_rate"] == "regressed"
    assert verdicts["wall_s"] == "unchanged"
    json.dumps(rows)  # rows are plain data
