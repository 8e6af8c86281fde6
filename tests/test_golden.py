"""Golden-fingerprint regression tests.

Every checked-in fingerprint in ``tests/golden/`` is replayed and must
match byte-for-byte.  1-node cases run in the default test lane; the
4-node cases carry the ``golden`` marker for the dedicated CI lane
(``pytest -m golden``).  The same production runs feed a replay-tier
census: at its default step count every case engages a replay tier or
is too short for one, and none re-runs in full DES.
"""

import functools
import os

import pytest

from repro.harness.runner import engine_run_count, run
from repro.machine import CLUSTER_A
from repro.spechpc import get_benchmark
from repro.validate import golden as G

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

CASES_1NODE = [c for c in G.golden_cases() if c.nnodes == 1]
CASES_4NODE = [c for c in G.golden_cases() if c.nnodes == 4]


@functools.lru_cache(maxsize=None)
def _run(case: G.GoldenCase):
    """One production run of ``case`` and the engine executions it took
    (shared by the fingerprint and census checks)."""
    before = engine_run_count()
    result = G.run_case(case)
    return result, engine_run_count() - before


def _check(case: G.GoldenCase) -> None:
    expected = G.load_fingerprint(GOLDEN_DIR, case)
    actual = G.fingerprint(_run(case)[0])
    if actual.digest != expected.digest:
        diff = G.record_diff(expected.record, actual.record)
        pytest.fail(
            f"{case.slug}: result drifted from the golden fingerprint; "
            f"first difference: {diff}.  If the change is intentional, "
            f"regenerate with `repro validate --regen` on a clean tree."
        )


@pytest.mark.parametrize("case", CASES_1NODE, ids=lambda c: c.slug)
def test_golden_1node(case):
    _check(case)


@pytest.mark.golden
@pytest.mark.parametrize("case", CASES_4NODE, ids=lambda c: c.slug)
def test_golden_4node(case):
    _check(case)


def _census(case: G.GoldenCase) -> None:
    """Runs of three or more steps engage a tier after the one-step
    prologue; shorter ones decline ``steps`` up front."""
    result, engine_runs = _run(case)
    tier = result.meta["metrics"]["wavefront"]
    steps = result.meta["sim_steps"]
    assert engine_runs == 1, f"{case.slug} re-ran in full DES: {tier}"
    expected = {"eligible"} if steps >= 3 else {"declined.steps"}
    assert expected <= set(tier), f"{case.slug} at {steps} steps: {tier}"


@pytest.mark.parametrize("case", CASES_1NODE, ids=lambda c: c.slug)
def test_tier_census_1node(case):
    _census(case)


@pytest.mark.golden
@pytest.mark.parametrize("case", CASES_4NODE, ids=lambda c: c.slug)
def test_tier_census_4node(case):
    _census(case)


@pytest.mark.golden
def test_hpgmgfv_A_4node_declines_validation():
    """hpgmgfv on four ClusterA nodes: the scalar replay of the observed
    step 0 misses the DES boundary on every rank, so even a 3-step run
    declines ``validation`` at the one-step prologue and re-runs in full
    DES — exactly the tiers-off answer."""
    bench = get_benchmark("hpgmgfv")
    ref = run(bench, CLUSTER_A, 288, sim_steps=3,
              fast_forward=False, wavefront=False)
    before = engine_run_count()
    r = run(bench, CLUSTER_A, 288, sim_steps=3)
    assert engine_run_count() - before == 2
    assert r.meta["metrics"]["wavefront"] == {"declined.validation": 1.0}
    assert G.fingerprint(r) == G.fingerprint(ref)


def test_corpus_is_complete():
    """All 36 cases (9 benchmarks x 2 clusters x 2 scales) are on disk."""
    cases = list(G.golden_cases())
    assert len(cases) == 36
    missing = [
        c.slug for c in cases if not os.path.exists(G.case_path(GOLDEN_DIR, c))
    ]
    assert not missing, f"missing golden files: {missing}"


def test_fingerprint_is_stable_and_sensitive():
    """Same result -> same digest; any hashed field moved -> new digest."""
    case = G.GoldenCase("lbm", "A", 1, 8)
    r1 = G.run_case(case)
    r2 = G.run_case(case)
    assert G.fingerprint(r1) == G.fingerprint(r2)

    import dataclasses

    moved = dataclasses.replace(r1, elapsed=r1.elapsed * (1 + 1e-15))
    assert G.fingerprint(moved) != G.fingerprint(r1)
    diff = G.record_diff(
        G.canonical_record(r1), G.canonical_record(moved)
    )
    assert diff is not None and diff.startswith("record.elapsed")


def test_check_case_names_the_first_moved_field():
    import dataclasses

    case = CASES_1NODE[0]
    result = _run(case)[0]
    assert G.check_case(GOLDEN_DIR, case, G.fingerprint(result)) == []
    moved = dataclasses.replace(result, elapsed=result.elapsed * (1 + 1e-15))
    [line] = G.check_case(GOLDEN_DIR, case, G.fingerprint(moved))
    expected = G.load_fingerprint(GOLDEN_DIR, case).digest
    assert line.startswith(
        f"golden {case.slug}: expected {expected[:16]}…, got "
    )
    assert "first difference: record.elapsed" in line


def test_check_case_reports_a_missing_point(tmp_path):
    case = CASES_1NODE[0]
    [line] = G.check_case(str(tmp_path), case, G.fingerprint(_run(case)[0]))
    assert line.startswith(f"golden {case.slug}: no checked-in fingerprint")


def test_record_diff_localizes_first_field():
    a = {"x": {"y": ["0x1.0p+0", "0x1.8p+1"]}, "z": 1}
    b = {"x": {"y": ["0x1.0p+0", "0x1.9p+1"]}, "z": 1}
    diff = G.record_diff(a, b)
    assert diff.startswith("record.x.y[1]:")
    assert "3.125" in diff  # hex floats are decoded in the message
    assert G.record_diff(a, a) is None
    assert "missing" in G.record_diff({"a": 1}, {})


def test_regen_refuses_dirty_tree(tmp_path, monkeypatch):
    monkeypatch.setattr(G, "tree_is_dirty", lambda root: True)
    with pytest.raises(G.DirtyTreeError, match="dirty"):
        G.regenerate(str(tmp_path / "golden"))
    # --force overrides (fingerprints stubbed: no simulation in this test)
    monkeypatch.setattr(
        G,
        "compute_fingerprint",
        lambda case: G.Fingerprint(digest="0" * 64, record={"stub": case.slug}),
    )
    paths = G.regenerate(str(tmp_path / "golden"), scales=(1,), force=True)
    assert len(paths) == 18 and all(os.path.exists(p) for p in paths)


def test_tree_is_dirty_on_non_repo(tmp_path):
    """No git provenance counts as dirty (no regen without attribution)."""
    assert G.tree_is_dirty(str(tmp_path))
