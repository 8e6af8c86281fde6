"""Serving differential: the HTTP service is bit-transparent.

Two layers of proof:

* :func:`repro.validate.serving.serving_differential` replays golden
  specs through a real loopback server and diffs every ladder path
  (cold DES, cache hit, band-negotiated prediction) against direct
  runs.  Tier-1 runs a fast benchmark subset; the full checked-in
  corpus (both scales) runs under the ``golden`` marker in the CI
  serving lane.
* Unit checks on :class:`repro.serve.spec.ServeSpec` pin the
  content-address contract: aliases collapse to one key, every
  result-changing axis moves the key, and nothing else does.
"""

import pytest

from repro.serve import ServeSpec, SpecError
from repro.validate.serving import serving_differential

#: cheapest three benchmarks at scale 1 — the tier-1 lane
FAST_BENCHMARKS = ("soma", "tealeaf", "minisweep")


def test_serving_differential_fast_subset():
    failures = serving_differential(benchmarks=FAST_BENCHMARKS, scales=(1,))
    assert failures == [], "\n".join(failures)


@pytest.mark.golden
def test_serving_differential_full_corpus():
    """Every checked-in golden spec, both node scales, all three paths."""
    failures = serving_differential(scales=(1, 4))
    assert failures == [], "\n".join(failures)


# ----------------------------------------------------------------------
# canonical spec identity
# ----------------------------------------------------------------------


def _key(**fields):
    return ServeSpec.from_request(
        {"benchmark": "lbm", "cluster": "A", **fields}
    ).key


def test_cluster_aliases_share_one_key():
    assert _key(cluster="A") == _key(cluster="ClusterA")
    assert _key(cluster="B") == _key(cluster="ClusterB")
    assert _key(cluster="A") != _key(cluster="B")


def test_default_nprocs_materialized_into_key():
    # nprocs=None means fully populated nodes; the resolved rank count
    # is part of the identity, so the explicit spelling is the same key
    from repro.machine.registry import get_cluster

    cores = get_cluster("A").cores_per_node
    assert _key(nnodes=2) == _key(nnodes=2, nprocs=2 * cores)
    assert _key(nnodes=2) != _key(nnodes=2, nprocs=2 * cores - 1)


def test_hybrid_nnodes_fills_nodes_with_rank_blocks():
    # a threads=t spec on nnodes fully populated nodes runs
    # cores_per_node // t ranks per node, not cores_per_node
    cores = 72
    assert _key(nnodes=2, threads=2) == _key(
        nnodes=2, threads=2, nprocs=2 * cores // 2
    )
    assert ServeSpec.from_request(
        {"benchmark": "lbm", "cluster": "A", "nnodes": 64, "threads": 4}
    ).resolve()[2] == 64 * cores // 4
    with pytest.raises(SpecError, match="exceeds the 72 cores"):
        _key(threads=cores + 1)


def test_every_result_changing_axis_moves_the_key():
    base = _key()
    assert _key(benchmark="tealeaf") != base
    assert _key(nnodes=2) != base
    assert _key(suite="small") != base
    assert _key(threads=2) != base
    assert _key(seed=7) != base
    assert _key(noise_sigma=0.01) != base
    assert _key(sim_steps=3) != base
    assert _key(faults={"slow_ranks": [{"rank": 0, "factor": 2.0}]}) != base
    # ...but an *empty* fault plan is the same run, hence the same key
    assert _key(faults={}) == base


def test_request_round_trip_preserves_key():
    spec = ServeSpec.from_request({
        "benchmark": "pot3d", "cluster": "B", "nnodes": 4,
        "suite": "tiny", "threads": 2, "seed": 3, "noise_sigma": 0.02,
    })
    assert ServeSpec.from_request(spec.to_request()).key == spec.key


@pytest.mark.parametrize("doc,fragment", [
    ({"benchmark": "lbm"}, "cluster"),
    ({"cluster": "A"}, "benchmark"),
    ({"benchmark": "nope", "cluster": "A"}, "unknown benchmark"),
    ({"benchmark": "lbm", "cluster": "Z"}, "unknown cluster"),
    ({"benchmark": "lbm", "cluster": "A", "node": 4}, "unknown spec field"),
    ({"benchmark": "lbm", "cluster": "A", "nnodes": 0}, "nnodes"),
    ({"benchmark": "lbm", "cluster": "A", "nnodes": "four"}, "malformed"),
    ({"benchmark": "lbm", "cluster": "A", "suite": "huge"}, "workload"),
    ({"benchmark": "lbm", "cluster": "A", "noise_sigma": -1.0},
     "noise_sigma"),
    ({"benchmark": "lbm", "cluster": "A", "faults": {"bogus": 1}},
     "fault plan"),
    ({"benchmark": "lbm", "cluster": "A", "nnodes": 2.7}, "nnodes"),
    ({"benchmark": "lbm", "cluster": "A", "nnodes": True}, "nnodes"),
    ({"benchmark": "lbm", "cluster": "A", "nprocs": 4.0}, "nprocs"),
    ({"benchmark": "lbm", "cluster": "A", "threads": False}, "threads"),
    ({"benchmark": "lbm", "cluster": "A", "seed": "3"}, "seed"),
    ({"benchmark": "lbm", "cluster": "A", "sim_steps": True}, "sim_steps"),
    ({"benchmark": "lbm", "cluster": "A", "noise_sigma": True},
     "noise_sigma"),
    ({"benchmark": "lbm", "cluster": "A", "noise_sigma": "0.1"},
     "noise_sigma"),
])
def test_malformed_specs_rejected_loudly(doc, fragment):
    with pytest.raises(SpecError, match=fragment):
        ServeSpec.from_request(doc)


def test_des_only_axes_disable_prediction():
    clean = ServeSpec.from_request({"benchmark": "lbm", "cluster": "A"})
    assert clean.prediction_spec() is not None
    for axis in ({"noise_sigma": 0.05}, {"sim_steps": 2},
                 {"faults": {}}):
        spec = ServeSpec.from_request(
            {"benchmark": "lbm", "cluster": "A", **axis}
        )
        assert spec.prediction_spec() is None, axis
