"""Property tests for the network cost models and placement edge cases."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CLUSTER_A, CLUSTER_B
from repro.machine.network import NetworkSpec
from repro.model.execution import ExecutionModel
from repro.predict.profile import make_context
from repro.smpi.collectives import (
    allgather_cost,
    allreduce_cost,
    alltoall_cost,
    barrier_cost,
    bcast_cost,
    gather_cost,
    reduce_cost,
    scatter_cost,
)
from repro.smpi.runtime import MpiRuntime
from repro.spechpc import get_benchmark

NET = NetworkSpec()

ALL_COSTS = [
    lambda p, n, b: barrier_cost(NET, p, n),
    lambda p, n, b: allreduce_cost(NET, p, n, b),
    lambda p, n, b: bcast_cost(NET, p, n, b),
    lambda p, n, b: reduce_cost(NET, p, n, b),
    lambda p, n, b: allgather_cost(NET, p, n, b),
    lambda p, n, b: scatter_cost(NET, p, n, b),
    lambda p, n, b: gather_cost(NET, p, n, b),
    lambda p, n, b: alltoall_cost(NET, p, n, b),
]


@given(
    p=st.integers(min_value=1, max_value=2048),
    n=st.integers(min_value=1, max_value=32),
    b=st.integers(min_value=0, max_value=1 << 24),
)
def test_all_collective_costs_nonnegative_and_finite(p, n, b):
    n = min(n, p)
    for fn in ALL_COSTS:
        c = fn(p, n, b)
        assert c >= 0.0
        assert c < 60.0  # nothing takes a virtual minute


@given(
    p=st.integers(min_value=2, max_value=1024),
    b1=st.integers(min_value=0, max_value=1 << 22),
    b2=st.integers(min_value=0, max_value=1 << 22),
)
def test_collective_costs_monotone_in_bytes(p, b1, b2):
    lo, hi = sorted((b1, b2))
    for fn in ALL_COSTS[1:]:
        assert fn(p, 2, lo) <= fn(p, 2, hi) + 1e-15


@given(
    p1=st.integers(min_value=1, max_value=512),
    p2=st.integers(min_value=1, max_value=512),
)
def test_barrier_monotone_in_ranks(p1, p2):
    lo, hi = sorted((p1, p2))
    assert barrier_cost(NET, lo, 1) <= barrier_cost(NET, hi, 1) + 1e-15


@given(nbytes=st.integers(min_value=0, max_value=1 << 26))
def test_ptp_time_positive_and_ordered(nbytes):
    intra = NET.ptp_time(nbytes, intra_node=True)
    inter = NET.ptp_time(nbytes, intra_node=False)
    assert 0 < intra
    assert inter > 0
    # inter-node latency dominates for small, bandwidth for large; both
    # are never cheaper than the pure transfer term
    assert inter >= nbytes / NET.effective_bandwidth


def test_network_validation():
    with pytest.raises(ValueError):
        NetworkSpec(link_bandwidth=0.0)
    with pytest.raises(ValueError):
        NetworkSpec(efficiency=1.5)
    with pytest.raises(ValueError):
        NET.transfer_time(-1, intra_node=True)


def test_eager_threshold_boundary():
    assert NET.is_eager(NET.eager_threshold)
    assert not NET.is_eager(NET.eager_threshold + 1)


@given(rank=st.integers(min_value=0, max_value=1663))
def test_cluster_b_placement_roundtrip(rank):
    node, loc = CLUSTER_B.place(rank)
    assert 0 <= node < CLUSTER_B.max_nodes
    assert node * CLUSTER_B.node.cores + loc.core == rank
    assert 0 <= loc.domain < CLUSTER_B.node.numa_domains


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_domain_population_matches_brute_force_placement(data):
    """The O(1) ccNUMA population rule equals a count over
    ``ClusterSpec.place``, and the dry-run profiler and the DES runtime
    both answer with it."""
    cluster = data.draw(st.sampled_from([CLUSTER_A, CLUSTER_B]))
    threads = data.draw(st.integers(min_value=1, max_value=7))
    nprocs = data.draw(
        st.integers(min_value=1, max_value=cluster.max_ranks() // threads)
    )
    rank = data.draw(st.integers(min_value=0, max_value=nprocs - 1))

    def domain(r):
        node, loc = cluster.place(r * threads)
        return node * cluster.node.numa_domains + loc.domain

    mine = domain(rank)
    expected = sum(1 for r in range(nprocs) if domain(r) == mine)
    assert cluster.domain_population(rank, nprocs, threads) == expected
    ctx = make_context(
        cluster, get_benchmark("lbm"), nprocs, "tiny",
        ExecutionModel(cluster.node.cpu), threads,
    )
    assert ctx.ranks_in_domain(rank) == expected
    rt = MpiRuntime(cluster, nprocs, threads_per_rank=threads)
    assert rt.ranks_in_domain(rank) == expected
    assert rt.domain_of(rank) == mine


def test_domain_population_rejects_ranks_beyond_capacity():
    with pytest.raises(ValueError, match="exceeds cluster capacity"):
        CLUSTER_A.domain_population(CLUSTER_A.max_ranks(), 1)
    with pytest.raises(ValueError, match="exceeds cluster capacity"):
        CLUSTER_A.domain_population(CLUSTER_A.max_ranks() // 2, 1, threads=2)


@given(nprocs=st.integers(min_value=1, max_value=1728))
def test_ranks_per_node_partition(nprocs):
    counts = CLUSTER_A.ranks_per_node(nprocs)
    assert sum(counts) == nprocs
    assert all(0 < c <= CLUSTER_A.node.cores for c in counts)
    assert all(c == CLUSTER_A.node.cores for c in counts[:-1])


def test_faster_network_variant_reduces_costs():
    """A hypothetical NDR fabric (4x bandwidth) cuts large-message
    collective costs but not the latency-bound barrier much."""
    ndr = dataclasses.replace(NET, link_bandwidth=4 * NET.link_bandwidth)
    big = 1 << 24
    # inter-node-dominated pattern (one rank per node): most rounds ride
    # the fabric, so the 4x link shows up strongly
    assert allreduce_cost(ndr, 256, 256, big) < 0.6 * allreduce_cost(
        NET, 256, 256, big
    )
    assert barrier_cost(ndr, 256, 4) == pytest.approx(
        barrier_cost(NET, 256, 4), rel=0.01
    )
