"""Tests for result export, bottleneck diagnosis, and the extended
collectives."""

import json

import pytest

from repro.analysis.bottleneck import diagnose
from repro.harness import run, scaling_sweep
from repro.harness.export import (
    CSV_FIELDS,
    runs_to_csv,
    series_to_json,
    write_runs_csv,
    write_series_json,
)
from repro.machine import CLUSTER_A
from repro.smpi import MpiRuntime
from repro.smpi.collectives import alltoall_cost, gather_cost, scatter_cost
from repro.spechpc import get_benchmark


# --- export -----------------------------------------------------------------


def test_runs_to_csv_headers_and_rows():
    runs = [run(get_benchmark("soma"), CLUSTER_A, n) for n in (2, 4)]
    text = runs_to_csv(runs)
    lines = text.strip().splitlines()
    assert lines[0].split(",") == CSV_FIELDS
    assert len(lines) == 3
    assert "soma" in lines[1]


def test_series_json_roundtrip():
    series = scaling_sweep(get_benchmark("tealeaf"), CLUSTER_A, [1, 4], repeats=2)
    doc = json.loads(series_to_json(series))
    assert doc["benchmark"] == "tealeaf"
    assert len(doc["points"]) == 2
    assert doc["points"][0]["speedup"] == pytest.approx(1.0)
    assert len(doc["points"][0]["runs"]) == 2


def test_file_writers(tmp_path):
    series = scaling_sweep(get_benchmark("soma"), CLUSTER_A, [1, 2])
    csv_path = tmp_path / "runs.csv"
    json_path = tmp_path / "series.json"
    write_runs_csv(str(csv_path), [p.best for p in series.points])
    write_series_json(str(json_path), series)
    assert csv_path.read_text().startswith("benchmark,")
    assert json.loads(json_path.read_text())["suite"] == "tiny"


# --- bottleneck diagnosis -----------------------------------------------------------


def test_diagnose_memory_bound_code():
    d = diagnose(run(get_benchmark("tealeaf"), CLUSTER_A, 72), CLUSTER_A)
    assert d.memory_bound
    assert d.bandwidth_fraction > 0.9
    assert "memory-bandwidth saturated" in d.labels
    assert "saturation" in d.summary() or "bandwidth" in d.summary()


def test_diagnose_compute_bound_code():
    d = diagnose(run(get_benchmark("sph-exa"), CLUSTER_A, 72), CLUSTER_A)
    assert not d.memory_bound
    assert "compute bound" in d.labels


def test_diagnose_serialization():
    d = diagnose(run(get_benchmark("minisweep"), CLUSTER_A, 59), CLUSTER_A)
    assert d.mpi_fraction > 0.3
    assert "communication dominated" in d.labels
    assert d.p2p_dominated


def test_diagnose_reduction_heavy():
    cores = CLUSTER_A.node.cores
    d = diagnose(
        run(get_benchmark("soma"), CLUSTER_A, 8 * cores, suite="small"),
        CLUSTER_A,
    )
    assert d.dominant_mpi == "MPI_Allreduce"
    assert "reduction heavy" in d.labels


# --- extended collectives ------------------------------------------------------------


def test_scatter_gather_alltoall_complete():
    rt = MpiRuntime(CLUSTER_A, 6)

    def body(comm):
        yield comm.scatter(6 * 1024, root=0)
        yield comm.gather(6 * 1024, root=0)
        yield comm.alltoall(6 * 256)

    job = rt.launch(body)
    kinds = set(job.breakdown())
    assert {"MPI_Scatter", "MPI_Gather", "MPI_Alltoall"} <= kinds


def test_alltoall_costlier_than_scatter():
    from repro.machine.network import NetworkSpec

    net = NetworkSpec()
    nbytes = 1 << 20
    assert alltoall_cost(net, 64, 4, nbytes) > scatter_cost(net, 64, 4, nbytes)
    assert gather_cost(net, 64, 4, nbytes) == scatter_cost(net, 64, 4, nbytes)


def test_collective_costs_zero_for_single_rank():
    from repro.machine.network import NetworkSpec

    net = NetworkSpec()
    assert scatter_cost(net, 1, 1, 100) == 0.0
    assert alltoall_cost(net, 1, 1, 100) == 0.0
