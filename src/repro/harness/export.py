"""Result export: CSV and JSON writers for runs and scaling series.

The paper ships a Zenodo data artifact with the raw measurement tables;
these writers produce the equivalent machine-readable records for every
simulated experiment.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Union

from repro.harness.results import FailedRun, RunResult, ScalingSeries

#: Columns of the flat per-run record (matches RunResult.to_dict()).
CSV_FIELDS = [
    "benchmark",
    "cluster",
    "suite",
    "nprocs",
    "nnodes",
    "elapsed_s",
    "gflops",
    "gflops_avx",
    "mem_bw_gbs",
    "mem_volume_gb",
    "mpi_fraction",
    "energy_kj",
    "avg_power_w",
    "edp_kjs",
]


def runs_to_csv(runs: Iterable[RunResult]) -> str:
    """Serialize runs as a CSV document (header + one row per run)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for r in runs:
        writer.writerow(r.to_dict())
    return buf.getvalue()


def records_to_jsonl(records: Iterable[Union[RunResult, FailedRun]]) -> str:
    """Serialize a mixed run_many result list (successes and failures)
    as JSONL, one record per line, tagged ``"status": "ok" | "failed"``."""
    lines = []
    for r in records:
        doc = r.to_dict()
        doc["status"] = "failed" if r.failed else "ok"
        lines.append(json.dumps(doc))
    return "\n".join(lines) + ("\n" if lines else "")


def series_to_json(series: ScalingSeries) -> str:
    """Serialize a scaling series with per-point statistics.

    Failure-tolerant sweeps carry their lost points/repeats in a
    ``failures`` array so exported artifacts preserve the full campaign
    record, not just the survivors.
    """
    speedups = series.speedups()
    doc = {
        "benchmark": series.benchmark,
        "cluster": series.cluster,
        "suite": series.suite,
        "points": [
            {
                "nprocs": p.nprocs,
                "speedup": speedups[p.nprocs],
                "elapsed_min_s": p.elapsed_min,
                "elapsed_avg_s": p.elapsed_avg,
                "elapsed_max_s": p.elapsed_max,
                "runs": [r.to_dict() for r in p.runs],
            }
            for p in series.points
        ],
    }
    if series.failures:
        doc["failures"] = [f.to_dict() for f in series.failures]
    return json.dumps(doc, indent=2)


def write_runs_csv(path: str, runs: Iterable[RunResult]) -> None:
    """Write runs to a CSV file."""
    with open(path, "w", newline="") as fh:
        fh.write(runs_to_csv(runs))


def write_series_json(path: str, series: ScalingSeries) -> None:
    """Write a scaling series to a JSON file."""
    with open(path, "w") as fh:
        fh.write(series_to_json(series))
