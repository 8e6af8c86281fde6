"""Result records for single runs and scaling series."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.perfmon.rapl import EnergyReading
from repro.units import GB, GIGA


@dataclass(frozen=True)
class RunResult:
    """One benchmark execution, scaled to the workload's full iteration
    count (the simulator executes a few representative steps).

    All volumes/energies are full-run totals; rates use the full-run
    elapsed time (identical to per-step rates, since steps are uniform).
    """

    benchmark: str
    cluster: str
    suite: str
    nprocs: int
    nnodes: int
    elapsed: float
    sim_elapsed: float
    step_scale: float
    counters: dict[str, float]
    time_by_kind: dict[str, float]
    energy: EnergyReading
    trace: Optional[Any] = None
    #: run configuration echoes and engine diagnostics (e.g.
    #: ``meta["metrics"]``); excluded from equality — two runs are equal
    #: when their *physical results* match bitwise, even if different
    #: engine modes took different internal paths to them
    meta: dict[str, Any] = field(default_factory=dict, compare=False)
    #: per-rank time breakdown (scaled like ``time_by_kind``); feeds the
    #: validation subsystem's result fingerprints
    rank_times: Optional[tuple[dict[str, float], ...]] = None

    # --- derived rates --------------------------------------------------------

    @property
    def gflops(self) -> float:
        """DP performance [Gflop/s]."""
        return self.counters["flops"] / self.elapsed / GIGA if self.elapsed else 0.0

    @property
    def gflops_avx(self) -> float:
        """Vectorized-only DP performance [Gflop/s]."""
        return (
            self.counters["simd_flops"] / self.elapsed / GIGA if self.elapsed else 0.0
        )

    @property
    def vectorization_ratio(self) -> float:
        flops = self.counters["flops"]
        return self.counters["simd_flops"] / flops if flops else 0.0

    @property
    def mem_bandwidth(self) -> float:
        """Node-aggregate memory bandwidth [B/s]."""
        return self.counters["mem_bytes"] / self.elapsed if self.elapsed else 0.0

    @property
    def l3_bandwidth(self) -> float:
        return self.counters["l3_bytes"] / self.elapsed if self.elapsed else 0.0

    @property
    def l2_bandwidth(self) -> float:
        return self.counters["l2_bytes"] / self.elapsed if self.elapsed else 0.0

    @property
    def per_node_bandwidth(self) -> float:
        """Memory bandwidth per node [B/s] (Fig. 5(b,e))."""
        return self.mem_bandwidth / self.nnodes if self.nnodes else 0.0

    @property
    def mem_volume(self) -> float:
        """Total memory data volume of the full run [B] (Fig. 5(c,f))."""
        return self.counters["mem_bytes"]

    @property
    def mpi_time(self) -> float:
        """Aggregate rank-time inside MPI [s]."""
        return sum(v for k, v in self.time_by_kind.items() if k.startswith("MPI_"))

    @property
    def mpi_fraction(self) -> float:
        total = sum(self.time_by_kind.values())
        return self.mpi_time / total if total else 0.0

    @property
    def total_energy(self) -> float:
        return self.energy.total_energy

    @property
    def avg_power(self) -> float:
        return self.energy.avg_total_power

    @property
    def edp(self) -> float:
        return self.energy.edp

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable record (for EXPERIMENTS.md appendices)."""
        return {
            "benchmark": self.benchmark,
            "cluster": self.cluster,
            "suite": self.suite,
            "nprocs": self.nprocs,
            "nnodes": self.nnodes,
            "elapsed_s": self.elapsed,
            "gflops": self.gflops,
            "gflops_avx": self.gflops_avx,
            "mem_bw_gbs": self.mem_bandwidth / GB,
            "mem_volume_gb": self.mem_volume / GB,
            "mpi_fraction": self.mpi_fraction,
            "energy_kj": self.total_energy / 1e3,
            "avg_power_w": self.avg_power,
            "edp_kjs": self.edp / 1e3,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @property
    def failed(self) -> bool:
        """Uniform success/failure probe across RunResult and FailedRun."""
        return False

    # --- observability --------------------------------------------------------

    @property
    def metrics(self) -> dict[str, Any]:
        """The run's engine-metrics snapshot (``{source: {metric: value}}``;
        see :mod:`repro.obs.metrics`).  Empty for results restored from
        pre-observability checkpoints."""
        return self.meta.get("metrics", {})

    def observability(self, **kwargs: Any):
        """Classified timelines + waiting-time analysis for a traced run
        (see :func:`repro.obs.observe`; requires ``run(..., trace=True)``).

        Keyword arguments are forwarded to :func:`~repro.obs.observe`
        (``ranks``, detector thresholds); the intervals are classified
        against the network of the machine the run simulated, which
        the trace carries."""
        from repro.obs import observe  # local import: obs sits above harness

        return observe(self, **kwargs)

    # --- lossless (de)serialization — sweep checkpoint/resume ---------------

    def to_checkpoint_dict(self) -> dict[str, Any]:
        """Full-fidelity record: every field a resumed sweep needs to
        reconstruct this result bit-identically (the event trace, if any,
        is dropped — traces do not survive checkpoints)."""
        return {
            "benchmark": self.benchmark,
            "cluster": self.cluster,
            "suite": self.suite,
            "nprocs": self.nprocs,
            "nnodes": self.nnodes,
            "elapsed": self.elapsed,
            "sim_elapsed": self.sim_elapsed,
            "step_scale": self.step_scale,
            "counters": dict(self.counters),
            "time_by_kind": dict(self.time_by_kind),
            "energy": {
                "elapsed": self.energy.elapsed,
                "chip_energy": self.energy.chip_energy,
                "dram_energy": self.energy.dram_energy,
                "nnodes": self.energy.nnodes,
            },
            "meta": dict(self.meta),
            "rank_times": (
                None
                if self.rank_times is None
                else [dict(d) for d in self.rank_times]
            ),
        }

    @classmethod
    def from_checkpoint_dict(cls, doc: dict[str, Any]) -> "RunResult":
        doc = dict(doc)
        energy = EnergyReading(**doc.pop("energy"))
        # absent in pre-validation checkpoints
        rank_times = doc.pop("rank_times", None)
        if rank_times is not None:
            rank_times = tuple(dict(d) for d in rank_times)
        return cls(energy=energy, trace=None, rank_times=rank_times, **doc)


@dataclass(frozen=True)
class FailedRun:
    """Structured record of one failed sweep point.

    Carries enough of the :class:`~repro.harness.parallel.RunSpec` to
    identify the point, plus the exception (type name, message, formatted
    traceback) and how many attempts were made.  Flows through
    :func:`~repro.harness.parallel.run_many` result lists and the export
    writers alongside successful :class:`RunResult` records.
    """

    benchmark: str
    cluster: str
    suite: str
    nprocs: int
    seed: int
    error_type: str
    error_message: str
    traceback: str = ""
    attempts: int = 1

    @property
    def failed(self) -> bool:
        return True

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "cluster": self.cluster,
            "suite": self.suite,
            "nprocs": self.nprocs,
            "seed": self.seed,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FailedRun":
        return cls(**{k: v for k, v in doc.items() if k in cls.__dataclass_fields__})

    def summary(self) -> str:
        return (
            f"{self.benchmark}/{self.suite} on {self.cluster} at "
            f"nprocs={self.nprocs} (seed {self.seed}): "
            f"{self.error_type}: {self.error_message} "
            f"[{self.attempts} attempt(s)]"
        )


@dataclass(frozen=True)
class ScalingPoint:
    """Statistics over repeated runs at one process count."""

    nprocs: int
    runs: tuple[RunResult, ...]

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValueError("a scaling point needs at least one run")

    @property
    def best(self) -> RunResult:
        return min(self.runs, key=lambda r: r.elapsed)

    @property
    def elapsed_min(self) -> float:
        return min(r.elapsed for r in self.runs)

    @property
    def elapsed_max(self) -> float:
        return max(r.elapsed for r in self.runs)

    @property
    def elapsed_avg(self) -> float:
        return sum(r.elapsed for r in self.runs) / len(self.runs)


@dataclass(frozen=True)
class ScalingSeries:
    """One benchmark scaled over process counts on one cluster.

    ``failures`` records sweep points (or repeats) that did not produce a
    result when the sweep ran in failure-tolerant mode; a point appears in
    ``points`` as long as at least one of its repeats succeeded.
    """

    benchmark: str
    cluster: str
    suite: str
    points: tuple[ScalingPoint, ...]
    failures: tuple[FailedRun, ...] = ()

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("series must contain points")

    def point(self, nprocs: int) -> ScalingPoint:
        for p in self.points:
            if p.nprocs == nprocs:
                return p
        raise KeyError(f"no point at nprocs={nprocs}")

    @property
    def proc_counts(self) -> list[int]:
        return [p.nprocs for p in self.points]

    def speedups(self, baseline_nprocs: int | None = None) -> dict[int, float]:
        """Average-time speedups relative to a baseline point (default:
        the smallest process count in the series)."""
        base = self.point(baseline_nprocs or self.points[0].nprocs)
        t0 = base.elapsed_avg
        return {p.nprocs: t0 / p.elapsed_avg for p in self.points}

    def speedup_stats(
        self, baseline_nprocs: int | None = None
    ) -> dict[int, tuple[float, float, float]]:
        """(min, avg, max) speedup per point, using the baseline average."""
        base = self.point(baseline_nprocs or self.points[0].nprocs)
        t0 = base.elapsed_avg
        return {
            p.nprocs: (t0 / p.elapsed_max, t0 / p.elapsed_avg, t0 / p.elapsed_min)
            for p in self.points
        }
