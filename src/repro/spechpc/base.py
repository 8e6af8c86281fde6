"""Benchmark base classes, workload definitions, and decomposition helpers.

Each SPEChpc 2021 benchmark is modeled as:

* static metadata (Table 1/2: language, LOC, dominant collective, domain);
* per-suite :class:`Workload` parameter sets (Table 1);
* one or more :class:`~repro.model.kernel.KernelModel` resource
  characterizations;
* an MPI program body (a generator over a
  :class:`~repro.smpi.comm.Communicator`) that executes the benchmark's
  real communication pattern on the simulated runtime.

The body simulates ``ctx.sim_steps`` *representative* time steps; because
SPEC steps are statistically identical, the harness scales results to the
full step count afterwards.  This keeps cluster-scale simulations (1664
ranks) tractable while preserving every per-step interleaving effect.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Generator, Sequence

import numpy as np

from repro.machine.cluster import ClusterSpec
from repro.model.execution import ExecutionModel, MemoizedExecutionModel
from repro.model.kernel import PhaseCost
from repro.smpi.comm import Communicator
from repro.smpi.runtime import MpiRuntime


# --------------------------------------------------------------------------
# decomposition helpers
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def dims_create(nprocs: int, ndims: int) -> tuple[int, ...]:
    """Balanced factorization of ``nprocs`` into ``ndims`` dimensions, in
    decreasing order — the MPI_Dims_create algorithm.

    Cached: the divisor enumeration is O(nprocs) and every rank of a job
    asks for the same decomposition, which made setup O(nprocs^2) at
    paper scale (64 nodes x 104 ranks).

    >>> dims_create(12, 2)
    (4, 3)
    >>> dims_create(59, 2)   # prime: degenerates to a chain
    (59, 1)
    """
    if nprocs < 1 or ndims < 1:
        raise ValueError("nprocs and ndims must be >= 1")
    if ndims == 1:
        return (nprocs,)
    # pick the divisor closest to the ndims-th root, recurse on the rest
    target = nprocs ** (1.0 / ndims)
    divisors = [d for d in range(1, nprocs + 1) if nprocs % d == 0]
    d = min(divisors, key=lambda x: (abs(x - target), x))
    rest = dims_create(nprocs // d, ndims - 1)
    return tuple(sorted((d,) + rest, reverse=True))


def split_extent(total: int, parts: int, index: int) -> int:
    """Block distribution with remainder: extent of chunk ``index``.

    >>> [split_extent(10, 3, i) for i in range(3)]
    [4, 3, 3]
    """
    if not (0 <= index < parts):
        raise ValueError("index out of range")
    base, rem = divmod(total, parts)
    return base + (1 if index < rem else 0)


def grid_coords(rank: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Row-major cartesian coordinates of ``rank`` in a process grid."""
    coords = []
    for d in reversed(dims):
        coords.append(rank % d)
        rank //= d
    return tuple(reversed(coords))


def grid_rank(coords: Sequence[int], dims: Sequence[int]) -> int:
    """Inverse of :func:`grid_coords`."""
    r = 0
    for c, d in zip(coords, dims):
        if not (0 <= c < d):
            raise ValueError("coordinate out of range")
        r = r * d + c
    return r


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One suite entry of Table 1.

    ``params`` carries the benchmark-specific input configuration;
    ``steps`` the number of (outer) time steps the full run executes;
    ``inner_iterations`` the average solver iterations per step for
    implicit codes (1 for explicit ones).
    """

    suite: str                 # "tiny" | "small" | "medium" | "large"
    params: dict = field(default_factory=dict)
    steps: int = 1
    inner_iterations: int = 1

    def __post_init__(self) -> None:
        if self.suite not in ("tiny", "small", "medium", "large"):
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.steps < 1 or self.inner_iterations < 1:
            raise ValueError("steps and inner_iterations must be >= 1")

    @property
    def total_iterations(self) -> int:
        return self.steps * self.inner_iterations


# --------------------------------------------------------------------------
# run context
# --------------------------------------------------------------------------

@dataclass
class RunContext:
    """Everything a benchmark body needs to execute one simulated run.

    ``threads`` > 1 switches the kernel pricing to the hybrid MPI+OpenMP
    model (each rank's work is shared by that many cores).

    The execution model is wrapped in a per-run
    :class:`~repro.model.execution.MemoizedExecutionModel`, so identical
    ``phase_cost`` queries across ranks and steps are priced once.
    """

    cluster: ClusterSpec
    nprocs: int
    workload: Workload
    exec_model: ExecutionModel
    sim_steps: int = 3
    noise: np.ndarray | None = None   # per-rank compute slowdown factors
    runtime: MpiRuntime | None = None
    threads: int = 1
    #: optional replay controller (set by the harness for eligible runs;
    #: see :class:`~repro.spechpc.fastforward.ReplayController`)
    fast_forward: object | None = field(default=None, repr=False)
    _stretch_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.sim_steps < 1:
            raise ValueError("sim_steps must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.noise is not None and len(self.noise) < self.nprocs:
            raise ValueError("need one noise factor per rank")
        if self.threads > 1:
            # transparently reprice every kernel through the hybrid model
            base = self.exec_model
            threads = self.threads
            self.exec_model = _HybridModelProxy(base, threads)  # type: ignore
        # wrap outermost so hybrid-repriced costs are cached too
        self.exec_model = MemoizedExecutionModel(self.exec_model)  # type: ignore

    def noise_factor(self, rank: int) -> float:
        if self.noise is None:
            return 1.0
        return float(self.noise[rank])

    def stretched_cost(self, cost: PhaseCost, factor: float) -> PhaseCost:
        """``cost`` with its duration stretched by a rank's noise factor.

        Stretched variants are cached per (cost, factor) — noise factors
        are per-rank constants for a run, so each rank's steady-state
        steps reuse one stretched object.
        """
        key = (cost, factor)
        hit = self._stretch_cache.get(key)
        if hit is None:
            hit = self._stretch_cache[key] = self._stretch(cost, factor)
        return hit

    @staticmethod
    def _stretch(cost: PhaseCost, factor: float) -> PhaseCost:
        return PhaseCost(
            seconds=cost.seconds * factor,
            flops=cost.flops,
            simd_flops=cost.simd_flops,
            mem_bytes=cost.mem_bytes,
            l3_bytes=cost.l3_bytes,
            l2_bytes=cost.l2_bytes,
            busy_seconds=cost.busy_seconds,
            heat=cost.heat,
        )

    def ranks_in_domain(self, rank: int) -> int:
        """Job ranks sharing this rank's ccNUMA domain (compact pinning)."""
        assert self.runtime is not None, "context not bound to a runtime"
        return self.runtime.ranks_in_domain(rank)

    def step_scale(self) -> float:
        """Factor to scale simulated-steps results to the full run."""
        return self.workload.total_iterations / self.sim_steps

    def step_loop(self, comm: Communicator):
        """Per-rank driver of the representative-step loop.  Bodies use::

            loop = ctx.step_loop(comm)
            while (yield loop.next_step()):
                ... one time step ...

        Without a replay controller this counts steps exactly like
        ``for _ in range(ctx.sim_steps)``; with one it additionally runs
        the steady-state detection protocol at the step boundaries.  A
        dry-run :class:`~repro.predict.profile.RecordingComm` brings its
        own one-step loop.
        """
        if not isinstance(comm, Communicator):
            return comm.step_loop()
        from repro.spechpc.fastforward import StepLoop

        return StepLoop(comm, self.sim_steps, self.fast_forward)


class _HybridModelProxy:
    """Execution-model wrapper that prices every phase with
    :meth:`ExecutionModel.hybrid_phase_cost` at a fixed thread count,
    so benchmark bodies need no hybrid-specific code."""

    def __init__(self, base: ExecutionModel, threads: int) -> None:
        self._base = base
        self._threads = threads

    def phase_cost(self, kernel, units, ranks_in_domain, penalty=1.0):
        return self._base.hybrid_phase_cost(
            kernel, units, ranks_in_domain, self._threads, penalty
        )

    def __getattr__(self, name):
        return getattr(self._base, name)


# --------------------------------------------------------------------------
# benchmark ABC
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkInfo:
    """Static Table 1 / Table 2 metadata."""

    name: str
    benchmark_id: int          # SPEC id (e.g. 505/605 for lbm -> 5)
    language: str
    loc: int
    collective: str            # dominant collective primitive ("-" if none)
    numerics: str              # Table 2 numerical brief
    domain: str                # Table 2 application domain
    memory_bound: bool         # the paper's node-level classification


class Benchmark(abc.ABC):
    """Abstract base of the nine suite entries."""

    info: BenchmarkInfo

    #: suite name -> Workload
    workloads: dict[str, Workload]

    # --- interface ----------------------------------------------------------

    @abc.abstractmethod
    def make_body(
        self, ctx: RunContext
    ) -> Callable[[Communicator], Generator]:
        """Return the per-rank program factory for one run."""

    @abc.abstractmethod
    def local_units(self, ctx: RunContext, rank: int) -> float:
        """Work units assigned to ``rank`` (for load-balance analysis)."""

    def default_sim_steps(self, suite: str) -> int:
        """Representative steps to simulate (overridable per benchmark)."""
        return 3

    # --- conveniences -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.info.name

    def workload(self, suite: str) -> Workload:
        try:
            return self.workloads[suite]
        except KeyError:
            raise KeyError(
                f"{self.name} does not define a {suite!r} workload; "
                f"available: {sorted(self.workloads)}"
            ) from None

    def supports(self, suite: str) -> bool:
        return suite in self.workloads

    def compute_phase(
        self,
        ctx: RunContext,
        comm: Communicator,
        cost: PhaseCost,
        label: str = "compute",
    ) -> Generator:
        """Execute a kernel phase, applying the rank's noise factor."""
        f = ctx.noise_factor(comm.rank)
        if f != 1.0:
            cost = ctx.stretched_cost(cost, f)
        yield comm.compute(cost.seconds, label=label, **cost.counter_kwargs())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Benchmark {self.name}>"
