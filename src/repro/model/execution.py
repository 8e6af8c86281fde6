"""Node-level execution model (Roofline/ECM style).

For a kernel with a given per-unit resource footprint, the time per rank is
the maximum of four single-rank limits:

* instruction throughput (SIMD + scalar flop mix at ``compute_efficiency``
  of the respective peaks),
* L2 bandwidth,
* L3 bandwidth,
* DRAM bandwidth, where the achievable per-rank share is
  ``min(single-core limit, domain bandwidth / ranks in the domain)`` — the
  saturation law behind all the ccNUMA plateaus of the paper.

Strong-scaling cache effects are modeled by :func:`cache_fit_factor`: as
the per-rank working set approaches the rank's outer-cache share, DRAM
traffic shifts inward (first into L3, then into L2), reducing the memory
time and producing superlinear speedups (paper Sect. 5.1, cases A-C).

DVFS what-ifs need no special casing here: a re-clocked
:class:`~repro.machine.cpu.CpuSpec` (see :mod:`repro.model.dvfs`) moves
``peak_flops_per_core`` and the L1/L2 bandwidths with the core clock
while DRAM bandwidth stays put, so compute-bound phases stretch as
``1/f`` and memory-bound phases barely move — the runtime asymmetry the
energy/EDP analysis rests on.  :meth:`ExecutionModel.at_frequency` is
the convenience constructor for such a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machine.cpu import CpuSpec
from repro.model.kernel import KernelModel, PhaseCost

#: Residual DRAM traffic fraction of a fully cache-resident working set
#: (cold misses, write-backs of results, prefetcher overshoot).
CACHE_RESIDUAL = 0.08


def cache_fit_factor(
    working_set_bytes: float,
    cache_bytes: float,
    residual: float = CACHE_RESIDUAL,
    sharpness: float = 1.8,
) -> float:
    """Traffic multiplier in ``[residual, 1]``.

    Approaches ``residual`` when the working set is much smaller than the
    available cache and 1 when much larger, with a smooth logistic
    transition (capacity misses die off gradually — a working set exactly
    at capacity still misses on roughly half its accesses).
    """
    if cache_bytes <= 0:
        return 1.0
    if working_set_bytes <= 0:
        return residual
    x = math.log(working_set_bytes / cache_bytes)
    sig = 1.0 / (1.0 + math.exp(-sharpness * x))
    return residual + (1.0 - residual) * sig


@dataclass(frozen=True)
class ExecutionModel:
    """Per-CPU analytical kernel timing.

    Parameters
    ----------
    cpu:
        The socket model.
    single_core_mem_bw:
        Maximum DRAM bandwidth one core can draw [B/s].  Saturation of a
        ccNUMA domain happens around ``domain_bw / single_core_mem_bw``
        cores (~5 on both paper CPUs).  Defaults to the CPU's value.
    """

    cpu: CpuSpec
    single_core_mem_bw: float = 0.0

    def __post_init__(self) -> None:
        if self.single_core_mem_bw <= 0.0:
            object.__setattr__(self, "single_core_mem_bw", self.cpu.single_core_mem_bw)
        if self.single_core_mem_bw <= 0:
            raise ValueError("single_core_mem_bw must be positive")

    # --- bandwidth sharing -------------------------------------------------

    def memory_bw_share(self, ranks_in_domain: int) -> float:
        """Achievable DRAM bandwidth of one rank when ``ranks_in_domain``
        ranks stream concurrently from one ccNUMA domain [B/s]."""
        if ranks_in_domain < 1:
            raise ValueError("ranks_in_domain must be >= 1")
        fair_share = self.cpu.domain_memory_bw / ranks_in_domain
        return min(self.single_core_mem_bw, fair_share)

    def saturation_cores(self) -> float:
        """Cores needed to saturate one ccNUMA domain's bandwidth."""
        return self.cpu.domain_memory_bw / self.single_core_mem_bw

    # --- cache shares --------------------------------------------------------

    def l3_share_bytes(self, ranks_in_domain: int) -> float:
        """L3 capacity available to one rank: the domain's slice divided
        among the ranks running in it."""
        domain_l3 = self.cpu.hierarchy.l3.capacity_bytes / self.cpu.numa_domains
        return domain_l3 / max(1, ranks_in_domain)

    def outer_cache_share_bytes(self, ranks_in_domain: int) -> float:
        """Outer-level (L2 + victim-L3 slice) capacity of one rank."""
        return self.cpu.hierarchy.l2.capacity_bytes + self.l3_share_bytes(
            ranks_in_domain
        )

    # --- kernel timing ----------------------------------------------------------

    def phase_cost(
        self,
        kernel: KernelModel,
        units: float,
        ranks_in_domain: int,
        penalty: float = 1.0,
    ) -> PhaseCost:
        """Cost of one rank executing ``units`` work units of ``kernel``
        while sharing its ccNUMA domain with ``ranks_in_domain`` ranks.

        ``penalty`` is an extra slowdown factor (alignment/TLB pathologies,
        see :mod:`repro.model.alignment`).
        """
        if units < 0:
            raise ValueError("units must be non-negative")
        if penalty < 1.0:
            raise ValueError("penalty must be >= 1")
        if units == 0:
            return PhaseCost.zero()
        hier = self.cpu.hierarchy

        # --- traffic redistribution by cache fit --------------------------
        if kernel.fixed_working_set_bytes > 0:
            ws = kernel.fixed_working_set_bytes
        else:
            ws = kernel.working_set_bytes_per_unit * units
        mem_nominal = kernel.mem_bytes_per_unit * units
        l3_nominal = kernel.l3_bytes_per_unit * units
        l2_nominal = kernel.l2_bytes_per_unit * units

        f_llc = cache_fit_factor(
            ws,
            self.outer_cache_share_bytes(ranks_in_domain),
            sharpness=kernel.cache_sharpness,
        )
        mem_bytes = mem_nominal * f_llc
        l3_bytes = l3_nominal + mem_nominal * (1.0 - f_llc)

        f_l2 = cache_fit_factor(
            ws, hier.l2.capacity_bytes, sharpness=kernel.cache_sharpness
        )
        l2_bytes = l2_nominal + l3_bytes * (1.0 - f_l2)
        l3_bytes = l3_bytes * f_l2

        # --- single-rank time limits ----------------------------------------
        flops = kernel.flops_per_unit * units
        simd_flops = flops * kernel.simd_fraction
        scalar_flops = flops - simd_flops
        eff = kernel.compute_efficiency
        t_core = (
            simd_flops / (self.cpu.peak_flops_per_core * eff)
            + scalar_flops / (self.cpu.scalar_flops_per_core * eff)
        )
        t_l2 = l2_bytes / hier.l2.bandwidth_per_core
        t_l3 = l3_bytes / hier.l3.bandwidth_per_core
        t_mem = (
            mem_bytes
            * kernel.latency_bound_factor
            / self.memory_bw_share(ranks_in_domain)
        )
        # non-overlapped (dependent-load) memory time adds to compute
        serial = t_core + (1.0 - kernel.mem_overlap) * t_mem
        seconds = max(t_core, t_l2, t_l3, t_mem, serial) * penalty
        return PhaseCost(
            seconds=seconds,
            flops=flops,
            simd_flops=simd_flops,
            mem_bytes=mem_bytes,
            l3_bytes=l3_bytes,
            l2_bytes=l2_bytes,
            busy_seconds=min(t_core, seconds),
            heat=kernel.heat,
        )

    def compute_utilization(
        self, kernel: KernelModel, units: float, ranks_in_domain: int
    ) -> float:
        """Fraction of the phase the core spends executing instructions
        rather than stalled on data (input to the chip power model)."""
        if units <= 0:
            return 0.0
        cost = self.phase_cost(kernel, units, ranks_in_domain)
        if cost.seconds == 0:
            return 0.0
        flops = kernel.flops_per_unit * units
        simd_flops = flops * kernel.simd_fraction
        eff = kernel.compute_efficiency
        t_core = (
            simd_flops / (self.cpu.peak_flops_per_core * eff)
            + (flops - simd_flops) / (self.cpu.scalar_flops_per_core * eff)
        )
        return min(1.0, t_core / cost.seconds)

    def hybrid_phase_cost(
        self,
        kernel: KernelModel,
        units: float,
        ranks_in_domain: int,
        threads: int,
        penalty: float = 1.0,
    ) -> PhaseCost:
        """Cost of one MPI rank whose ``units`` are processed by
        ``threads`` OpenMP threads (MPI+X hybrid mode — the paper's
        future-work direction).

        Each thread handles ``units / threads`` while
        ``ranks_in_domain * threads`` cores contend for the domain's
        bandwidth.  Counters are totals over all threads of the rank.
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        per_thread = self.phase_cost(
            kernel, units / threads, ranks_in_domain * threads, penalty
        )
        return PhaseCost(
            seconds=per_thread.seconds,
            flops=per_thread.flops * threads,
            simd_flops=per_thread.simd_flops * threads,
            mem_bytes=per_thread.mem_bytes * threads,
            l3_bytes=per_thread.l3_bytes * threads,
            l2_bytes=per_thread.l2_bytes * threads,
            busy_seconds=min(
                per_thread.busy_seconds * threads, per_thread.seconds * threads
            ),
            heat=kernel.heat,
        )

    def at_frequency(
        self, frequency_hz: float, uncore_ratio: float = 1.0
    ) -> "ExecutionModel":
        """This model re-clocked to ``frequency_hz`` (via
        :func:`repro.model.dvfs.scale_cpu`).  A distinct model instance
        per operating point keeps memoized phase-cost caches trivially
        valid: each :class:`MemoizedExecutionModel` wraps exactly one
        frequency, so mid-run frequency plans are priced segment by
        segment with no shared cache to go stale."""
        from repro.model.dvfs import scale_cpu

        cpu = scale_cpu(self.cpu, frequency_hz, uncore_ratio)
        if cpu is self.cpu:
            return self
        return ExecutionModel(cpu, self.single_core_mem_bw)

    def memoized(self) -> "MemoizedExecutionModel":
        """A per-run caching wrapper around this model (see
        :class:`MemoizedExecutionModel`)."""
        return MemoizedExecutionModel(self)

    def memory_bound(self, kernel: KernelModel, ranks_in_domain: int) -> bool:
        """True if the kernel's domain-saturated memory time exceeds its
        compute time (the paper's memory-bound classification)."""
        cost_units = 1.0
        flops = kernel.flops_per_unit
        simd_flops = flops * kernel.simd_fraction
        eff = kernel.compute_efficiency
        t_core = (
            simd_flops / (self.cpu.peak_flops_per_core * eff)
            + (flops - simd_flops) / (self.cpu.scalar_flops_per_core * eff)
        )
        t_mem = (
            kernel.mem_bytes_per_unit
            * cost_units
            * kernel.latency_bound_factor
            / self.memory_bw_share(ranks_in_domain)
        )
        return t_mem > t_core


class MemoizedExecutionModel:
    """Phase-cost cache wrapped around an execution model for one run.

    A benchmark body prices each kernel once per rank (and some price
    inside the step loop), but the inputs collapse onto a handful of
    distinct combinations: ranks at the same grid extent and ccNUMA
    occupancy get bit-identical :class:`~repro.model.kernel.PhaseCost`
    objects.  The cache key is ``(kernel, units, ranks_in_domain,
    penalty)`` — :class:`~repro.model.kernel.KernelModel` is a frozen
    (value-hashable) dataclass, so dynamically built kernels (e.g.
    ``KernelModel.scaled``) hit the cache whenever they are *equal*, not
    merely the same object.

    The wrapper is deliberately per-run (the harness creates one per
    :class:`~repro.spechpc.base.RunContext`): hybrid repricing and any
    future time-varying model state stay correct, and the cache dies with
    the run.  Per-rank noise is applied *after* pricing (see
    :meth:`~repro.spechpc.base.Benchmark.compute_phase`), so cached costs
    are noise-free by construction; inputs that varied per step would
    simply produce distinct keys.

    Everything except ``phase_cost`` delegates to the wrapped model.
    """

    __slots__ = ("_base", "_cache")

    def __init__(self, base) -> None:
        self._base = base
        self._cache: dict = {}

    def phase_cost(
        self,
        kernel: KernelModel,
        units: float,
        ranks_in_domain: int,
        penalty: float = 1.0,
    ) -> PhaseCost:
        key = (kernel, units, ranks_in_domain, penalty)
        cost = self._cache.get(key)
        if cost is None:
            cost = self._base.phase_cost(kernel, units, ranks_in_domain, penalty)
            self._cache[key] = cost
        return cost

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def __getattr__(self, name):
        return getattr(self._base, name)
