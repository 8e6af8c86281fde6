"""CPU (socket) specification.

A :class:`CpuSpec` captures the architectural parameters that the execution
model (:mod:`repro.model.execution`) and the power model
(:mod:`repro.model.power`) need: clock, core count, SIMD width, per-core
instruction throughput, memory subsystem, and the RAPL-calibrated power
envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.cache import MemoryHierarchy
from repro.units import GB


@dataclass(frozen=True)
class CpuSpec:
    """One CPU socket.

    Power parameters are calibrated from the paper's RAPL measurements
    (Sect. 4.2): ``idle_power_w`` is the zero-core extrapolated baseline of
    one socket, ``tdp_w`` the thermal design power; the dynamic per-core
    terms are derived in :class:`repro.model.power.ChipPowerModel`.

    Parameters
    ----------
    name / model:
        Marketing name and model number (e.g. ``Platinum 8360Y``).
    base_clock_hz:
        Fixed base clock (the paper pins the frequency via SLURM).
    cores:
        Physical cores per socket (hyper-threading disabled).
    numa_domains:
        ccNUMA domains per socket with Sub-NUMA Clustering active
        (2 on Ice Lake, 4 on Sapphire Rapids).
    simd_width_dp:
        DP lanes of the widest SIMD instruction set (8 for AVX-512).
    fma_units:
        FMA pipelines per core (2 on both paper CPUs).
    memory_channels / memory_transfer_rate:
        DDR channel count and MT/s (DDR4-3200 vs DDR5-4800).
    sustained_bw_fraction:
        Fraction of theoretical socket bandwidth achievable by a saturating
        streaming kernel (paper: 75-78 GB/s out of 102.4 per domain on A
        -> ~0.75; 58-62 out of 76.8 on B -> ~0.78).
    single_core_mem_bw:
        DRAM bandwidth one core can draw alone [B/s]; fixes where the
        per-domain saturation knee sits (~5 cores on both paper CPUs).
    nominal_clock_hz:
        The design-point clock the power envelope (``tdp_w``,
        ``idle_power_w``) is calibrated at.  Defaults to
        ``base_clock_hz``; a DVFS what-if (see :mod:`repro.model.dvfs`)
        moves ``base_clock_hz`` while keeping this anchor, and
        :attr:`frequency_ratio` reports how far the clock sits from it.
    """

    name: str
    model: str
    base_clock_hz: float
    cores: int
    numa_domains: int
    hierarchy: MemoryHierarchy
    simd_width_dp: int = 8
    fma_units: int = 2
    memory_channels: int = 8
    memory_transfer_rate: float = 3200e6
    memory_bus_bytes: int = 8
    sustained_bw_fraction: float = 0.77
    single_core_mem_bw: float = 16e9
    tdp_w: float = 250.0
    idle_power_w: float = 100.0
    dram_idle_power_w: float = 3.0
    dram_power_per_gbs: float = 0.20
    isa: str = "AVX-512"
    launch_year: int = 2021
    nominal_clock_hz: float = 0.0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.base_clock_hz <= 0:
            raise ValueError("base_clock_hz must be positive")
        if self.nominal_clock_hz <= 0.0:
            object.__setattr__(self, "nominal_clock_hz", self.base_clock_hz)
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.cores % self.numa_domains != 0:
            raise ValueError("cores must divide evenly into ccNUMA domains")
        if not (0.0 < self.sustained_bw_fraction <= 1.0):
            raise ValueError("sustained_bw_fraction must be in (0, 1]")
        if self.idle_power_w >= self.tdp_w:
            raise ValueError("idle power must be below TDP")

    # --- derived compute capabilities --------------------------------------

    @property
    def frequency_ratio(self) -> float:
        """Core clock relative to the calibration point
        (``base_clock_hz / nominal_clock_hz``; 1.0 at nominal)."""
        return self.base_clock_hz / self.nominal_clock_hz

    @property
    def cores_per_domain(self) -> int:
        """Cores in one ccNUMA domain (the fundamental scaling unit)."""
        return self.cores // self.numa_domains

    @property
    def peak_flops_per_core(self) -> float:
        """DP peak of one core: clock * SIMD lanes * FMA units * 2 (FMA)."""
        return self.base_clock_hz * self.simd_width_dp * self.fma_units * 2.0

    @property
    def scalar_flops_per_core(self) -> float:
        """DP peak of one core using only scalar FMA instructions."""
        return self.base_clock_hz * self.fma_units * 2.0

    @property
    def peak_flops(self) -> float:
        """DP peak of the whole socket."""
        return self.peak_flops_per_core * self.cores

    # --- derived memory capabilities ----------------------------------------

    @property
    def theoretical_memory_bw(self) -> float:
        """Theoretical socket memory bandwidth [B/s] from channel specs."""
        return self.memory_channels * self.memory_transfer_rate * self.memory_bus_bytes

    @property
    def sustained_memory_bw(self) -> float:
        """Achievable (stream-saturated) socket memory bandwidth [B/s]."""
        return self.theoretical_memory_bw * self.sustained_bw_fraction

    @property
    def domain_memory_bw(self) -> float:
        """Sustained bandwidth of one ccNUMA domain [B/s]."""
        return self.sustained_memory_bw / self.numa_domains

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (
            f"{self.name} {self.model}: {self.cores} cores @ "
            f"{self.base_clock_hz / 1e9:.1f} GHz, {self.numa_domains} NUMA "
            f"domains, {self.theoretical_memory_bw / GB:.1f} GB/s theor. BW, "
            f"TDP {self.tdp_w:.0f} W"
        )
