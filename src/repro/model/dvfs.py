"""DVFS what-ifs: rebuild a machine spec at a different core frequency.

The paper pins both clusters to fixed base clocks, so the energy study
(Sect. 4.2/4.3) has no frequency axis.  This module adds one, following
the methodology of the Gromacs energy-efficiency literature: scale the
*core clock domain* of a :class:`~repro.machine.cpu.CpuSpec` and let the
existing Roofline/ECM and RAPL models price the consequences.

What moves with the core clock (ratio ``x = f / f_nominal``):

* instruction throughput — ``base_clock_hz`` itself, hence
  ``peak_flops_per_core`` and every ``t_core`` term, scale with ``x``;
* private-cache bandwidth — L1 and L2 run in the core clock domain, so
  their ``bandwidth_per_core`` scales with ``x``;
* dynamic core power — voltage tracks frequency (V roughly f^0.7), so
  the per-core dynamic term scales with ``x ** CORE_DVFS_EXPONENT``
  (applied where the term is derived, in
  :class:`repro.model.power.ChipPowerModel`).

What does *not* move: DRAM bandwidth and power, the uncore/idle
baseline, the single-core memory bandwidth (limited by outstanding
misses, not the core clock), and TDP.  Memory-bound runtime insensitivity
to DVFS — the whole reason clock-down can pay — therefore falls out of
the execution model instead of being scripted.

The *uncore* clock (mesh + LLC) is a separate knob: ``uncore_ratio``
scales the L3 bandwidth linearly and the socket idle baseline with
``UNCORE_DVFS_EXPONENT``.

At ``x == 1.0`` and ``uncore_ratio == 1.0`` the input objects are
returned unchanged, so a scenario that names the nominal frequency is
bit-identical to one that says nothing — the property
:func:`repro.validate.scenario.scenario_differential` asserts.
"""

from __future__ import annotations

from dataclasses import replace

from repro.machine.cache import MemoryHierarchy
from repro.machine.cluster import ClusterSpec
from repro.machine.cpu import CpuSpec
from repro.machine.node import NodeSpec

#: Dynamic core power scales with ``(f/f0) ** CORE_DVFS_EXPONENT``:
#: P_dyn ~ C V^2 f with V ~ f^0.7 on the governed segment of the V/f
#: curve gives an exponent of ~2.4.
CORE_DVFS_EXPONENT = 2.4

#: Uncore (mesh + LLC) power exponent — shallower V/f slope than cores.
UNCORE_DVFS_EXPONENT = 1.8

#: Sanity bounds on the frequency ratio: half nominal to 4/3 nominal
#: covers every governor range the methodology papers sweep (e.g.
#: 1.2-3.2 GHz around a 2.4 GHz nominal); anything outside is almost
#: certainly a unit error (Hz vs GHz).
MIN_RATIO = 0.40
MAX_RATIO = 1.50


def _check_ratio(ratio: float, what: str) -> None:
    if not (MIN_RATIO <= ratio <= MAX_RATIO):
        raise ValueError(
            f"{what} ratio {ratio:.3f} outside [{MIN_RATIO}, {MAX_RATIO}] — "
            "frequencies are Hz (e.g. 2.2e9), ratios relative to nominal"
        )


def scale_cpu(
    cpu: CpuSpec, frequency_hz: float, uncore_ratio: float = 1.0
) -> CpuSpec:
    """``cpu`` re-clocked to ``frequency_hz`` (see module docstring for
    exactly which parameters move).  Returns ``cpu`` itself when both
    ratios are 1.0."""
    if frequency_hz <= 0:
        raise ValueError("frequency_hz must be positive")
    x = frequency_hz / cpu.nominal_clock_hz
    _check_ratio(x, "core-frequency")
    _check_ratio(uncore_ratio, "uncore")
    if x == 1.0 and uncore_ratio == 1.0:
        return cpu
    hier = cpu.hierarchy
    scaled = MemoryHierarchy(
        l1=replace(hier.l1, bandwidth_per_core=hier.l1.bandwidth_per_core * x),
        l2=replace(hier.l2, bandwidth_per_core=hier.l2.bandwidth_per_core * x),
        l3=replace(
            hier.l3,
            bandwidth_per_core=hier.l3.bandwidth_per_core * uncore_ratio,
        ),
    )
    return replace(
        cpu,
        base_clock_hz=frequency_hz,
        nominal_clock_hz=cpu.nominal_clock_hz,
        hierarchy=scaled,
        idle_power_w=cpu.idle_power_w * uncore_ratio**UNCORE_DVFS_EXPONENT,
    )


def scale_node(
    node: NodeSpec, frequency_hz: float, uncore_ratio: float = 1.0
) -> NodeSpec:
    """``node`` with its CPU re-clocked (identity at nominal)."""
    cpu = scale_cpu(node.cpu, frequency_hz, uncore_ratio)
    if cpu is node.cpu:
        return node
    return replace(node, cpu=cpu)


def apply_frequency(
    cluster: ClusterSpec, frequency_hz: float, uncore_ratio: float = 1.0
) -> ClusterSpec:
    """``cluster`` with every node re-clocked to ``frequency_hz``.

    The cluster keeps its name (a DVFS point is an operating condition
    of the same machine, not a new machine); every identity key hashes
    the :attr:`~repro.machine.cluster.ClusterSpec.machine_digest` too,
    so distinct frequencies still key distinctly.
    Identity (the same object back) at nominal frequency and uncore.
    """
    node = scale_node(cluster.node, frequency_hz, uncore_ratio)
    if node is cluster.node:
        return cluster
    return replace(cluster, node=node)


def frequency_grid(
    cluster: ClusterSpec,
    lo_ratio: float = 0.5,
    hi_ratio: float = 4.0 / 3.0,
    steps: int = 9,
) -> tuple[float, ...]:
    """An evenly spaced frequency grid [Hz] around the nominal clock —
    the default sweep axis of the energy analysis helper.  Endpoints are
    included; the nominal frequency is part of the grid whenever the
    ratio range brackets 1.0 at an even spacing."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    _check_ratio(lo_ratio, "core-frequency")
    _check_ratio(hi_ratio, "core-frequency")
    if lo_ratio >= hi_ratio:
        raise ValueError("lo_ratio must be < hi_ratio")
    f0 = cluster.node.cpu.nominal_clock_hz
    span = hi_ratio - lo_ratio
    return tuple(
        f0 * (lo_ratio + span * i / (steps - 1)) for i in range(steps)
    )
