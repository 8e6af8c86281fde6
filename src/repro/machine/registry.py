"""Concrete machine definitions mirroring Table 3 of the paper.

``CLUSTER_A`` is the Ice Lake system (Xeon Platinum 8360Y, 36 cores/socket,
DDR4-3200), ``CLUSTER_B`` the Sapphire Rapids system (Xeon Platinum 8470,
52 cores/socket, DDR5-4800).  Both have two sockets per node, Sub-NUMA
Clustering active (2 resp. 4 domains per socket), HDR100 InfiniBand in a
fat-tree, fixed base clocks, and AVX-512.

Power parameters come from the paper's own RAPL analysis (Sect. 4.2):
zero-core extrapolated chip baseline 95-101 W (A) / 176-181 W (B) per
socket, TDP 250 W / 350 W, DRAM power 16 W saturated vs 9.5 W floor per
ccNUMA domain on A, 10-13 W vs 5.5 W on B.

``SANDY_BRIDGE_NODE`` is the 2012-era reference CPU mentioned in
Sect. 4.2.3, whose baseline power was below 20 % of its 120 W TDP.
"""

from __future__ import annotations

from repro.machine.cache import CacheLevel, MemoryHierarchy
from repro.machine.cluster import ClusterSpec
from repro.machine.cpu import CpuSpec
from repro.machine.network import NetworkSpec
from repro.machine.node import NodeSpec
from repro.units import GiB, KiB, MiB

#: Ice Lake Xeon Platinum 8360Y (ClusterA socket).
ICE_LAKE_8360Y = CpuSpec(
    name="Xeon Ice Lake",
    model="Platinum 8360Y",
    base_clock_hz=2.4e9,
    cores=36,
    numa_domains=2,
    hierarchy=MemoryHierarchy(
        l1=CacheLevel("L1", 48 * KiB, bandwidth_per_core=400e9),
        l2=CacheLevel("L2", 1.25 * MiB, bandwidth_per_core=110e9),
        l3=CacheLevel(
            "L3", 54 * MiB, shared_by_cores=36, bandwidth_per_core=22e9, victim=True
        ),
    ),
    simd_width_dp=8,
    fma_units=2,
    memory_channels=8,
    memory_transfer_rate=3200e6,
    memory_bus_bytes=8,
    sustained_bw_fraction=0.75,   # 75-78 GB/s of 102.4 GB/s per domain
    single_core_mem_bw=16e9,      # saturation knee ~5 of 18 domain cores
    tdp_w=250.0,
    idle_power_w=98.0,            # 95-101 W zero-core extrapolation
    dram_idle_power_w=8.0,        # soma floor ~9.5 W incl. its modest BW
    dram_power_per_gbs=0.105,     # -> 16 W with one saturated domain (76.5 GB/s)
    isa="AVX-512",
    launch_year=2021,
    extras={"ddr": "DDR4-3200", "process": "10 nm"},
)

#: Sapphire Rapids Xeon Platinum 8470 (ClusterB socket).
SAPPHIRE_RAPIDS_8470 = CpuSpec(
    name="Xeon Sapphire Rapids",
    model="Platinum 8470",
    base_clock_hz=2.0e9,
    cores=52,
    numa_domains=4,
    hierarchy=MemoryHierarchy(
        l1=CacheLevel("L1", 48 * KiB, bandwidth_per_core=330e9),
        l2=CacheLevel("L2", 2 * MiB, bandwidth_per_core=100e9),
        l3=CacheLevel(
            "L3", 105 * MiB, shared_by_cores=52, bandwidth_per_core=26e9, victim=True
        ),
    ),
    simd_width_dp=8,
    fma_units=2,
    memory_channels=8,
    memory_transfer_rate=4800e6,
    memory_bus_bytes=8,
    sustained_bw_fraction=0.78,   # 58-62 GB/s of 76.8 GB/s per domain
    single_core_mem_bw=13e9,      # saturation knee ~4.6 of 13 domain cores
    tdp_w=350.0,
    idle_power_w=178.0,           # 176-181 W zero-core extrapolation
    dram_idle_power_w=6.0,        # soma floor ~5.5 W per domain reading
    dram_power_per_gbs=0.100,     # -> ~12 W with one saturated domain (60 GB/s)
    isa="AVX-512",
    launch_year=2023,
    extras={"ddr": "DDR5-4800", "process": "Intel 7"},
)

#: 2012-era reference for the idle-power comparison of Sect. 4.2.3.
SANDY_BRIDGE_E5_2680 = CpuSpec(
    name="Xeon Sandy Bridge",
    model="E5-2680",
    base_clock_hz=2.7e9,
    cores=8,
    numa_domains=1,
    hierarchy=MemoryHierarchy(
        l1=CacheLevel("L1", 32 * KiB, bandwidth_per_core=150e9),
        l2=CacheLevel("L2", 256 * KiB, bandwidth_per_core=70e9),
        l3=CacheLevel("L3", 20 * MiB, shared_by_cores=8, bandwidth_per_core=15e9),
    ),
    simd_width_dp=4,              # AVX
    fma_units=1,                  # mul + add ports, no FMA
    memory_channels=4,
    memory_transfer_rate=1600e6,
    memory_bus_bytes=8,
    sustained_bw_fraction=0.80,
    tdp_w=120.0,
    idle_power_w=22.0,            # < 20 % of TDP (paper refs [2, 13])
    dram_idle_power_w=8.0,
    dram_power_per_gbs=0.25,
    isa="AVX",
    launch_year=2012,
    extras={"ddr": "DDR3-1600"},
)

_HDR100 = NetworkSpec()

#: ClusterA: Ice Lake, 72 cores/node, 4 ccNUMA domains/node, 256 GiB.
CLUSTER_A = ClusterSpec(
    name="ClusterA",
    node=NodeSpec(cpu=ICE_LAKE_8360Y, sockets=2, memory_bytes=4 * 64 * GiB),
    network=_HDR100,
    max_nodes=24,   # 24 x 72 = 1728 ranks >= the paper's 1664
)

#: ClusterB: Sapphire Rapids, 104 cores/node, 8 ccNUMA domains/node, 1 TiB.
CLUSTER_B = ClusterSpec(
    name="ClusterB",
    node=NodeSpec(cpu=SAPPHIRE_RAPIDS_8470, sockets=2, memory_bytes=8 * 128 * GiB),
    network=_HDR100,
    max_nodes=16,   # 16 x 104 = 1664 ranks, exactly the paper's maximum
)

#: Single-socket Sandy Bridge node for the historical comparison.
SANDY_BRIDGE_NODE = NodeSpec(
    cpu=SANDY_BRIDGE_E5_2680, sockets=2, memory_bytes=64 * GiB
)

CLUSTERS: dict[str, ClusterSpec] = {
    "A": CLUSTER_A,
    "B": CLUSTER_B,
    "ClusterA": CLUSTER_A,
    "ClusterB": CLUSTER_B,
}


def get_cluster(name: str) -> ClusterSpec:
    """Look up a cluster by short (``"A"``) or long (``"ClusterA"``) name.

    ``zoo/<name>`` references resolve lazily through the scenario
    cluster zoo (:mod:`repro.scenarios.zoo`) — parameter files checked
    in under ``src/repro/scenarios/zoo/``, loaded on first use so the
    registry import stays free of the scenarios package.
    """
    try:
        return CLUSTERS[name]
    except KeyError:
        pass
    if name.startswith("zoo/"):
        # local import: the zoo sits above the machine layer
        from repro.scenarios.zoo import ZooError, load_zoo_cluster

        try:
            return load_zoo_cluster(name)
        except (KeyError, ZooError) as exc:
            raise KeyError(str(exc)) from None
    valid = sorted(set(CLUSTERS))
    from repro.scenarios.zoo import zoo_names

    zoo = [f"zoo/{n}" for n in zoo_names()]
    raise KeyError(f"unknown cluster {name!r}; valid names: {valid + zoo}")


def calibrated(cluster: ClusterSpec) -> str | None:
    """The registry name of the calibrated machine ``cluster`` *is* —
    ``"ClusterA"`` or ``"ClusterB"`` when its machine digest matches
    (whatever it is called, whatever its ``max_nodes``) — else ``None``.

    The golden corpus, the surrogate corpus and the analytic bands
    describe those two machines at their nominal clock, so this is the
    one rule for which queries may be checked against, corrected by, or
    fed into them: a zoo copy of ClusterA is calibrated, a re-clocked
    ClusterA (which keeps the name) is not.
    """
    for ref in (CLUSTER_A, CLUSTER_B):
        if cluster.machine_digest == ref.machine_digest:
            return ref.name
    return None


def theoretical_ratio_summary() -> dict[str, float]:
    """The headline hardware ratios the paper derives from Table 3.

    Returns the ClusterB/ClusterA node-level ratios of peak performance
    (~1.2) and memory bandwidth (~1.5) that bound the expected node
    speedups (Sect. 4.1.2).
    """
    a, b = CLUSTER_A.node, CLUSTER_B.node
    return {
        "peak_flops": b.peak_flops / a.peak_flops,
        "memory_bw": b.cpu.theoretical_memory_bw / a.cpu.theoretical_memory_bw,
        "l2_per_core": (
            b.cpu.hierarchy.l2.capacity_bytes / a.cpu.hierarchy.l2.capacity_bytes
        ),
        "l3_per_core": (
            b.cpu.hierarchy.l3.capacity_per_core / a.cpu.hierarchy.l3.capacity_per_core
        ),
    }
