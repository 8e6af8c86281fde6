"""Parametric machine models for the simulated clusters.

This subpackage replaces the paper's physical testbed (Table 3): it describes
CPUs, cache hierarchies, ccNUMA topology, nodes, the InfiniBand fabric, and
whole clusters as plain data objects consumed by the execution, power, and
network models.

The two systems of the paper are available as :data:`repro.machine.CLUSTER_A`
(Ice Lake) and :data:`repro.machine.CLUSTER_B` (Sapphire Rapids); a
Sandy-Bridge-era reference used for the idle-power comparison of Sect. 4.2.3
is :data:`repro.machine.SANDY_BRIDGE_NODE`.
"""

from repro.machine.cache import CacheLevel, MemoryHierarchy
from repro.machine.cpu import CpuSpec
from repro.machine.network import NetworkSpec
from repro.machine.node import CoreLocation, NodeSpec
from repro.machine.cluster import ClusterSpec
from repro.machine.registry import (
    CLUSTER_A,
    CLUSTER_B,
    CLUSTERS,
    ICE_LAKE_8360Y,
    SANDY_BRIDGE_NODE,
    SAPPHIRE_RAPIDS_8470,
    calibrated,
    get_cluster,
)

__all__ = [
    "CacheLevel",
    "MemoryHierarchy",
    "CpuSpec",
    "NetworkSpec",
    "CoreLocation",
    "NodeSpec",
    "ClusterSpec",
    "CLUSTER_A",
    "CLUSTER_B",
    "CLUSTERS",
    "ICE_LAKE_8360Y",
    "SAPPHIRE_RAPIDS_8470",
    "SANDY_BRIDGE_NODE",
    "calibrated",
    "get_cluster",
]
