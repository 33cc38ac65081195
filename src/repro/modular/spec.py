"""The Data Analytics Module of Modular Supercomputing (DEEP-EST).

Section VI: DEEP-EST "combines any number of compute modules (Cluster
and Booster are two such modules) into a unified computing platform.
Each compute module is a cluster of a potentially large size, tailored
to the specific needs of a class of applications."

The Cluster and Booster specs live with the machine builder in
:mod:`repro.hardware`; this adds the third module of the DEEP-EST
prototype, a Data Analytics Module (DAM: fat-memory nodes for HPDA
workloads).
"""

from __future__ import annotations

from ..hardware.machine import ModuleSpec
from ..hardware.memory import GB, MemoryLevel, MemorySystem
from ..hardware.node import NodeKind
from ..hardware.processor import Processor

__all__ = ["data_analytics_module"]


#: Fat-memory processor for the Data Analytics Module: fewer, faster
#: cores with huge DRAM (Skylake-class in the DEEP-EST prototype).
_DAM_PROCESSOR = Processor(
    model="Intel Xeon Gold 6146 (DAM)",
    microarchitecture="Skylake",
    sockets=2,
    cores=24,
    threads=48,
    frequency_hz=3.2e9,
    flops_per_cycle=32,
    scalar_ipc=3.2,
)


def _dam_memory() -> MemorySystem:
    return MemorySystem(
        [MemoryLevel("DDR4", 384 * GB, 200e9, latency_s=85e-9)]
    )


def data_analytics_module(name: str = "dam", nodes: int = 4) -> ModuleSpec:
    """Data Analytics Module: big memory + strong single thread for
    HPDA workloads (section VI: 'HPC and high performance data
    analytics (HPDA) workloads')."""
    return ModuleSpec(
        name=name,
        node_count=nodes,
        processor=_DAM_PROCESSOR,
        memory_factory=_dam_memory,
        kind=NodeKind.DAM,
        nic_sw_overhead_s=0.40e-6,
        node_prefix="dn",
    )
