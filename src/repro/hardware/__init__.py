"""Hardware models of the DEEP-ER prototype (Table I).

Processors (Haswell Xeon, KNL Xeon Phi), memory hierarchies
(DDR4, MCDRAM), node-local NVMe, nodes, the compute-module specs, and
the one machine builder with its prototype presets.
"""

from .machine import (
    Machine,
    ModuleSpec,
    booster_module,
    build_deep_er_prototype,
    build_jureca_like,
    build_modular_system,
    cluster_module,
    table1_rows,
)
from .memory import GB, GIB, MemoryLevel, MemorySystem
from .node import Node, NodeKind
from .nvme import DC_P3700_PARAMS, NVMeDevice, StorageFullError
from .processor import HASWELL_E5_2680V3, KNL_7210, Processor
from . import presets

__all__ = [
    "Machine",
    "ModuleSpec",
    "cluster_module",
    "booster_module",
    "build_modular_system",
    "build_deep_er_prototype",
    "build_jureca_like",
    "table1_rows",
    "MemoryLevel",
    "MemorySystem",
    "GB",
    "GIB",
    "Node",
    "NodeKind",
    "NVMeDevice",
    "StorageFullError",
    "DC_P3700_PARAMS",
    "Processor",
    "HASWELL_E5_2680V3",
    "KNL_7210",
    "presets",
]
