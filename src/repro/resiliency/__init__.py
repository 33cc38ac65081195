"""DEEP-ER resiliency stack (section III-D).

Failure model of the prototype, Young/Daly checkpoint cadence, and an
SCR-like multi-level checkpoint/restart manager over NVMe, buddy nodes,
NAM and the global file system.
"""

from .._lazy import lazy_exports

# each name loads its module on first use: a spec naming a fault plan
# loads the injector alone, and only a faulted run loads the
# checkpoint manager (with the I/O and NAM models under it)
lazy_exports(__name__, {
    ".failure": ["expected_runtime", "optimal_interval"],
    ".inject": ["FAULT_KINDS", "FaultEvent", "FaultInjector", "FaultPlan"],
    ".malleable": ["MalleabilityPolicy", "allocation_shrink_plan"],
    ".scr": ["SCR", "CheckpointLevel", "CheckpointRecord"],
})

__all__ = [
    "optimal_interval",
    "expected_runtime",
    "SCR",
    "CheckpointLevel",
    "CheckpointRecord",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FAULT_KINDS",
    "MalleabilityPolicy",
    "allocation_shrink_plan",
]
