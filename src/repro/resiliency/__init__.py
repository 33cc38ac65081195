"""DEEP-ER resiliency stack (section III-D).

Failure model of the prototype, Young/Daly checkpoint cadence, and an
SCR-like multi-level checkpoint/restart manager over NVMe, buddy nodes,
NAM and the global file system.
"""

from .failure import expected_runtime, optimal_interval
from .inject import FAULT_KINDS, FaultEvent, FaultInjector, FaultPlan
from .malleable import MalleabilityPolicy, allocation_shrink_plan
from .scr import SCR, CheckpointLevel, CheckpointRecord

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
