"""Modular resource management (section II-A, ref [5]).

Batch jobs request nodes from each module independently (Cluster and
Booster, or any module of a DEEP-EST system) and may depend on other
jobs; the one scheduler places them FCFS with EASY backfill.  The
accelerated-node allocator models the conventional host-coupled
baseline the paper contrasts against.  Malleable jobs keep their own
equipartition scheduler.
"""

from .allocator import (
    AcceleratedNodeAllocator,
    AllocationError,
    ModularAllocator,
)
from .job import Job, JobState
from .malleable import AdaptiveScheduler, EvolvingJob, MalleableJob
from .scheduler import BatchScheduler, ScheduleReport
from .workloads import mixed_center_workload

__all__ = [
    "Job",
    "JobState",
    "ModularAllocator",
    "AcceleratedNodeAllocator",
    "AllocationError",
    "BatchScheduler",
    "ScheduleReport",
    "MalleableJob",
    "EvolvingJob",
    "AdaptiveScheduler",
    "mixed_center_workload",
]
