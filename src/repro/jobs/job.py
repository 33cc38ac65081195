"""Jobs for the modular resource manager."""

from __future__ import annotations

import enum
import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..hardware.node import Node

__all__ = ["JobState", "Job"]


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


@dataclass(eq=False)
class Job:
    """A batch job requesting nodes from any combination of modules.

    The Cluster-Booster architecture "poses no constraints on the
    combination of CPU and accelerator nodes that an application may
    select, since resources are reserved and allocated independently"
    (section II-A) — hence one node count per module name, e.g.
    ``Job("xpic", {"cluster": 4, "booster": 4}, 3600.0)``.

    ``after`` lists jobs this one depends on (a workflow DAG, like
    Slurm's ``--dependency=afterok``): it becomes eligible only once
    every listed job has completed.
    """

    name: str
    requests: Dict[str, int]
    duration_s: float
    submit_time: float = 0.0
    after: tuple = ()
    _ids = itertools.count()

    def __post_init__(self):
        if not isinstance(self.requests, Mapping):
            raise TypeError("requests must map module names to node counts")
        if any(v < 0 for v in self.requests.values()):
            raise ValueError("node counts cannot be negative")
        if not any(self.requests.values()):
            raise ValueError("job must request at least one node")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        self.after = tuple(self.after)
        for dep in self.after:
            if not isinstance(dep, Job):
                raise TypeError("after must contain Job instances")
        self.requests = {k: v for k, v in self.requests.items() if v > 0}
        self.job_id = next(Job._ids)
        self.state = JobState.PENDING
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        #: nodes held per module while running (host coupling may pin
        #: more than ``requests``)
        self.allocation: Dict[str, List[Node]] = {}

    @property
    def dependencies_met(self) -> bool:
        """Whether every prerequisite job has completed."""
        return all(d.state is JobState.COMPLETED for d in self.after)

    @property
    def wait_time(self) -> Optional[float]:
        """Queue wait (None until the job starts)."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def total_nodes(self) -> int:
        """Nodes requested across all modules."""
        return sum(self.requests.values())

    def node_seconds(self) -> float:
        """Requested node-seconds (work volume) of the job."""
        return self.total_nodes * self.duration_s
