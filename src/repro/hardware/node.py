"""Compute node model: processor + memory + NVMe + NIC parameters."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .memory import MemorySystem
from .nvme import NVMeDevice
from .processor import Processor

__all__ = ["NodeKind", "Node"]


class NodeKind(enum.Enum):
    """Role of a node in the modular system."""

    CLUSTER = "cluster"
    BOOSTER = "booster"
    DAM = "dam"  # Data Analytics Module (DEEP-EST generalization)
    STORAGE = "storage"
    SERVICE = "service"
    NAM = "nam"


@dataclass
class Node:
    """A single node of the prototype.

    ``nic_sw_overhead_s`` is the per-side software cost of an MPI
    message (protocol processing on the host CPU).  It is the
    calibration anchor for Table I's measured MPI latencies: the KNL's
    slow scalar core makes its overhead larger (footnote 1 of the
    paper).
    """

    node_id: str
    kind: NodeKind
    processor: Optional[Processor] = None
    memory: Optional[MemorySystem] = None
    nvme: Optional[NVMeDevice] = None
    nic_sw_overhead_s: float = 0.44e-6
    failed: bool = False
    #: Module membership for Modular Supercomputing systems; defaults
    #: to the kind's name (Cluster-Booster two-module case).
    module: Optional[str] = None

    def __post_init__(self):
        if self.nic_sw_overhead_s < 0:
            raise ValueError("NIC overhead cannot be negative")
        if self.module is None:
            self.module = self.kind.value

    @property
    def peak_flops(self) -> float:
        """Peak DP flop/s of the node's processor (0 without one)."""
        if self.processor is None:
            return 0.0
        return self.processor.peak_flops

    def fail(self) -> None:
        """Mark the node failed; local NVMe contents are lost."""
        self.failed = True
        if self.nvme is not None:
            self.nvme.wipe()

    def recover(self) -> None:
        """Return a failed node to service (its NVMe stays wiped)."""
        self.failed = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.node_id} ({self.kind.value})>"

    def __hash__(self) -> int:
        return hash(self.node_id)
