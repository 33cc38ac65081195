"""Node allocation policies: modular vs accelerated-node.

The paper contrasts the Cluster-Booster way (independent reservation of
Cluster and Booster nodes, any combination) with conventional
accelerated clusters, where accelerators are bolted to specific host
nodes: there, an application occupying a host blocks its accelerator —
and vice versa — even when it does not use it (section II, "the static
arrangement of hardware resources ... limit[s] the accessibility to the
accelerators").  Both policies are implemented so the scheduler bench
can quantify the modularity advantage.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Sequence

from ..hardware.node import Node
from .job import Job

__all__ = ["ModularAllocator", "AcceleratedNodeAllocator", "AllocationError"]


class AllocationError(Exception):
    """Raised when a job requests more nodes than the machine has."""


class ModularAllocator:
    """One independent free pool per module — the Cluster-Booster policy.

    ``pools`` maps module names to their nodes, e.g.
    ``{"cluster": machine.cluster, "booster": machine.booster}`` or
    ``{m: machine.module(m) for m in machine.module_names}``.
    """

    def __init__(self, pools: Mapping[str, Sequence[Node]]):
        if not pools:
            raise ValueError("need at least one module pool")
        self._free: Dict[str, List[Node]] = {k: list(v) for k, v in pools.items()}
        self.totals = {k: len(v) for k, v in self._free.items()}

    def footprint(self, job: Job) -> Dict[str, int]:
        """Nodes the job occupies per module: exactly what it requests."""
        return job.requests

    def validate(self, job: Job) -> None:
        """Reject jobs that could never fit the machine."""
        for mod in job.requests:
            if mod not in self.totals:
                raise AllocationError(f"{job.name}: unknown module {mod!r}")
        for mod, n in self.footprint(job).items():
            if n > self.totals[mod]:
                raise AllocationError(
                    f"{job.name}: wants {n} {mod} nodes, module has "
                    f"{self.totals[mod]}"
                )

    def can_allocate(self, job: Job) -> bool:
        """Whether the job fits the currently free pools."""
        return all(
            n <= len(self._free.get(mod, ()))
            for mod, n in self.footprint(job).items()
        )

    def allocate(self, job: Job) -> Dict[str, List[Node]]:
        """Take the job's nodes out of the free pools."""
        if not self.can_allocate(job):
            raise AllocationError(f"insufficient free nodes for {job.name}")
        return {
            mod: [self._free[mod].pop() for _ in range(n)]
            for mod, n in self.footprint(job).items()
        }

    def release(self, allocation: Mapping[str, List[Node]]) -> None:
        """Return an allocation to the free pools."""
        for mod, nodes in allocation.items():
            self._free[mod].extend(nodes)

    def free_count(self, module: str) -> int:
        """Free nodes currently available in one module."""
        return len(self._free[module])

    def utilization_snapshot(self) -> Dict[str, float]:
        """Busy fraction of each module at this instant."""
        return {
            mod: 1.0 - len(free) / max(self.totals[mod], 1)
            for mod, free in self._free.items()
        }


class AcceleratedNodeAllocator(ModularAllocator):
    """Host-coupled accelerators: the conventional-cluster baseline.

    The ``booster`` nodes are statically attached to the ``cluster``
    hosts in the ratio of the two pools, B accelerators per C hosts.
    Allocating a host pins its accelerators and vice versa: a job
    occupies ``max(n_cluster, ceil(n_booster * C / B))`` hosts and the
    ``round(hosts * B / C)`` accelerators they carry (at least its own
    ``n_booster``).  The footprint is computed in integers, so every
    job :meth:`validate` accepts fits the empty machine.
    """

    def __init__(self, pools: Mapping[str, Sequence[Node]]):
        super().__init__(pools)
        if not self.totals.get("cluster") or not self.totals.get("booster"):
            raise ValueError("host coupling needs cluster and booster nodes")

    def footprint(self, job: Job) -> Dict[str, int]:
        """Hosts and accelerators the job occupies under coupling."""
        hosts_total, accels_total = self.totals["cluster"], self.totals["booster"]
        n_booster = job.requests.get("booster", 0)
        hosts = max(
            job.requests.get("cluster", 0),
            -(-n_booster * hosts_total // accels_total),  # ceil
        )
        # exact ratio, ties to even: one host of 16 carries none of 8 boosters
        pinned = round(Fraction(hosts * accels_total, hosts_total))
        return {
            **job.requests,
            "cluster": hosts,
            "booster": max(n_booster, pinned),
        }
