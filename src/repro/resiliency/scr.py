"""SCR-like multi-level checkpoint/restart (section III-D, ref [14]).

The application hands SCR the data it needs to restart; SCR keeps a
database of checkpoints and their locations and picks, per checkpoint,
the cheapest level that still meets the protection policy:

* ``LOCAL``  — node-local NVMe: fastest, lost with the node;
* ``BUDDY``  — copy in a companion node's NVMe (via SIONlib): survives
  single-node failure;
* ``NAM``    — network attached memory: survives any compute-node
  failure, no remote CPU needed;
* ``GLOBAL`` — BeeGFS through SIONlib containers: survives everything.

DEEP-ER extended SCR to choose *where and how often* from the machine's
failure model; :meth:`SCR.need_checkpoint` implements the Young/Daly
cadence.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from ..hardware.node import Node
from ..io.beegfs import BeeGFS
from ..io.sionlib import SIONFile, buddy_write
from ..nam.device import NAMDevice, NAMFullError
from ..sim import Simulator

__all__ = ["CheckpointLevel", "CheckpointRecord", "SCR", "LEVEL_COST"]


class CheckpointLevel(enum.Enum):
    LOCAL = "local"
    BUDDY = "buddy"
    NAM = "nam"
    GLOBAL = "global"


#: relative restart expense of each level (restores prefer cheap ones)
LEVEL_COST = {
    CheckpointLevel.LOCAL: 0,
    CheckpointLevel.BUDDY: 1,
    CheckpointLevel.NAM: 2,
    CheckpointLevel.GLOBAL: 3,
}


@dataclass
class CheckpointRecord:
    """One entry of SCR's checkpoint database.

    ``node_id``/``buddy_id`` pin the record to the nodes holding the
    data *at checkpoint time*, so restarts keep working after failed
    nodes are replaced in the job.
    """

    ckpt_id: int
    step: int
    level: CheckpointLevel
    rank: int
    node_id: str
    nbytes: int
    time: float
    buddy_id: Optional[str] = None
    valid: bool = True


class SCR:
    """Per-job scalable checkpoint/restart manager."""

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[Node],
        fabric,
        fs: Optional[BeeGFS] = None,
        nam: Optional[NAMDevice] = None,
        checkpoint_interval_s: Optional[float] = None,
        global_every: int = 4,
    ):
        """``global_every``: every k-th checkpoint is escalated to a
        stronger level (the usual SCR multi-level policy)."""
        if not nodes:
            raise ValueError("need at least one node")
        self.sim = sim
        self.nodes = list(nodes)
        self.fs = fs
        self.nam = nam
        self.fabric = fabric
        self.checkpoint_interval_s = checkpoint_interval_s
        self.global_every = global_every
        self.database: List[CheckpointRecord] = []
        self._counter = itertools.count(1)
        self._last_checkpoint_time = 0.0
        self._sion: Optional[SIONFile] = None
        #: every node that ever held job data, by id (survives replacement)
        self._node_registry: dict = {n.node_id: n for n in self.nodes}
        #: buddy checkpoints degraded to local because the buddy failed
        self.degraded_checkpoints = 0

    def replace_node(self, rank: int, node: Node) -> None:
        """Swap a (failed) node out of the job; old checkpoints stay
        reachable through their recorded node ids."""
        self.nodes[rank] = node
        self._node_registry[node.node_id] = node

    def level_counts(self) -> dict:
        """Checkpoints written so far, by level name (for reporting)."""
        out = {level.value: 0 for level in CheckpointLevel}
        for rec in self.database:
            out[rec.level.value] += 1
        return out

    # -- policy ----------------------------------------------------------------
    def need_checkpoint(self) -> bool:
        """True when the failure-model-driven cadence says it is time."""
        if self.checkpoint_interval_s is None:
            return False
        return (
            self.sim.now - self._last_checkpoint_time
            >= self.checkpoint_interval_s
        )

    def restart_cadence(self) -> None:
        """Count the next interval from now: a (re)launched job owes its
        first checkpoint one interval after it starts computing."""
        self._last_checkpoint_time = self.sim.now

    def next_level(self) -> CheckpointLevel:
        """Multi-level schedule: mostly cheap levels, periodically strong."""
        n = len(self.database) + 1
        if self.fs is not None and n % self.global_every == 0:
            return CheckpointLevel.GLOBAL
        if self.nam is not None and n % 2 == 0:
            return CheckpointLevel.NAM
        if len(self.nodes) > 1:
            return CheckpointLevel.BUDDY
        return CheckpointLevel.LOCAL

    def buddy_of(self, rank: int) -> Node:
        """Companion node: the neighbour in a ring over the job's nodes."""
        return self.nodes[(rank + 1) % len(self.nodes)]

    # -- checkpoint --------------------------------------------------------
    def checkpoint(
        self,
        rank: int,
        step: int,
        nbytes: int,
        level: Optional[CheckpointLevel] = None,
        payload=None,
    ) -> Generator:
        """Write one rank's checkpoint at ``level`` (policy default).

        ``payload`` optionally carries the actual restart data; the
        NVMe-backed levels (LOCAL, BUDDY) store and return it on
        restart via :attr:`last_restored_payload`.
        """
        node = self.nodes[rank]
        if node.failed:
            raise RuntimeError(
                f"cannot checkpoint rank {rank}: node {node.node_id} failed"
            )
        level = level or self.next_level()
        if level is CheckpointLevel.BUDDY and self.buddy_of(rank).failed:
            # the companion is gone: degrade to a local-only checkpoint
            # until the failed node is replaced
            level = CheckpointLevel.LOCAL
            self.degraded_checkpoints += 1
        name = f"ckpt/{step}/{rank}"
        if level is CheckpointLevel.LOCAL:
            yield from node.nvme.write(name, nbytes, payload=payload)
        elif level is CheckpointLevel.BUDDY:
            # local copy first, then the buddy copy via the fabric
            yield from node.nvme.write(name, nbytes, payload=payload)
            yield from buddy_write(
                self.fabric, node, self.buddy_of(rank), name, nbytes,
                payload=payload,
            )
        elif level is CheckpointLevel.NAM:
            if self.nam is None:
                raise ValueError("no NAM configured")
            region_name = f"{name}"
            try:
                self.nam.allocate(region_name, nbytes)
            except NAMFullError:
                # HMC exhausted: escalate to the global file system (or
                # degrade to local when there is none) instead of dying
                self.degraded_checkpoints += 1
                level = (
                    CheckpointLevel.GLOBAL
                    if self.fs is not None
                    else CheckpointLevel.LOCAL
                )
                if level is CheckpointLevel.LOCAL:
                    yield from node.nvme.write(name, nbytes, payload=payload)
            except ValueError:
                pass  # region reused across repeated checkpoints
            if level is CheckpointLevel.NAM:
                yield from self.nam.put(node, region_name, nbytes)
        if level is CheckpointLevel.GLOBAL:
            if self.fs is None:
                raise ValueError("no global file system configured")
            if self._sion is None:
                # First rank in opens the shared container; concurrent
                # rank processes wait on the open-completion event.
                self._sion = SIONFile(
                    self.fs,
                    "scr/ckpt.sion",
                    n_tasks=len(self.nodes),
                    chunk_size=nbytes,
                )
                self._sion_opened = self.sim.event()
                yield from self._sion.open(node)
                self._sion_opened.succeed()
            elif not self._sion_opened.triggered:
                yield self._sion_opened
            yield from self._sion.write_task(node, rank, nbytes)
        record = CheckpointRecord(
            ckpt_id=next(self._counter),
            step=step,
            level=level,
            rank=rank,
            node_id=node.node_id,
            nbytes=nbytes,
            time=self.sim.now,
            buddy_id=self.buddy_of(rank).node_id
            if level is CheckpointLevel.BUDDY
            else None,
        )
        self.database.append(record)
        self._last_checkpoint_time = self.sim.now
        return record

    # -- restart ------------------------------------------------------------
    def available_checkpoints(self, rank: int) -> List[CheckpointRecord]:
        """Records for ``rank`` whose data still survives."""
        out = []
        for rec in self.database:
            if rec.rank != rank or not rec.valid:
                continue
            node = self._node_registry[rec.node_id]
            name = f"ckpt/{rec.step}/{rank}"
            if rec.level is CheckpointLevel.LOCAL:
                if not node.failed and node.nvme.contains(name):
                    out.append(rec)
            elif rec.level is CheckpointLevel.BUDDY:
                buddy = self._node_registry[rec.buddy_id]
                if (not node.failed and node.nvme.contains(name)) or (
                    not buddy.failed
                    and buddy.nvme.contains(f"buddy/{rec.node_id}/{name}")
                ):
                    out.append(rec)
            elif rec.level is CheckpointLevel.NAM:
                out.append(rec)  # NAM survives compute-node failures
            elif rec.level is CheckpointLevel.GLOBAL:
                out.append(rec)
        return out

    def latest_restartable_step(self, ranks: Sequence[int]) -> Optional[int]:
        """Newest step for which *every* rank has a surviving checkpoint."""
        common = None
        for r in ranks:
            steps = {rec.step for rec in self.available_checkpoints(r)}
            common = steps if common is None else (common & steps)
        if not common:
            return None
        return max(common)

    def restart(self, rank: int, step: int, onto: Optional[Node] = None) -> Generator:
        """Read rank's checkpoint of ``step`` back (possibly onto a
        replacement node); returns the record used."""
        node = onto or self.nodes[rank]
        candidates = [
            rec
            for rec in self.available_checkpoints(rank)
            if rec.step == step
        ]
        if not candidates:
            raise LookupError(f"no surviving checkpoint of step {step} for rank {rank}")
        # cheapest surviving level wins (NVMe read beats NAM beats
        # BeeGFS); newest record breaks ties within a level
        rec = min(
            candidates, key=lambda r: (LEVEL_COST[r.level], -r.ckpt_id)
        )
        name = f"ckpt/{rec.step}/{rank}"
        home = self._node_registry[rec.node_id]
        payload = None
        if rec.level is CheckpointLevel.LOCAL:
            payload = yield from home.nvme.read(name)
        elif rec.level is CheckpointLevel.BUDDY:
            if not home.failed and home.nvme.contains(name):
                payload = yield from home.nvme.read(name)
            else:
                buddy = self._node_registry[rec.buddy_id]
                payload = yield from buddy.nvme.read(
                    f"buddy/{rec.node_id}/{name}"
                )
                yield from self.fabric.transfer(
                    buddy.node_id, node.node_id, rec.nbytes
                )
        elif rec.level is CheckpointLevel.NAM:
            yield from self.nam.get(node, name, rec.nbytes)
        elif rec.level is CheckpointLevel.GLOBAL:
            yield from self._sion.read_task(node, rank)
        #: actual restart data for NVMe-backed levels (None otherwise)
        self.last_restored_payload = payload
        return rec
