"""Malleable jobs and adaptive scheduling (ref [5] of the paper).

The DEEP project invested in "a batch system with efficient adaptive
scheduling for malleable and evolving applications" [Prabhakaran et
al., IPDPS'15].  A *malleable* job can run on any node count within
[min, max]; the scheduler may shrink running malleable jobs to admit
queued work and expand them into idle nodes — raising utilization
beyond what rigid allocations reach.

Model: a malleable job carries ``work`` in node-seconds; with ``n``
nodes it progresses at rate ``n`` (perfect malleability — the paper's
codes are closer to this than to rigid Amdahl limits at these scales).
Reallocation costs ``reconfig_cost_s`` of lost time.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Iterable, List, Optional

from ..hardware.node import Node
from ..sim import Interrupt, Simulator
from .allocator import AllocationError
from .job import JobState

__all__ = ["MalleableJob", "EvolvingJob", "AdaptiveScheduler"]


class MalleableJob:
    """A cluster-side malleable job.

    ``work_node_s`` node-seconds of work, runnable on ``min_nodes`` to
    ``max_nodes`` nodes, resized at the scheduler's discretion.
    """

    _ids = itertools.count()

    def __init__(
        self,
        name: str,
        work_node_s: float,
        min_nodes: int,
        max_nodes: int,
        submit_time: float = 0.0,
    ):
        if work_node_s <= 0:
            raise ValueError("work must be positive")
        if not 1 <= min_nodes <= max_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        self.job_id = next(MalleableJob._ids)
        self.name = name
        self.work_node_s = work_node_s
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.submit_time = submit_time
        self.state = JobState.PENDING
        self.nodes: List[Node] = []
        self.work_done = 0.0
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.resize_count = 0
        self._since = 0.0  # time of last (re)allocation

    @property
    def n_nodes(self) -> int:
        """Nodes currently allocated to the job."""
        return len(self.nodes)

    @property
    def remaining_work(self) -> float:
        """Node-seconds of work still to execute."""
        return max(0.0, self.work_node_s - self.work_done)

    def _credit_progress(self, now: float) -> None:
        # `_since` may sit in the future during a reconfiguration
        # penalty window: no progress (and no negative credit) then.
        self.work_done += self.n_nodes * max(0.0, now - self._since)
        self._since = max(now, self._since)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MalleableJob {self.name!r} {self.state.value} "
            f"on {self.n_nodes} nodes>"
        )


class EvolvingJob(MalleableJob):
    """An *evolving* application (ref [5]): it changes its own resource
    demand at runtime, through phases.

    ``phases`` is a list of ``(work_node_s, min_nodes, max_nodes)``;
    when one phase's work completes the job evolves into the next and
    asks the scheduler to resize it accordingly.
    """

    def __init__(self, name: str, phases, submit_time: float = 0.0):
        if not phases:
            raise ValueError("an evolving job needs at least one phase")
        for work, mn, mx in phases:
            if work <= 0 or not 1 <= mn <= mx:
                raise ValueError(f"invalid phase ({work}, {mn}, {mx})")
        self.phases = list(phases)
        self.phase_index = 0
        work0, mn0, mx0 = self.phases[0]
        super().__init__(
            name,
            work_node_s=work0,
            min_nodes=mn0,
            max_nodes=mx0,
            submit_time=submit_time,
        )

    @property
    def has_next_phase(self) -> bool:
        """Whether another phase follows the current one."""
        return self.phase_index + 1 < len(self.phases)

    def evolve(self) -> None:
        """Advance to the next phase (fresh work and bounds)."""
        if not self.has_next_phase:
            raise RuntimeError("no further phase to evolve into")
        self.phase_index += 1
        work, mn, mx = self.phases[self.phase_index]
        self.work_node_s = work
        self.work_done = 0.0
        self.min_nodes = mn
        self.max_nodes = mx


class AdaptiveScheduler:
    """Equipartition-style adaptive scheduler for malleable jobs.

    On every arrival/completion it recomputes a fair allocation: each
    pending or running job gets at least its minimum; leftover nodes are
    dealt round-robin up to each job's maximum.  Running jobs are
    resized (paying ``reconfig_cost_s``) when their share changes.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: List[Node],
        reconfig_cost_s: float = 1.0,
        adaptive: bool = True,
    ):
        if not nodes:
            raise ValueError("need at least one node")
        self.sim = sim
        self.pool: List[Node] = list(nodes)
        self.total_nodes = len(nodes)
        self.reconfig_cost_s = reconfig_cost_s
        self.adaptive = adaptive
        self.jobs: List[MalleableJob] = []
        self.queue: Deque[MalleableJob] = deque()
        self._procs = {}
        self.last_completion = 0.0

    # -- public API ---------------------------------------------------------
    def submit(self, job: MalleableJob, delay: float = 0.0) -> MalleableJob:
        """Submit one malleable job (optionally after a delay)."""
        if job.min_nodes > self.total_nodes:
            raise AllocationError(
                f"{job.name} needs {job.min_nodes} nodes, pool has "
                f"{self.total_nodes}"
            )
        self.jobs.append(job)
        self.sim.process(self._arrive(job, delay))
        return job

    def submit_all(self, jobs: Iterable[MalleableJob]) -> None:
        """Submit a stream of jobs at their recorded submit times."""
        for job in jobs:
            self.submit(job, delay=max(0.0, job.submit_time - self.sim.now))

    @property
    def makespan(self) -> float:
        """Completion time of the last finished job."""
        return self.last_completion

    def mean_wait(self) -> float:
        """Mean queue wait over all started jobs."""
        waits = [
            j.start_time - j.submit_time
            for j in self.jobs
            if j.start_time is not None
        ]
        return sum(waits) / len(waits) if waits else 0.0

    # -- internals -----------------------------------------------------------
    def _arrive(self, job: MalleableJob, delay: float):
        if delay > 0:
            yield self.sim.timeout(delay)
        job.submit_time = self.sim.now
        self.queue.append(job)
        self._rebalance()

    def _target_shares(self) -> dict:
        """Fair shares for all active (running + queued) jobs."""
        active = [j for j in self.jobs if j.state is JobState.RUNNING]
        waiting = list(self.queue)
        candidates = active + waiting
        shares = {}
        free = self.total_nodes
        # first pass: minimums, FCFS priority
        for j in candidates:
            give = j.min_nodes if free >= j.min_nodes else 0
            shares[j.job_id] = give
            free -= give
        # second pass: distribute leftovers round-robin up to maximums
        progress = True
        while free > 0 and progress:
            progress = False
            for j in candidates:
                if shares[j.job_id] and shares[j.job_id] < j.max_nodes and free > 0:
                    shares[j.job_id] += 1
                    free -= 1
                    progress = True
        return shares

    def _rebalance(self) -> None:
        if self.adaptive:
            shares = self._target_shares()
        else:
            # rigid baseline: running jobs keep their allocation; queued
            # jobs start at their maximum when it fits (FCFS)
            shares = {}
            free = self.total_nodes - sum(
                j.n_nodes for j in self.jobs if j.state is JobState.RUNNING
            )
            for j in self.jobs:
                if j.state is JobState.RUNNING:
                    shares[j.job_id] = j.n_nodes
            for j in list(self.queue):
                if free >= j.max_nodes:
                    shares[j.job_id] = j.max_nodes
                    free -= j.max_nodes
                else:
                    shares[j.job_id] = 0

        # shrink first (frees nodes), then start/grow
        for j in [x for x in self.jobs if x.state is JobState.RUNNING]:
            want = shares.get(j.job_id, j.n_nodes)
            if want < j.n_nodes:
                self._resize(j, want)
        for j in list(self.queue):
            want = shares.get(j.job_id, 0)
            if want >= j.min_nodes and len(self.pool) >= want:
                self.queue.remove(j)
                self._start(j, want)
        for j in [x for x in self.jobs if x.state is JobState.RUNNING]:
            want = shares.get(j.job_id, j.n_nodes)
            if want > j.n_nodes and len(self.pool) >= want - j.n_nodes:
                self._resize(j, want)

    def _rebalance_for(self, job: MalleableJob) -> None:
        """Resize one running job to its current phase's bounds."""
        shares = self._target_shares() if self.adaptive else {}
        want = shares.get(job.job_id, min(job.max_nodes, job.n_nodes))
        want = max(job.min_nodes, min(want or job.min_nodes, job.max_nodes))
        available = len(self.pool) + job.n_nodes
        want = min(want, available)
        if want >= job.min_nodes:
            # the caller is the job's own process loop, so _resize
            # does not interrupt it
            self._resize(job, want)
        # freed (or newly demanded) nodes may admit queued jobs; the
        # evolving job itself already sits at its target share, so the
        # global pass will not try to self-interrupt it
        self._rebalance()

    def _start(self, job: MalleableJob, n: int) -> None:
        job.nodes = [self.pool.pop() for _ in range(n)]
        job.state = JobState.RUNNING
        job.start_time = self.sim.now
        job._since = self.sim.now
        self._procs[job.job_id] = self.sim.process(self._run(job))

    def _resize(self, job: MalleableJob, n: int) -> None:
        """Change a running job's allocation to ``n`` nodes."""
        if n == job.n_nodes:
            return
        job._credit_progress(self.sim.now)
        if n < job.n_nodes:
            for _ in range(job.n_nodes - n):
                self.pool.append(job.nodes.pop())
        else:
            job.nodes.extend(self.pool.pop() for _ in range(n - job.n_nodes))
        job.resize_count += 1
        # reconfiguration penalty: the job loses reconfig_cost_s
        job._since = self.sim.now + self.reconfig_cost_s
        proc = self._procs.get(job.job_id)
        if (
            proc is not None
            and proc.is_alive
            and proc is not self.sim.active_process
        ):
            # wake the job's loop so it recomputes its ETA; when the
            # resize happens from inside the job's own loop (evolving
            # jobs), the loop re-enters by itself
            proc.interrupt(cause="resize")

    def _run(self, job: MalleableJob):
        while True:
            if job.n_nodes == 0:
                return  # fully preempted (not used by current policies)
            eta = job.remaining_work / job.n_nodes
            pause = max(0.0, job._since - self.sim.now)  # reconfig penalty
            try:
                yield self.sim.timeout(pause + eta)
            except Interrupt:
                continue  # resized: recompute the ETA
            job._credit_progress(self.sim.now)
            if job.remaining_work <= 1e-9:
                if isinstance(job, EvolvingJob) and job.has_next_phase:
                    # the application evolves: new demand, ask the
                    # scheduler for a fitting allocation
                    job.evolve()
                    self._rebalance_for(job)
                    continue
                break
        job.state = JobState.COMPLETED
        job.end_time = self.sim.now
        self.last_completion = max(self.last_completion, self.sim.now)
        self.pool.extend(job.nodes)
        job.nodes = []
        self._procs.pop(job.job_id, None)
        self._rebalance()
