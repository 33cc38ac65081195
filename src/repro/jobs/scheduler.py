"""Event-driven batch scheduler (FCFS with optional EASY backfill).

Runs on the discrete-event simulator: jobs arrive, wait in the queue
until their dependencies complete, are placed by the allocator policy,
occupy their nodes for their duration, and release them.  Extends the
batch-system work the DEEP project invested in (ref [5] of the paper)
in a simplified form sufficient for the modularity-throughput ablation,
over any number of modules (section VI: DEEP-EST's resource management
"to deal with any number of compute modules").
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

from ..sim import Simulator
from .allocator import ModularAllocator
from .job import Job, JobState

__all__ = ["BatchScheduler", "ScheduleReport"]


class ScheduleReport:
    """Aggregate statistics of a completed schedule."""

    def __init__(self, jobs: List[Job], makespan: float, totals: Dict[str, int]):
        self.jobs = jobs
        self.makespan = makespan
        self.totals = dict(totals)

    @property
    def mean_wait(self) -> float:
        """Mean queue wait over all started jobs."""
        waits = [j.wait_time for j in self.jobs if j.wait_time is not None]
        return sum(waits) / len(waits) if waits else 0.0

    @property
    def throughput(self) -> float:
        """Completed jobs per unit time."""
        done = [j for j in self.jobs if j.state is JobState.COMPLETED]
        return len(done) / self.makespan if self.makespan > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Useful node-seconds / node-seconds available over the makespan.

        Counts the nodes each job *requested*, not those its allocator
        pinned: host-coupled accelerator policies occupy extra nodes
        that do no work, which is precisely the inefficiency the paper's
        modular allocation removes.
        """
        used = sum(
            j.total_nodes * j.duration_s
            for j in self.jobs
            if j.state is JobState.COMPLETED
        )
        capacity = sum(self.totals.values()) * self.makespan
        return used / capacity if capacity > 0 else 0.0

    def module_utilization(self, module: str) -> float:
        """:attr:`utilization` restricted to one module."""
        used = sum(
            j.requests.get(module, 0) * j.duration_s
            for j in self.jobs
            if j.state is JobState.COMPLETED
        )
        capacity = self.totals[module] * self.makespan
        return used / capacity if capacity > 0 else 0.0


class BatchScheduler:
    """FCFS (+EASY backfill) scheduler over an allocation policy."""

    def __init__(
        self,
        sim: Simulator,
        allocator: ModularAllocator,
        backfill: bool = True,
    ):
        self.sim = sim
        self.allocator = allocator
        self.backfill = backfill
        self.queue: Deque[Job] = deque()
        self.jobs: List[Job] = []
        self._pass_pending = False
        self.last_completion = 0.0

    # -- public API ---------------------------------------------------------
    def submit(self, job: Job, delay: float = 0.0) -> Job:
        """Submit a job ``delay`` seconds from now."""
        self.allocator.validate(job)
        self.jobs.append(job)
        self.sim.process(self._arrive(job, delay))
        return job

    def submit_all(self, jobs: Iterable[Job]) -> None:
        """Submit a stream of jobs at their recorded submit times."""
        for job in jobs:
            self.submit(job, delay=max(0.0, job.submit_time - self.sim.now))

    def report(self) -> ScheduleReport:
        """Aggregate statistics of the schedule so far."""
        return ScheduleReport(
            list(self.jobs), self.last_completion, self.allocator.totals
        )

    # -- internals -----------------------------------------------------------
    def _arrive(self, job: Job, delay: float):
        if delay > 0:
            yield self.sim.timeout(delay)
        job.submit_time = self.sim.now
        self.queue.append(job)
        self._wake()

    def _wake(self) -> None:
        # one scheduling pass per instant, however many arrivals and
        # completions land in it; a callback, not a parked process, so
        # a finished schedule leaves nothing for the cyclic collector
        if not self._pass_pending:
            self._pass_pending = True
            self.sim.call_in(0.0, self._try_start)

    def _try_start(self, _entry) -> None:
        self._pass_pending = False
        # FCFS head
        while (
            self.queue
            and self.queue[0].dependencies_met
            and self.allocator.can_allocate(self.queue[0])
        ):
            self._start(self.queue.popleft())
        if not self.backfill or not self.queue:
            return
        # EASY backfill: a later job may jump ahead if it fits right now
        # and finishes before the head job's earliest possible start,
        # estimated once per pass.  A head still waiting on its
        # dependencies reserves nothing, so it never starves the queue.
        head_ready = self.queue[0].dependencies_met
        head_start = self._estimate_head_start() if head_ready else None
        for job in list(self.queue)[1:]:
            if (
                job.dependencies_met
                and self.allocator.can_allocate(job)
                and (head_start is None or self.sim.now + job.duration_s <= head_start)
            ):
                self.queue.remove(job)
                self._start(job)

    def _estimate_head_start(self) -> Optional[float]:
        """Earliest time the queue head could start, from running jobs'
        declared durations (conservative: when enough nodes free up for
        the nodes the allocator would give it, its footprint)."""
        needs = self.allocator.footprint(self.queue[0])
        running = sorted(
            (j for j in self.jobs if j.state is JobState.RUNNING),
            key=lambda j: j.start_time + j.duration_s,
        )
        free = {m: self.allocator.free_count(m) for m in self.allocator.totals}
        for j in running:
            for mod, nodes in j.allocation.items():
                free[mod] += len(nodes)
            if all(free[mod] >= n for mod, n in needs.items()):
                return j.start_time + j.duration_s
        return None

    def _start(self, job: Job) -> None:
        job.allocation = self.allocator.allocate(job)
        job.state = JobState.RUNNING
        job.start_time = self.sim.now
        self.sim.process(self._run(job))

    def _run(self, job: Job):
        yield self.sim.timeout(job.duration_s)
        job.state = JobState.COMPLETED
        job.end_time = self.sim.now
        self.last_completion = max(self.last_completion, self.sim.now)
        self.allocator.release(job.allocation)
        self._wake()
