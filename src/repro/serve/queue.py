"""Jobs and the bounded fair-share priority queue of the service.

A :class:`Job` is one admitted :class:`~repro.engine.ExperimentSpec`
submission: a future-like handle clients block on (``job.result()``),
or hang a done-callback on, while the service schedules and executes
it.  Coalesced duplicate submissions share one Job, so a single
execution fans its report out to every waiter.  :class:`Waitable` is
the result half it shares with the fleet's
:class:`~repro.fleet.router.FleetJob`.

The :class:`JobQueue` is *bounded* — admission control is the
backpressure mechanism of the service; when the queue is at depth the
push raises a typed :class:`QueueFull` carrying a retry-after hint —
and *fair-share ordered*: among the highest-priority pending jobs the
client with the fewest recently-dispatched jobs goes first, so one
chatty client cannot starve the rest of the machine.

:func:`bad_field` is the one admission rule for the ``priority`` and
``deadline_s`` of a request from outside the process, applied by both
doors: the job directory (:mod:`repro.serve.filejob`) and the fleet's
TCP front end (:mod:`repro.fleet.frontend`).
"""

from __future__ import annotations

import sys
import threading
from enum import Enum
from typing import Callable, Dict, List, Optional

__all__ = [
    "DeadlineExceeded",
    "Job",
    "JobQueue",
    "JobState",
    "PoisonJobError",
    "QueueFull",
    "Waitable",
    "bad_field",
    "bad_seconds",
]


class QueueFull(RuntimeError):
    """Typed admission rejection: the bounded job queue is at depth.

    Carries ``depth``/``max_depth`` and a ``retry_after_s`` hint — the
    service's estimate of when a slot frees up, derived from observed
    worker latency — so clients can back off intelligently instead of
    hammering the front door.
    """

    def __init__(self, depth: int, max_depth: int, retry_after_s: float):
        super().__init__(
            f"job queue is full ({depth}/{max_depth} queued); "
            f"retry in ~{retry_after_s:.3f}s"
        )
        self.depth = depth
        self.max_depth = max_depth
        self.retry_after_s = retry_after_s


class DeadlineExceeded(RuntimeError):
    """Typed per-job failure: the job missed its ``deadline_s`` budget.

    The deadline is a *queue-time* promise — "run me within N seconds
    of submission or don't bother" — checked by the scheduler before
    dispatch, so an expired job fails fast instead of wasting a worker
    slot on a result its client has already given up on.
    """

    def __init__(self, job_id: int, deadline_s: float, waited_s: float):
        super().__init__(
            f"job {job_id} missed its {deadline_s:.3f}s deadline "
            f"(waited {waited_s:.3f}s without being dispatched)"
        )
        self.job_id = job_id
        self.deadline_s = deadline_s
        self.waited_s = waited_s


class PoisonJobError(RuntimeError):
    """Typed quarantine failure: this spec repeatedly killed the pool.

    Subclasses RuntimeError and keeps the crash reason in its message
    so pre-quarantine callers that matched ``RuntimeError`` with
    ``"crash"`` in the text keep working.  Quarantine is journaled, so
    the same key short-circuits here on every later submission and on
    recovery — the circuit breaker that stops a poison spec from
    crash-looping the service.
    """

    def __init__(self, job_id: int, key: str, reason: str):
        super().__init__(
            f"job {job_id} quarantined as a poison job "
            f"(key {key[:12]}): {reason}"
        )
        self.job_id = job_id
        self.key = key
        self.reason = reason


def bad_seconds(name: str, value) -> Optional[str]:
    """Why ``value`` is not a valid optional duration ``name``, or None
    when it is null or a number from 0 to the largest float (so a clock
    plus it stays finite)."""
    if value is None or (
        type(value) in (int, float) and 0 <= value <= sys.float_info.max
    ):
        return None
    return (
        f"{name} must be null or a number in "
        f"[0, {sys.float_info.max:g}], not {value!r}"
    )


def bad_field(request: dict) -> Optional[str]:
    """Why the ``priority`` or ``deadline_s`` of an outside request is
    malformed, or None when each is absent or well-formed: a priority
    is an integer (not a bool), a deadline a :func:`bad_seconds`
    duration."""
    priority = request.get("priority", 0)
    if type(priority) is not int:
        return f"priority must be an integer, not {priority!r}"
    return bad_seconds("deadline_s", request.get("deadline_s"))


class JobState(Enum):
    """Lifecycle of one job inside the service."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class Waitable:
    """A result one thread settles once and any thread waits for.

    :meth:`result` and :meth:`exception` block, :meth:`done` does not,
    and :meth:`add_done_callback` has the resolution pushed to a
    callback instead.  A subclass sets ``id`` and settles through
    :meth:`_settle`, exactly once.
    """

    #: what a timeout message calls the handle
    _noun = "job"

    def __init__(self) -> None:
        self._event = threading.Event()
        self._report = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["Waitable"], None]] = []

    def done(self) -> bool:
        """True once the job has a report or a failure."""
        return self._event.is_set()

    def _wait(self, timeout: Optional[float]) -> None:
        if not (self._event.is_set() or self._event.wait(timeout)):
            raise TimeoutError(
                f"{self._noun} {self.id} not resolved within {timeout}s"
            )

    def result(self, timeout: Optional[float] = None):
        """Block until resolved; the RunReport, or raises the failure.

        Raises :class:`TimeoutError` when ``timeout`` seconds pass
        without a resolution.
        """
        self._wait(timeout)
        if self._error is not None:
            raise self._error
        return self._report

    def exception(self, timeout: Optional[float] = None):
        """Block until resolved; the failure exception, or None."""
        self._wait(timeout)
        return self._error

    def add_done_callback(self, fn: Callable[["Waitable"], None]) -> None:
        """Call ``fn(self)`` once, when the job resolves.

        ``fn`` runs on the resolving thread (which may hold its
        service's lock), or, once the job has resolved, on a thread
        that registers a callback: this one at once if it has resolved
        already.  So it must be quick, never wait on a lock, and not
        raise.  Whichever thread pops a callback off the list runs it;
        a pop is atomic, so each runs exactly once without a lock.
        """
        self._callbacks.append(fn)
        if self._event.is_set():
            self._run_callbacks()

    def _run_callbacks(self) -> None:
        callbacks = self._callbacks
        while callbacks:
            try:
                fn = callbacks.pop(0)
            except IndexError:  # another thread took the last one
                return
            fn(self)

    def _settle(self, report, error: Optional[BaseException]) -> None:
        self._report = report
        self._error = error
        self._event.set()
        self._run_callbacks()


class Job(Waitable):
    """One admitted experiment submission; a waitable result handle.

    Clients receive a Job from
    :meth:`~repro.serve.ExperimentService.submit` and call
    :meth:`result` to block until the report is ready.  Duplicate
    in-flight submissions are **coalesced** onto the same Job
    (``waiters`` counts them), so every waiter observes the single
    execution's report bit-identically.
    """

    def __init__(
        self,
        job_id: int,
        spec,
        key: str,
        priority: int = 0,
        client: str = "default",
        submitted_s: float = 0.0,
        deadline_s: Optional[float] = None,
    ):
        super().__init__()
        self.id = job_id
        self.spec = spec
        self.key = key
        self.priority = priority
        self.client = client
        self.state = JobState.QUEUED
        self.submitted_s = submitted_s
        self.deadline_s = deadline_s
        #: absolute monotonic expiry (None = no deadline)
        self.deadline_at: Optional[float] = (
            submitted_s + deadline_s if deadline_s is not None else None
        )
        self.started_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        self.retries = 0
        self.waiters = 1
        self.cache_hit = False
        #: run alone in the next batch (set after a pool crash/timeout
        #: so a poison candidate cannot take innocent batchmates down)
        self.isolate = False
        #: journal sequence numbers this job resolves (primary first;
        #: recovery may coalesce several journal records onto one job)
        self.journal_seqs: List[int] = []

    # -- latency accounting --------------------------------------------------
    @property
    def wait_s(self) -> float:
        """Seconds spent queued before dispatch (0.0 until dispatched)."""
        if self.started_s is None:
            return 0.0
        return max(0.0, self.started_s - self.submitted_s)

    @property
    def run_s(self) -> float:
        """Seconds spent executing (0.0 until finished)."""
        if self.started_s is None or self.finished_s is None:
            return 0.0
        return max(0.0, self.finished_s - self.started_s)

    # -- service side --------------------------------------------------------
    def _resolve(self, report, now: float) -> None:
        if self.started_s is None:
            self.started_s = now
        self.finished_s = now
        self.state = JobState.DONE
        self._settle(report, None)

    def _fail(self, error: BaseException, now: float) -> None:
        if self.started_s is None:
            self.started_s = now
        self.finished_s = now
        self.state = JobState.FAILED
        self._settle(None, error)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Job {self.id} {self.state.value} client={self.client!r} "
            f"key={self.key[:8]}>"
        )


class JobQueue:
    """Bounded, priority-then-fair-share ordered pending-job queue.

    ``push`` rejects with :class:`QueueFull` once ``max_depth`` jobs
    are pending (``retry_hint()`` supplies the retry-after estimate).
    ``pop_batch`` selects jobs highest priority first; within a
    priority level the client with the fewest dispatched jobs wins,
    FIFO within a client — weighted fair queueing in its simplest
    deterministic form.
    """

    def __init__(
        self,
        max_depth: int = 64,
        retry_hint: Optional[Callable[[int], float]] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._retry_hint = retry_hint or (lambda depth: 0.0)
        self._pending: List[Job] = []
        self._dispatched: Dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def depth(self) -> int:
        """Number of jobs currently pending."""
        with self._lock:
            return len(self._pending)

    def push(self, job: Job) -> None:
        """Admit one job, or raise :class:`QueueFull` at the bound."""
        with self._lock:
            if len(self._pending) >= self.max_depth:
                depth = len(self._pending)
                raise QueueFull(
                    depth, self.max_depth, self._retry_hint(depth)
                )
            self._pending.append(job)

    def requeue(self, job: Job) -> None:
        """Re-admit an already-admitted job (after a worker crash).

        Bypasses the depth bound: the job held a slot when it was
        first admitted and rejecting it now would drop accepted work.
        """
        with self._lock:
            job.state = JobState.QUEUED
            self._pending.append(job)

    def pop_batch(self, limit: int) -> List[Job]:
        """Remove and return up to ``limit`` jobs in dispatch order.

        A job flagged ``isolate`` (prior pool crash or batch timeout)
        always runs alone: it is returned as a singleton batch, and a
        batch under construction stops before it.
        """
        batch: List[Job] = []
        with self._lock:
            while self._pending and len(batch) < limit:
                top = max(j.priority for j in self._pending)
                job = min(
                    (j for j in self._pending if j.priority == top),
                    key=lambda j: (self._dispatched.get(j.client, 0), j.id),
                )
                if job.isolate and batch:
                    break
                self._pending.remove(job)
                self._dispatched[job.client] = (
                    self._dispatched.get(job.client, 0) + 1
                )
                batch.append(job)
                if job.isolate:
                    break
        return batch

    def pop_expired(self, now: float) -> List[Job]:
        """Remove and return every pending job past its deadline."""
        with self._lock:
            expired = [
                j
                for j in self._pending
                if j.deadline_at is not None and now >= j.deadline_at
            ]
            for job in expired:
                self._pending.remove(job)
            return expired

    def drain_pending(self) -> List[Job]:
        """Remove and return every pending job (shutdown path)."""
        with self._lock:
            pending, self._pending = self._pending, []
            return pending
