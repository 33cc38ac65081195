"""The long-running experiment service: one front door, many clients.

An :class:`ExperimentService` accepts :class:`~repro.engine.ExperimentSpec`
submissions from many concurrent clients and multiplexes them onto a
shared pool of simulator workers — the serving-stack shape (queueing,
dedup, batching, backpressure) the modular-supercomputing papers
describe for one heterogeneous machine serving many differently-shaped
workloads at once.

The pipeline per submission:

1. **Coalescing** — the spec's content-addressed key (from
   :mod:`repro.store`) is checked against the in-flight map; an
   identical spec already queued or running merges onto the existing
   :class:`~repro.serve.queue.Job`, whose single execution fans its
   report out to every waiter bit-identically.
2. **Cache** — a stored report is served immediately; cache hits never
   enqueue and never touch the worker pool.
3. **Admission control** — the bounded priority queue either admits
   the job or rejects with a typed
   :class:`~repro.serve.queue.QueueFull` carrying a retry-after hint.
4. **Adaptive batching** — the scheduler groups queued jobs into
   :meth:`~repro.engine.Engine.run_many` batches sized by the observed
   per-spec latency (EWMA), targeting a fixed batch wall-time so
   batches stay small when runs are slow and amortize pool overhead
   when runs are fast.
5. **Execution** — batches run on a persistent process pool
   (``workers > 1``) or in-process; a crashed worker
   (``BrokenProcessPool``) requeues the batch with bounded retries on
   a fresh pool.

Layered on top is the **durability and self-healing** machinery of the
service (all opt-in; a journal-less service behaves exactly as before):

* a write-ahead :class:`~repro.serve.journal.JobJournal` records every
  accepted→dispatched→completed/failed transition, so a SIGKILLed
  service recovers exactly its un-completed jobs on restart — replayed
  in original order, never re-running one whose report already reached
  the store;
* per-job ``deadline_s`` queue-time budgets fail expired jobs with a
  typed :class:`~repro.serve.queue.DeadlineExceeded` before they waste
  a worker slot, and a ``batch_timeout_s`` watchdog recycles a hung
  pool and isolates the offending jobs;
* a spec that keeps crashing the pool is **quarantined** after
  ``max_retries`` — journaled with its traceback, failed with a typed
  :class:`~repro.serve.queue.PoisonJobError`, and short-circuited on
  every later submission and recovery (a circuit breaker against
  poison-job crash loops);
* a heartbeat file distinguishes "alive and serving" from "stalled"
  from "dead" for supervisors and ``repro serve --status``.

Live service metrics (queue depth, in-flight, hit/coalesce/reject
counters, durability counters, wait/run latency histograms) are
exported through :class:`~repro.instrument.MetricsHub` and
:meth:`ExperimentService.metrics_snapshot`.

Typical use::

    from repro.api import Session

    with Session(cache=".repro-cache", workers=4).serve() as svc:
        jobs = [svc.submit(spec) for spec in specs]
        reports = [j.result() for j in jobs]
        print(svc.metrics_snapshot())
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback as _traceback
from typing import List, Optional, Tuple

from ..backoff import ExponentialBackoff
from ..engine import Engine, ExperimentSpec, _coerce_cache
from ..store import cache_key
from .health import write_heartbeat
from .journal import JobJournal, JournalRecord
from .metrics import ServiceMetrics
from .queue import (
    DeadlineExceeded,
    Job,
    JobQueue,
    JobState,
    PoisonJobError,
    QueueFull,
)

__all__ = ["ExperimentService"]

#: default EWMA smoothing for the observed per-spec run latency
_EWMA_ALPHA = 0.5

#: run-latency guess (seconds) before the first batch is measured
_DEFAULT_RUN_S = 0.05

#: adaptive batching: a batch holds at most MAX_BATCH specs and aims
#: for TARGET_BATCH_S seconds of wall-time at the observed latency
MAX_BATCH = 8
TARGET_BATCH_S = 2.0


class ExperimentService:
    """Shared experiment server: queue, coalesce, batch, execute, report.

    Parameters
    ----------
    engine, cache, workers
        The execution stack: an :class:`~repro.engine.Engine`, an
        optional :class:`~repro.store.ResultCache` (or directory
        path), and the process-pool width (1 = in-process serial).
    max_queue
        Bound on pending jobs; submissions beyond it are rejected with
        :class:`~repro.serve.queue.QueueFull` (backpressure).
    max_retries
        How many times a job survives a worker-pool crash before it is
        quarantined as a poison job.
    autostart
        Start the scheduler thread immediately; ``False`` lets tests
        (and the file-based server's ingest phase) queue submissions
        deterministically before dispatch begins.
    journal
        Path (or :class:`~repro.serve.journal.JobJournal`) of the
        write-ahead job journal.  Construction replays it and
        resubmits every unresolved job; recovered jobs keep their
        original journal sequence numbers.  ``None`` (default)
        disables durability entirely.
    deadline_s
        Default queue-time budget applied to every submission that
        does not carry its own; ``None`` = no deadline.
    batch_timeout_s
        Watchdog bound on one batch's wall-time.  A batch exceeding it
        has its pool recycled and its jobs requeued in isolation
        (counting toward ``max_retries``); ``None`` disables the
        watchdog.
    heartbeat, heartbeat_interval_s
        Path of the liveness heartbeat file, rewritten atomically
        every ``heartbeat_interval_s`` seconds while the scheduler
        runs; ``None`` disables it.
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        cache=None,
        workers: int = 1,
        max_queue: int = 64,
        max_retries: int = 2,
        autostart: bool = True,
        journal=None,
        deadline_s: Optional[float] = None,
        batch_timeout_s: Optional[float] = None,
        heartbeat=None,
        heartbeat_interval_s: float = 1.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1 (got {workers})")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if deadline_s is not None and deadline_s < 0:
            raise ValueError("deadline_s cannot be negative")
        if batch_timeout_s is not None and batch_timeout_s <= 0:
            raise ValueError("batch_timeout_s must be positive")
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        self._engine = engine or Engine()
        self._cache = _coerce_cache(cache)
        self._workers = workers
        self._max_retries = max_retries
        self._default_deadline_s = deadline_s
        self._batch_timeout_s = batch_timeout_s
        self._metrics = ServiceMetrics()
        self._queue = JobQueue(max_depth=max_queue, retry_hint=self._retry_after)
        self._inflight: dict = {}  # key -> Job (queued or running)
        self._quarantined: dict = {}  # key -> reason (circuit breaker)
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._stopping = False
        self._running_jobs = 0
        self._ewma_run_s: Optional[float] = None
        self._ids = itertools.count(1)
        self._pool = None
        self._thread: Optional[threading.Thread] = None
        if journal is None or isinstance(journal, JobJournal):
            self._journal = journal
        else:
            self._journal = JobJournal(journal)
        self._heartbeat_path = heartbeat
        self._heartbeat_interval_s = heartbeat_interval_s
        self._hb_thread: Optional[threading.Thread] = None
        self._hb_stop = threading.Event()
        self._last_heartbeat_s: Optional[float] = None
        #: (JournalRecord, Job) pairs resubmitted by the last recovery
        #: (the file-job server re-registers their pending requests)
        self.recovered_jobs: List[Tuple[JournalRecord, Job]] = []
        #: the replayed journal state of the last recovery (or None)
        self.journal_state = None
        if self._journal is not None:
            self._recover()
        if autostart:
            self.start()

    # -- properties ----------------------------------------------------------
    @property
    def cache(self):
        """The attached :class:`~repro.store.ResultCache` (or None)."""
        return self._cache

    @property
    def workers(self) -> int:
        """Process-pool width batches fan out over (1 = in-process)."""
        return self._workers

    @property
    def in_flight(self) -> int:
        """Jobs admitted but not yet resolved (queued + running)."""
        with self._lock:
            return len(self._inflight)

    @property
    def started(self) -> bool:
        """Whether the scheduler thread is running."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def queue_depth(self) -> int:
        """Jobs currently pending in the admission queue (the load
        signal fleet-level placement and work stealing read)."""
        return self._queue.depth

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ExperimentService":
        """Start the scheduler thread (idempotent); returns self."""
        with self._lock:
            if self._stopping:
                raise RuntimeError("service has been shut down")
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._scheduler_loop,
                    name="repro-serve-scheduler",
                    daemon=True,
                )
                self._thread.start()
            if self._heartbeat_path is not None and (
                self._hb_thread is None or not self._hb_thread.is_alive()
            ):
                self._hb_stop.clear()
                self._hb_thread = threading.Thread(
                    target=self._heartbeat_loop,
                    name="repro-serve-heartbeat",
                    daemon=True,
                )
                self._hb_thread.start()
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted job is resolved.

        Starts the scheduler if needed.  Returns True once the queue
        is empty and nothing is running; False on timeout.
        """
        self.start()
        deadline = (
            None if timeout is None else time.monotonic() + timeout  # wall-clock-ok: host-side telemetry only
        )
        with self._lock:
            while self._queue.depth > 0 or self._running_jobs > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()  # wall-clock-ok: host-side telemetry only
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the service; optionally finish admitted work first.

        ``drain=True`` (graceful) waits for the queue to empty before
        stopping; ``drain=False`` fails still-pending jobs with a
        RuntimeError.  Either way the scheduler thread and the worker
        pool are torn down and later submissions raise.
        """
        if drain and self._thread is not None:
            self.drain(timeout=timeout)
        with self._lock:
            self._stopping = True
            self._work.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5.0)
        now = time.monotonic()  # wall-clock-ok: host-side telemetry only
        clean = True
        with self._lock:
            for job in self._queue.drain_pending():
                self._inflight.pop(job.key, None)
                self._metrics.failed += 1
                clean = False
                if self._journal is not None:
                    for seq in job.journal_seqs:
                        self._journal.record_failed(
                            seq, "service shut down before the job ran"
                        )
                job._fail(
                    RuntimeError("service shut down before the job ran"), now
                )
            clean = clean and not self._inflight
            self._idle.notify_all()
        self._discard_pool()
        if self._journal is not None and clean:
            # nothing unresolved: shrink the journal to its quarantine set
            self._journal.compact()
        if self._heartbeat_path is not None:
            write_heartbeat(
                self._heartbeat_path, "stopped", self._heartbeat_digest()
            )

    def __enter__(self) -> "ExperimentService":
        """Context-manager entry: the started service."""
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: graceful drain + shutdown."""
        self.shutdown(drain=exc_type is None)

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        spec,
        priority: int = 0,
        client: str = "default",
        deadline_s: Optional[float] = None,
        meta: Optional[dict] = None,
    ) -> Job:
        """Submit one spec; returns the (possibly shared) job handle.

        Duplicate in-flight specs coalesce onto the existing job;
        cached specs resolve immediately without queueing; a
        quarantined spec fails immediately with
        :class:`~repro.serve.queue.PoisonJobError`; otherwise the job
        is admitted to the bounded queue or rejected with
        :class:`~repro.serve.queue.QueueFull`.

        ``deadline_s`` is a queue-time budget (falls back to the
        service default); ``meta`` is an opaque client payload
        journaled with the job so a restarted file-job server can
        re-route the result (pass None to skip journaling cache hits).
        """
        if deadline_s is None:
            deadline_s = self._default_deadline_s
        with self._lock:
            if self._stopping:
                raise RuntimeError("service has been shut down")
            self._metrics.submitted += 1
            key = (
                self._cache.key_for(spec)
                if self._cache is not None
                else cache_key(spec)
            )
            now = time.monotonic()  # wall-clock-ok: host-side telemetry only
            reason = self._quarantined.get(key)
            if reason is not None:
                # circuit breaker: this spec already proved poisonous
                job = Job(next(self._ids), spec, key, priority, client, now)
                self._metrics.quarantine_hits += 1
                job._fail(PoisonJobError(job.id, key, reason), now)
                return job
            existing = self._inflight.get(key)
            if existing is not None:
                existing.waiters += 1
                self._metrics.coalesced += 1
                if (
                    meta is not None
                    and self._journal is not None
                    and existing.journal_seqs
                ):
                    self._journal.record_attached(
                        existing.journal_seqs[0], meta
                    )
                return existing
            if self._cache is not None:
                cached = self._cache.get(spec)
                if cached is not None:
                    job = Job(
                        next(self._ids), spec, key, priority, client, now
                    )
                    job.cache_hit = True
                    if meta is not None and self._journal is not None:
                        # durable even for instant hits: the file-job
                        # server still owes a result file for this
                        # request, and a crash before it lands must
                        # resubmit (hitting the cache again)
                        job.journal_seqs = [job.id]
                        self._journal.record_accepted(
                            job.id,
                            key,
                            self._spec_dict(spec),
                            priority=priority,
                            client=client,
                            deadline_s=deadline_s,
                            meta=meta,
                        )
                        self._journal.record_completed(job.id)
                    job._resolve(cached, now)
                    self._metrics.cache_hits += 1
                    self._metrics.completed += 1
                    self._metrics.wait.record(0.0)
                    return job
            job = Job(
                next(self._ids),
                spec,
                key,
                priority,
                client,
                now,
                deadline_s=deadline_s,
            )
            try:
                self._queue.push(job)
            except QueueFull:
                self._metrics.rejected += 1
                raise
            if self._journal is not None:
                job.journal_seqs = [job.id]
                self._journal.record_accepted(
                    job.id,
                    key,
                    self._spec_dict(spec),
                    priority=priority,
                    client=client,
                    deadline_s=deadline_s,
                    meta=meta,
                )
            self._inflight[key] = job
            self._metrics.accepted += 1
            self._metrics.peak_queue_depth = max(
                self._metrics.peak_queue_depth, self._queue.depth
            )
            self._metrics.peak_in_flight = max(
                self._metrics.peak_in_flight, len(self._inflight)
            )
            self._work.notify_all()
            return job

    def submit_with_retry(
        self,
        spec,
        priority: int = 0,
        client: str = "default",
        deadline_s: Optional[float] = None,
        meta: Optional[dict] = None,
        max_attempts: int = 8,
        wait_timeout_s: Optional[float] = None,
        backoff: Optional[ExponentialBackoff] = None,
        sleep=time.sleep,
    ) -> Job:
        """:meth:`submit`, retrying :class:`QueueFull` with backoff.

        The client-resilience front door: on a typed
        :class:`~repro.serve.queue.QueueFull` rejection it backs off
        with decorrelated jitter (never undercutting the server's
        ``retry_after_s`` hint) and resubmits, up to ``max_attempts``
        tries or ``wait_timeout_s`` seconds of total waiting —
        whichever bound trips first re-raises the last ``QueueFull``.
        ``backoff`` and ``sleep`` are injectable for deterministic
        tests.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        bo = backoff or ExponentialBackoff(
            base_s=0.05, factor=3.0, cap_s=2.0, decorrelated=True
        )
        give_up_at = (
            None
            if wait_timeout_s is None
            else time.monotonic() + wait_timeout_s  # wall-clock-ok: host-side telemetry only
        )
        for attempt in range(max_attempts):
            try:
                return self.submit(
                    spec,
                    priority=priority,
                    client=client,
                    deadline_s=deadline_s,
                    meta=meta,
                )
            except QueueFull as exc:
                if attempt == max_attempts - 1:
                    raise
                delay = bo.next_delay(floor_s=exc.retry_after_s)
                if give_up_at is not None:
                    remaining = give_up_at - time.monotonic()  # wall-clock-ok: host-side telemetry only
                    if remaining <= 0:
                        raise
                    delay = min(delay, remaining)
                sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _spec_dict(spec) -> dict:
        """JSON-safe spec form for the journal (best effort)."""
        try:
            return spec.to_dict()
        except AttributeError:
            return dict(spec)

    # -- recovery ------------------------------------------------------------
    def _recover(self) -> int:
        """Replay the journal; resubmit unresolved work; return the count.

        Called at construction when a journal is given.
        Recovered jobs keep their original journal sequence numbers
        and are requeued in original order (bypassing the admission
        bound — they were already accepted once); a record whose
        report already reached the store resolves instantly as a cache
        hit, and a record whose key is quarantined is failed, not
        re-run.  The journal is compacted when nothing was unresolved.
        """
        if self._journal is None:
            return 0
        state = self._journal.replay(trim=True)
        self.journal_state = state
        self.recovered_jobs = []
        with self._lock:
            for key, rec in state.quarantined.items():
                self._quarantined.setdefault(
                    key, rec.error or "quarantined in a previous run"
                )
            # fresh ids start above every journaled sequence number
            self._ids = itertools.count(state.max_seq + 1)
        unresolved = state.unresolved()
        recovered = 0
        for rec in unresolved:
            if rec.spec is None:
                self._journal.record_failed(
                    rec.seq, "unrecoverable journal record (no spec)"
                )
                continue
            reason = self._quarantined.get(rec.key)
            if reason is not None:
                self._journal.record_failed(rec.seq, reason)
                continue
            job = self._resubmit_record(rec)
            recovered += 1
            self.recovered_jobs.append((rec, job))
        with self._lock:
            if recovered:
                self._metrics.journal_replays += 1
                self._metrics.recovered += recovered
                self._work.notify_all()
        if not unresolved:
            self._journal.compact(state)
        return recovered

    def _resubmit_record(self, rec: JournalRecord) -> Job:
        """Re-admit one unresolved journal record as a live job."""
        spec = ExperimentSpec.from_dict(rec.spec)
        now = time.monotonic()  # wall-clock-ok: host-side telemetry only
        with self._lock:
            key = rec.key or (
                self._cache.key_for(spec)
                if self._cache is not None
                else cache_key(spec)
            )
            existing = self._inflight.get(key)
            if existing is not None:
                # two unresolved records, one spec: coalesce on replay
                existing.waiters += 1
                existing.journal_seqs.append(rec.seq)
                return existing
            if self._cache is not None:
                cached = self._cache.get(spec)
                if cached is not None:
                    # the dead process stored the report but died
                    # before journaling completion — never re-run
                    job = Job(
                        rec.seq, spec, key, rec.priority, rec.client, now
                    )
                    job.journal_seqs = [rec.seq]
                    job.cache_hit = True
                    self._journal.record_completed(rec.seq)
                    job._resolve(cached, now)
                    self._metrics.completed += 1
                    return job
            job = Job(
                rec.seq,
                spec,
                key,
                rec.priority,
                rec.client,
                now,
                deadline_s=rec.deadline_s,  # fresh budget from restart
            )
            job.journal_seqs = [rec.seq]
            self._queue.requeue(job)  # accepted once already: no bound
            self._inflight[key] = job
            return job

    # -- metrics -------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Live service metrics: queue/admission/coalesce/cache
        counters plus wait and run latency histograms."""
        with self._lock:
            snap = self._metrics.snapshot(
                queue_depth=self._queue.depth,
                in_flight=len(self._inflight),
            )
            snap["workers"] = self._workers
            snap["max_queue"] = self._queue.max_depth
            snap["max_batch"] = MAX_BATCH
            snap["ewma_run_s"] = self._ewma_run_s or 0.0
            if self._last_heartbeat_s is None:
                snap["heartbeat_age_s"] = 0.0
            else:
                snap["heartbeat_age_s"] = max(
                    0.0,
                    time.monotonic() - self._last_heartbeat_s,  # wall-clock-ok: host-side telemetry only
                )
            return snap

    def stats(self) -> dict:
        """Alias of :meth:`metrics_snapshot` (MetricsHub source API)."""
        return self.metrics_snapshot()

    @property
    def hub(self):
        """A :class:`~repro.instrument.MetricsHub` observing this
        service (and its cache when attached)."""
        from ..instrument import MetricsHub

        return MetricsHub(service=self, cache=self._cache)

    # -- scheduling internals ------------------------------------------------
    def _retry_after(self, depth: int) -> float:
        """Backpressure hint: when a queue slot should free up."""
        per = self._ewma_run_s or _DEFAULT_RUN_S
        return max(per, depth * per / max(1, self._workers))

    def _batch_size(self) -> int:
        """Next batch size from the observed per-spec latency."""
        per = self._ewma_run_s
        if per is None or per <= 0:
            size = self._workers
        else:
            size = int(TARGET_BATCH_S / per)
        return max(1, min(MAX_BATCH, size))

    def _observe_run_latency(self, per_spec_s: float) -> None:
        if self._ewma_run_s is None:
            self._ewma_run_s = per_spec_s
        else:
            self._ewma_run_s = (
                _EWMA_ALPHA * per_spec_s
                + (1.0 - _EWMA_ALPHA) * self._ewma_run_s
            )

    def _scheduler_loop(self) -> None:
        while True:
            with self._lock:
                while not self._stopping and self._queue.depth == 0:
                    self._idle.notify_all()
                    self._work.wait(timeout=0.05)
                if self._stopping:
                    self._idle.notify_all()
                    return
                now = time.monotonic()  # wall-clock-ok: host-side telemetry only
                for job in self._queue.pop_expired(now):
                    # expired in the queue: fail fast, never dispatch
                    self._inflight.pop(job.key, None)
                    self._metrics.deadline_misses += 1
                    self._metrics.failed += 1
                    error = DeadlineExceeded(
                        job.id, job.deadline_s, now - job.submitted_s
                    )
                    if self._journal is not None:
                        for seq in job.journal_seqs:
                            self._journal.record_failed(seq, str(error))
                    job._fail(error, now)
                if self._queue.depth == 0:
                    continue
                batch = self._queue.pop_batch(self._batch_size())
                now = time.monotonic()  # wall-clock-ok: host-side telemetry only
                for job in batch:
                    job.state = JobState.RUNNING
                    job.started_s = now
                    self._metrics.wait.record(now - job.submitted_s)
                    if self._journal is not None:
                        for seq in job.journal_seqs:
                            self._journal.record_dispatched(seq)
                self._running_jobs = len(batch)
                self._metrics.batches += 1
            try:
                self._execute_batch(batch)
            finally:
                with self._lock:
                    self._running_jobs = 0
                    self._idle.notify_all()

    # -- execution -----------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        return self._pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def _run_batch(self, batch: List[Job]) -> tuple:
        """Run one batch and return its outcome without touching jobs.

        Returns ``(kind, payload, wall_s)`` where kind is ``"ok"``
        (payload = reports), ``"broken"`` (payload = formatted pool
        traceback), or ``"error"`` (payload = the exception).  Pure
        compute: shared job state is only ever mutated by
        :meth:`_apply_outcome` on the scheduler thread, so a watchdog
        can abandon a hung run without racing a late finisher.
        """
        from concurrent.futures.process import BrokenProcessPool

        specs = [job.spec for job in batch]
        t0 = time.monotonic()  # wall-clock-ok: host-side telemetry only
        try:
            if self._workers > 1 and len(batch) > 1:
                sweep = self._engine.run_many(
                    specs, workers=self._workers, pool=self._ensure_pool()
                )
            else:
                sweep = self._engine.run_many(specs, workers=1)
        except BrokenProcessPool:
            return ("broken", _traceback.format_exc(), 0.0)
        except Exception as exc:  # noqa: BLE001 - outcome carries it
            return ("error", exc, 0.0)
        wall = time.monotonic() - t0  # wall-clock-ok: host-side telemetry only
        return ("ok", sweep.reports, wall)

    def _run_batch_watched(self, batch: List[Job]) -> tuple:
        """:meth:`_run_batch` under the ``batch_timeout_s`` watchdog.

        The batch runs on a disposable daemon thread; if it exceeds
        the bound the pool is recycled (hung workers die with it), the
        runner thread is abandoned, and a ``("timeout", ...)`` outcome
        is returned instead.  A late outcome from the abandoned runner
        is dropped — its jobs were requeued and belong to a future
        batch.
        """
        timeout = self._batch_timeout_s
        if timeout is None:
            return self._run_batch(batch)
        box: dict = {}
        done = threading.Event()

        def runner() -> None:
            box["outcome"] = self._run_batch(batch)
            done.set()

        thread = threading.Thread(
            target=runner, name="repro-serve-batch", daemon=True
        )
        thread.start()
        if done.wait(timeout):
            return box["outcome"]
        self._discard_pool()
        return ("timeout", None, timeout)

    def _execute_batch(self, batch: List[Job]) -> None:
        self._apply_outcome(batch, self._run_batch_watched(batch))

    def _apply_outcome(self, batch: List[Job], outcome: tuple) -> None:
        """Fold one batch outcome into job/metric/journal state."""
        kind, payload, wall = outcome
        if kind == "broken":
            # a worker died abruptly; the jobs are intact — recycle the
            # pool and requeue (isolated) with bounded retries
            self._discard_pool()
            self._requeue_batch(
                batch, reason="crashed the worker pool", tb=payload
            )
            return
        if kind == "timeout":
            with self._lock:
                self._metrics.batch_timeouts += 1
            self._requeue_batch(
                batch,
                reason=f"hung past the {wall:.3f}s batch timeout",
            )
            return
        if kind == "error":
            # an app-level failure poisons a pooled batch wholesale;
            # isolate it by running each job alone, in-process
            if len(batch) == 1:
                self._finish_failed(batch[0], payload)
                return
            for job in batch:
                try:
                    report = self._engine.run(job.spec)
                except Exception as job_exc:  # noqa: BLE001 - job carries it
                    self._finish_failed(job, job_exc)
                else:
                    self._store_and_finish(job, report)
            return
        with self._lock:
            self._observe_run_latency(wall / max(1, len(batch)))
        for job, report in zip(batch, payload):
            self._store_and_finish(job, report)

    def _store_and_finish(self, job: Job, report) -> None:
        """Persist then resolve — store put strictly precedes the
        journal's completion record, so a crash between the two only
        ever recovers into a cache hit, never a re-run."""
        if self._cache is not None:
            self._cache.put(job.spec, report)
        if self._journal is not None:
            for seq in job.journal_seqs:
                self._journal.record_completed(seq)
        self._finish_ok(job, report)

    def _requeue_batch(
        self,
        batch: List[Job],
        reason: str = "crashed the worker pool",
        tb: Optional[str] = None,
    ) -> None:
        now = time.monotonic()  # wall-clock-ok: host-side telemetry only
        with self._lock:
            for job in batch:
                job.retries += 1
                if job.retries > self._max_retries:
                    self._quarantine(
                        job,
                        f"{reason} {job.retries} times",
                        tb=tb,
                        now=now,
                    )
                else:
                    job.isolate = True  # next attempt runs alone
                    self._metrics.requeued += 1
                    self._queue.requeue(job)
            self._work.notify_all()

    def _quarantine(
        self,
        job: Job,
        reason: str,
        tb: Optional[str] = None,
        now: Optional[float] = None,
    ) -> None:
        """Trip the circuit breaker: fail the job, remember the key."""
        if now is None:
            now = time.monotonic()  # wall-clock-ok: host-side telemetry only
        error = PoisonJobError(job.id, job.key, reason)
        with self._lock:
            self._inflight.pop(job.key, None)
            self._quarantined[job.key] = reason
            self._metrics.quarantined += 1
            self._metrics.failed += 1
            if self._journal is not None:
                for seq in job.journal_seqs:
                    self._journal.record_quarantined(
                        seq, job.key, str(error), traceback=tb
                    )
            job._fail(error, now)

    def _finish_ok(self, job: Job, report) -> None:
        now = time.monotonic()  # wall-clock-ok: host-side telemetry only
        with self._lock:
            self._inflight.pop(job.key, None)
            job._resolve(report, now)
            self._metrics.run.record(job.run_s)
            self._metrics.executed += 1
            self._metrics.completed += 1

    def _finish_failed(self, job: Job, error: BaseException) -> None:
        now = time.monotonic()  # wall-clock-ok: host-side telemetry only
        with self._lock:
            self._inflight.pop(job.key, None)
            if self._journal is not None:
                for seq in job.journal_seqs:
                    self._journal.record_failed(seq, str(error))
            job._fail(error, now)
            self._metrics.failed += 1

    # -- heartbeat -----------------------------------------------------------
    def _heartbeat_digest(self) -> dict:
        """Small counter digest folded into the heartbeat document."""
        with self._lock:
            return {
                "queue_depth": self._queue.depth,
                "in_flight": len(self._inflight),
                "completed": self._metrics.completed,
                "failed": self._metrics.failed,
                "quarantined": self._metrics.quarantined,
            }

    def _beat(self, status: str) -> None:
        try:
            write_heartbeat(
                self._heartbeat_path, status, self._heartbeat_digest()
            )
        except OSError:  # pragma: no cover - a full disk must not kill us
            return
        self._last_heartbeat_s = time.monotonic()  # wall-clock-ok: host-side telemetry only

    def _heartbeat_loop(self) -> None:
        self._beat("serving")
        while not self._hb_stop.wait(self._heartbeat_interval_s):
            self._beat("serving")
