"""The discrete-event simulator core: clock, event queue, run loop.

The simulator owns the virtual clock and stores events in a
:class:`~repro.sim.queues.CalendarEventQueue`, a timestamp-bucketed
scheduler that amortizes heap churn over co-temporal events.  The run
loop is batch-oriented: every event scheduled at the next timestamp is
dequeued in one ``pop_batch`` and dispatched back-to-back, in ascending
time and FIFO among equal times — the order of a one-at-a-time heap
loop, which the tests keep as the reference.
"""

from __future__ import annotations

import time
from typing import Any, Generator, Optional

from .events import WAKE_OK, Event, Timeout, _Call, _Wakeup
from .process import Process
from .queues import CalendarEventQueue, EmptyQueue

__all__ = ["Simulator", "StopSimulation", "EmptyQueue"]


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulator.run` early."""


class Simulator:
    """Priority-queue driven discrete-event simulator.

    Time is a float in **seconds** by convention throughout this project
    (network latencies are therefore around ``1e-6``).

    Typical use::

        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1.0)
            return 42

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 42
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue = CalendarEventQueue()
        # batch in flight: entries popped by step() but not yet
        # delivered (plus the tail of a batch a StopSimulation cut
        # short); _draining mirrors its length so depth accounting on
        # the push path is one attribute read
        self._pending: list = []
        self._pending_when = self._now
        self._draining = 0
        self._active_process: Optional[Process] = None
        self.events_processed = 0
        #: events that took the allocation-free timeout fast path
        self.fast_wakeups = 0
        #: batches dequeued (every pop_batch, singletons included)
        self.batches = 0
        #: largest single batch of co-temporal events dequeued
        self.max_batch = 0
        # histogram of multi-event batch sizes, keyed by bit_length
        # (size 1 is implicit: batches - sum of these counts)
        self._batch_hist: dict = {}
        #: high-water mark of the event queue (queued + in-flight batch)
        self.peak_queue_depth = 0
        #: accumulated real (host) time spent inside :meth:`run`
        self.wall_time_s = 0.0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process whose generator is currently executing, if any."""
        return self._active_process

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if not delay >= 0:  # NaN fails every compare: reject it too
            raise ValueError(f"negative delay {delay}")
        q = self._queue
        q.push(self._now + delay, event)
        depth = q.count + self._draining
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth

    def _schedule_wakeup(self, process: Process, delay: float) -> None:
        """Timeout fast path: resume ``process`` after ``delay`` without
        allocating an Event (used when a process yields a bare number).

        The per-process :class:`_Wakeup` is reused between waits; a
        fresh one is only allocated if the old one is still queued
        (i.e. was cancelled by an interrupt and not yet popped).
        """
        wakeup = process._wakeup
        if wakeup is None or wakeup.pending:
            wakeup = _Wakeup(process)
            process._wakeup = wakeup
        wakeup.pending = True
        wakeup.cancelled = False
        q = self._queue
        q.push(self._now + delay, wakeup)
        depth = q.count + self._draining
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth

    def call_in(self, delay: float, callback) -> None:
        """Run ``callback(entry)`` ``delay`` seconds from now.

        One queue entry of one object (a :class:`_Call` holding the
        callback), no :class:`Event`, no callback list and no process:
        it takes the queue slot an event scheduled at this point would
        take and is dispatched in the same (time, FIFO) order.  The
        callback receives the spent entry, which it may ignore.
        """
        # _schedule, inlined (one call per message on the send path)
        if not delay >= 0:  # NaN fails every compare: reject it too
            raise ValueError(f"negative delay {delay}")
        q = self._queue
        q.push(self._now + delay, _Call(callback))
        depth = q.count + self._draining
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth

    def schedule_at(self, event: Event, when: float) -> None:
        """Schedule a *triggered* event at absolute time ``when``."""
        if not when >= self._now:  # NaN included
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        q = self._queue
        q.push(when, event)
        depth = q.count + self._draining
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator and return it.

        The returned :class:`Process` is itself an event that succeeds
        with the generator's return value.
        """
        return Process(self, generator)

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        """Entries still owed to the run loop (queued + in-flight)."""
        return self._queue.count + self._draining

    def batch_size_hist(self) -> dict:
        """Histogram of dequeued batch sizes, power-of-two binned.

        Keys are bin labels (``"1"``, ``"2-3"``, ``"4-7"``, ...), values
        are batch counts.
        """
        multi = sum(self._batch_hist.values())
        hist = {}
        if self.batches > multi:
            hist["1"] = self.batches - multi
        for k in sorted(self._batch_hist):
            lo, hi = 1 << (k - 1), (1 << k) - 1
            hist[f"{lo}-{hi}"] = self._batch_hist[k]
        return hist

    # -- run loop ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event.

        Raises :class:`EmptyQueue` (an :class:`IndexError`) when the
        simulation is idle.
        """
        if self._draining:
            return self._pending_when
        return self._queue.peek()

    def _pop_batch(self):
        """Dequeue the next timestamp's batch, updating batch metrics."""
        when, batch = self._queue.pop_batch()
        n = len(batch)
        self.batches += 1
        if n > 1:
            k = n.bit_length()
            hist = self._batch_hist
            hist[k] = hist.get(k, 0) + 1
            if n > self.max_batch:
                self.max_batch = n
        elif not self.max_batch:
            self.max_batch = 1
        return when, batch

    def _dispatch(self, entry) -> None:
        """Deliver one entry of the in-flight batch (wakeup fast path,
        plain call or callbacks) at the batch's time; a cancelled wakeup
        is dropped without moving the clock."""
        cls = entry.__class__
        if cls is _Wakeup:
            entry.pending = False
            if not entry.cancelled:
                self._now = self._pending_when
                self.fast_wakeups += 1
                entry.process._resume(WAKE_OK)
            return
        self._now = self._pending_when
        if cls is _Call:
            entry.fn(entry)
            return
        callbacks = entry.callbacks
        entry.callbacks = None  # mark processed
        for cb in callbacks:
            cb(entry)
        if not entry._ok and not entry._defused:
            # An un-handled failure: surface it rather than losing it.
            raise entry._value

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it, unless
        it is a cancelled wakeup).

        Raises :class:`EmptyQueue` (an :class:`IndexError`) when no
        events remain.  When several events share the next timestamp the
        whole batch is dequeued and buffered; each ``step()`` delivers
        one entry of it, in the same order :meth:`run` would.
        """
        pending = self._pending
        if not pending:
            when, batch = self._pop_batch()
            self._pending_when = when
            pending.extend(batch)
            self._draining = len(batch)
        entry = pending.pop(0)
        self._draining -= 1
        self.events_processed += 1
        self._dispatch(entry)

    def step_batch(self) -> int:
        """Process every event at the next timestamp; returns the count.

        This is the run loop's unit of work: one batch of co-temporal
        events, delivered back-to-back.  Events scheduled at the *same*
        time during the batch form a later batch (preserving FIFO).
        Raises :class:`EmptyQueue` when no events remain.
        """
        pending = self._pending
        if not pending:
            when, batch = self._pop_batch()
            self._pending_when = when
            pending.extend(batch)
            self._draining = len(batch)
        done = 0
        while pending:
            entry = pending.pop(0)
            self._draining -= 1
            self.events_processed += 1
            done += 1
            self._dispatch(entry)
        return done

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue is empty or the clock passes ``until``."""
        if until is not None:
            if not until >= self._now:  # NaN included
                raise ValueError(f"until ({until}) lies in the past")
            stopper = Event(self)
            stopper._ok = True
            stopper._value = None
            stopper.callbacks.append(self._raise_stop)
            self.schedule_at(stopper, until)
        t0 = time.perf_counter()  # wall-clock-ok: host-side telemetry only
        try:
            self._run_loop()
        except StopSimulation:
            pass
        finally:
            self.wall_time_s += time.perf_counter() - t0  # wall-clock-ok: host-side telemetry only

    def _run_loop(self) -> None:
        """The hot loop: dequeue one timestamp batch, deliver its events.

        Everything dispatch needs is bound to locals; the per-event work
        for a pooled wakeup is the class check, two flag writes, and the
        generator resume, and for a :meth:`call_in` entry two class
        checks and the call.  A mid-batch exception (including the
        ``StopSimulation`` a ``run(until=...)`` stopper raises) stashes
        the undelivered tail in ``_pending`` so queue state stays exact.
        A cancelled wakeup is discarded without moving the clock, so a
        batch of nothing else leaves ``now`` where it was.
        """
        pop_batch = self._pop_batch
        pending = self._pending
        hist_cls = _Wakeup
        call_cls = _Call
        while True:
            if pending:
                # tail of a batch a step()/stop cut short: finish it
                self.step_batch()
            try:
                when, batch = pop_batch()
            except EmptyQueue:
                return
            n = len(batch)
            self.events_processed += n
            fast = 0
            if n == 1:
                entry = batch[0]
                cls = entry.__class__
                if cls is hist_cls:
                    entry.pending = False
                    if not entry.cancelled:
                        self._now = when
                        self.fast_wakeups += 1
                        entry.process._resume(WAKE_OK)
                    continue
                self._now = when
                if cls is call_cls:
                    entry.fn(entry)
                    continue
                callbacks = entry.callbacks
                entry.callbacks = None
                for cb in callbacks:
                    cb(entry)
                if not entry._ok and not entry._defused:
                    raise entry._value
                continue
            before = self._now
            self._now = when
            self._draining = n
            skipped = 0
            it = iter(batch)
            try:
                for entry in it:
                    self._draining -= 1
                    cls = entry.__class__
                    if cls is hist_cls:
                        entry.pending = False
                        if entry.cancelled:
                            skipped += 1
                        else:
                            fast += 1
                            entry.process._resume(WAKE_OK)
                        continue
                    if cls is call_cls:
                        entry.fn(entry)
                        continue
                    callbacks = entry.callbacks
                    entry.callbacks = None
                    for cb in callbacks:
                        cb(entry)
                    if not entry._ok and not entry._defused:
                        raise entry._value
            except BaseException:
                # keep the undelivered tail (events_processed was bumped
                # for the whole batch up front: take the tail back out)
                rest = list(it)
                if rest:
                    pending.extend(rest)
                    self._pending_when = when
                self._draining = len(rest)
                self.events_processed -= len(rest)
                self.fast_wakeups += fast
                raise
            self.fast_wakeups += fast
            if skipped == n:
                # nothing but cancelled wakeups: nobody saw the clock move
                self._now = before

    def run_process(self, generator: Generator, until: Optional[float] = None) -> Any:
        """Convenience: start ``generator`` as a process, run, return its value."""
        proc = self.process(generator)
        self.run(until=until)
        if not proc.triggered:
            raise RuntimeError("process did not finish before the simulation ended")
        if not proc._ok:
            raise proc._value
        return proc._value

    @staticmethod
    def _raise_stop(_event: Event) -> None:
        raise StopSimulation()
