"""The event queue of the :class:`~repro.sim.Simulator`.

The simulator's hot loop is, end to end, "push timestamped entries, pop
them back in (time, FIFO) order".  This module hides that data
structure behind a tiny interface — ``push`` / ``pop_batch`` / ``peek``
/ ``count`` — so event and process semantics never see it, and a test
can substitute a reference implementation.

:class:`CalendarEventQueue` is a bucketed scheduler in the
calendar-queue family: entries that share a timestamp live in one
append-ordered bucket and only the *distinct* timestamps go through a
heap.  Discrete-event workloads are extremely co-temporal (every
process woken by the same barrier, every same-instant fabric wakeup),
so the O(log n) heap churn is paid once per timestamp instead of once
per event, and a whole bucket is handed to the run loop as one batch.

Entries leave in ascending time, FIFO among equal times — exactly the
order of a classic ``heapq`` loop over ``(time, seq, entry)`` tuples,
which the differential tests keep as their oracle.
``pop_batch`` returns *every* entry of the next timestamp at once (the
batch-dequeue contract); entries scheduled **at** that same timestamp
*while the batch executes* form a later batch, which preserves the
global (time, insertion) order a one-at-a-time heap loop would produce.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Tuple

__all__ = ["EmptyQueue", "CalendarEventQueue"]


class EmptyQueue(IndexError):
    """Raised by ``pop_batch``/``peek`` (and :meth:`Simulator.step` /
    :meth:`Simulator.peek`) on an empty event queue.

    Subclasses :class:`IndexError` so callers that guarded the old
    bare ``heappop``/``[0]`` errors keep working unchanged.
    """


class CalendarEventQueue:
    """A dict of per-timestamp buckets plus a heap of the distinct
    timestamps.

    ``push`` appends to the bucket of its exact timestamp (creating it
    — and registering the timestamp in the time heap — only on first
    use), so co-temporal events cost one list append instead of one
    heap sift each.  ``pop_batch`` pops the earliest timestamp and
    returns its whole bucket; the append order *is* the FIFO order, so
    no per-entry sequence numbers are needed at all.

    A timestamp is registered in the heap exactly once per bucket
    lifetime (buckets are popped wholesale), so the heap never holds
    duplicates and its size tracks the number of distinct pending
    times, not the number of pending entries.
    """

    __slots__ = ("_buckets", "_times", "count")

    def __init__(self):
        self._buckets: dict = {}
        self._times: List[float] = []
        #: live entry count across all buckets (kept as a plain
        #: attribute so the hot scheduling path reads it without a
        #: method call)
        self.count = 0

    def push(self, when: float, entry) -> None:
        """Insert ``entry`` at time ``when`` (FIFO among equal times)."""
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [entry]
            heappush(self._times, when)
        else:
            bucket.append(entry)
        self.count += 1

    def pop_batch(self) -> Tuple[float, list]:
        """Remove and return ``(when, entries)`` for the next timestamp.

        ``entries`` holds every queued entry scheduled at exactly
        ``when``, in insertion order.  Raises :class:`EmptyQueue` when
        idle.
        """
        times = self._times
        if not times:
            raise EmptyQueue("event queue is empty")
        when = heappop(times)
        batch = self._buckets.pop(when)
        self.count -= len(batch)
        return when, batch

    def peek(self) -> float:
        """Time of the next entry; raises :class:`EmptyQueue` when idle."""
        times = self._times
        if not times:
            raise EmptyQueue("event queue is empty")
        return times[0]

    def __len__(self) -> int:
        return self.count
