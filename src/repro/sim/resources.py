"""Shared-resource primitives: counted resources and FIFO stores.

``Resource`` models mutual exclusion with a fixed capacity (e.g. a
network link, an NVMe device queue).  ``Store`` is an unbounded (or
bounded) FIFO buffer of Python objects with filtered gets (MPI
mailboxes use their own :class:`repro.mpi.message.Mailbox`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .events import PENDING, Event

__all__ = ["Resource", "Request", "Store", "NO_ITEM"]


class _NoItem:
    """Sentinel distinguishing "no matching item" from a stored ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<NO_ITEM>"


#: returned by :meth:`Store.peek` (as the ``default``) when no buffered
#: item matches — lets callers distinguish a stored ``None`` from a miss
NO_ITEM = _NoItem()


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Yields (succeeds) when the slot is granted.  The holder must call
    :meth:`Resource.release` with this request when done.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource

    def _reinit(self, resource: "Resource") -> "Request":
        """Reset a processed request for reuse (object pooling).

        Only safe once the request is processed and no longer referenced
        by any waiter; used by the fabric's slow-path request pool.
        """
        self.sim = resource.sim
        self.resource = resource
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.abandoned = False
        return self


class Resource:
    """A counted resource with FIFO granting.

    Example::

        link = Resource(sim, capacity=1)

        def user(sim, link):
            req = link.request()
            yield req
            try:
                yield sim.timeout(transfer_time)
            finally:
                link.release(req)
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiting")

    def __init__(self, sim: "Simulator", capacity: int = 1):  # noqa: F821
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Slots currently granted."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Requests waiting for a slot."""
        return len(self._waiting)

    def request(self, recycled: Optional[Request] = None) -> Request:
        """Ask for a slot; yields when granted (FIFO).

        ``recycled`` optionally reuses a processed :class:`Request`
        object instead of allocating one (see :meth:`Request._reinit`).
        """
        req = Request(self) if recycled is None else recycled._reinit(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def try_acquire(self) -> bool:
        """Grant a slot immediately if one is idle and nobody queues.

        Event-free counterpart of :meth:`request` for uncontended fast
        paths; a granted slot must be returned via :meth:`release_slot`.
        Returns ``False`` (acquiring nothing) under any contention, so
        FIFO fairness of the queued path is preserved.
        """
        if self._in_use < self.capacity and not self._waiting:
            self._in_use += 1
            return True
        return False

    def release_slot(self) -> None:
        """Return a slot granted by :meth:`try_acquire`, waking the next
        live waiter (identical granting discipline as :meth:`release`)."""
        while self._waiting:
            nxt = self._waiting.popleft()
            if not nxt.abandoned:  # skip waiters interrupted away
                nxt.succeed()
                return
        self._in_use -= 1
        if self._in_use < 0:
            raise RuntimeError("release without matching request")

    def release(self, request: Request) -> None:
        """Give a granted slot back, waking the next live waiter."""
        if request.resource is not self:
            raise ValueError("request belongs to a different resource")
        self.release_slot()


class Store:
    """A FIFO buffer connecting producer and consumer processes.

    ``put(item)`` returns an event (immediate unless the store is
    bounded and full); ``get()`` returns an event that succeeds with the
    next item, optionally only one matching ``filter``.
    """

    __slots__ = ("sim", "capacity", "items", "_getters", "_putters", "_watchers")

    def __init__(self, sim: "Simulator", capacity: float = float("inf")):  # noqa: F821
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[tuple] = deque()  # (event, filter)
        self._putters: Deque[tuple] = deque()  # (event, item)
        self._watchers: Deque[tuple] = deque()  # (event, filter)

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert an item; the event blocks only when bounded and full."""
        ev = Event(self.sim)
        if len(self.items) < self.capacity:
            self._insert(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> Event:
        """Event yielding the next (optionally filtered) item."""
        ev = Event(self.sim)
        idx = self._find(filter)
        if idx is not None:
            item = self.items[idx]
            del self.items[idx]
            ev.succeed(item)
            self._drain_putters()
        else:
            self._getters.append((ev, filter))
        return ev

    def peek(
        self,
        filter: Optional[Callable[[Any], bool]] = None,
        default: Any = None,
    ) -> Optional[Any]:
        """Non-destructively return the first matching item, else ``default``.

        A buffered item may legitimately *be* ``None``; pass
        ``default=NO_ITEM`` (the module sentinel) to distinguish a miss
        from a matched ``None``.
        """
        idx = self._find(filter)
        return self.items[idx] if idx is not None else default

    def watch(self, filter: Optional[Callable[[Any], bool]] = None) -> Event:
        """Event that fires with a matching item *without consuming it*.

        Fires immediately if a match is already buffered (even a stored
        ``None``); otherwise when one arrives (MPI_Probe semantics).
        """
        ev = Event(self.sim)
        idx = self._find(filter)
        if idx is not None:
            ev.succeed(self.items[idx])
        else:
            self._watchers.append((ev, filter))
        return ev

    # -- internals -----------------------------------------------------------
    def _find(self, filter) -> Optional[int]:
        if filter is None:
            return 0 if self.items else None
        for i, item in enumerate(self.items):
            if filter(item):
                return i
        return None

    def _insert(self, item: Any) -> None:
        # Watchers observe without consuming.
        kept = deque()
        for ev, flt in self._watchers:
            if ev.abandoned:
                continue
            if flt is None or flt(item):
                ev.succeed(item)
            else:
                kept.append((ev, flt))
        self._watchers = kept
        # Try to satisfy a waiting getter directly; interrupted waiters
        # are dropped so they cannot swallow items meant for others.
        self._getters = deque(
            (ev, flt) for ev, flt in self._getters if not ev.abandoned
        )
        for i, (ev, flt) in enumerate(self._getters):
            if flt is None or flt(item):
                del self._getters[i]
                ev.succeed(item)
                return
        self.items.append(item)

    def _drain_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            ev, item = self._putters.popleft()
            self._insert(item)
            ev.succeed()
