"""Wire messages and the per-rank matching mailbox."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from ..sim import Event
from .datatypes import ANY_SOURCE, ANY_TAG

__all__ = ["Envelope", "Mailbox"]


class Envelope:
    """A message as it sits in a process's mailbox.

    ``context_id`` isolates communicators from each other (messages on
    different communicators never match), exactly as MPI contexts do.
    ``source`` is the sender's rank *within that communicator* (for an
    inter-communicator: the rank in the remote group).
    """

    __slots__ = ("context_id", "source", "tag", "nbytes", "payload")

    def __init__(
        self, context_id: int, source: int, tag: int, nbytes: int, payload: Any
    ):
        self.context_id = context_id
        self.source = source
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Envelope(context_id={self.context_id}, source={self.source}, "
            f"tag={self.tag}, nbytes={self.nbytes})"
        )


class _Receive(Event):
    """A posted receive: the event succeeds with the matched envelope."""

    __slots__ = ()

    #: how the mailbox hands a matched envelope to a waiter
    _deliver = Event.succeed


class Mailbox:
    """One rank's MPI matching queues.

    Three queues, as production MPIs keep them: ``unexpected`` holds
    delivered envelopes nobody has asked for yet, in arrival order;
    posted receives (:meth:`get`, :meth:`post`) and probes
    (:meth:`watch`) wait in posting order.  A receive matches an
    envelope on equal context id, equal source (or ``ANY_SOURCE``) and
    equal tag (or ``ANY_TAG``).

    The order is a FIFO store's:

    * :meth:`put` fires every live matching probe, then hands the
      envelope to the earliest-posted live matching receive, else
      queues it as unexpected;
    * :meth:`get` takes the earliest-arrived matching envelope, and
      :meth:`peek` returns it without consuming it;
    * a receive or probe whose process was interrupted away (its event
      ``abandoned``) is skipped and dropped, never satisfied.

    A posted receive is a *waiter*: anything with an ``abandoned`` flag
    and a ``_deliver(env)`` method, called in the same call a match is
    found.  :meth:`get` posts an event that succeeds with the envelope,
    so a receive costs exactly the queue entry a ``Store.get`` would; an
    MPI exchange round posts itself (see
    :meth:`~repro.mpi.runtime.MPIRuntime.exchange`).
    """

    __slots__ = ("sim", "unexpected", "_posted", "_probes")

    def __init__(self, sim: "Simulator"):  # noqa: F821
        self.sim = sim
        self.unexpected: Deque[Envelope] = deque()
        # (waiter, context_id, source, tag) in posting order
        self._posted: List[tuple] = []
        self._probes: List[tuple] = []

    def put(self, env: Envelope) -> None:
        """Deliver one envelope (never blocks: mailboxes are unbounded)."""
        ctx = env.context_id
        source = env.source
        tag = env.tag
        if self._probes:
            kept = []
            for entry in self._probes:
                ev, c, s, t = entry
                if ev.abandoned:
                    continue
                if (
                    c == ctx
                    and (s == source or s == ANY_SOURCE)
                    and (t == tag or t == ANY_TAG)
                ):
                    ev.succeed(env)
                else:
                    kept.append(entry)
            self._probes = kept
        posted = self._posted
        if not posted:
            self.unexpected.append(env)
            return
        # the usual case: the receive posted first is live and matches
        waiter, c, s, t = posted[0]
        if (
            c == ctx
            and (s == source or s == ANY_SOURCE)
            and (t == tag or t == ANY_TAG)
            and not waiter.abandoned
        ):
            del posted[0]
            waiter._deliver(env)
            return
        i = 0
        while i < len(posted):
            waiter, c, s, t = posted[i]
            if waiter.abandoned:
                del posted[i]
            elif (
                c == ctx
                and (s == source or s == ANY_SOURCE)
                and (t == tag or t == ANY_TAG)
            ):
                del posted[i]
                waiter._deliver(env)
                return
            else:
                i += 1
        self.unexpected.append(env)

    def get(
        self, context_id: int, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Event:
        """Post a receive: an event that succeeds with the matching
        envelope, removed from the mailbox."""
        ev = _Receive(self.sim)
        self.post(ev, context_id, source, tag)
        return ev

    def post(
        self, waiter, context_id: int, source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> None:
        """Post a receive for ``waiter``: ``waiter._deliver(env)`` gets
        the matching envelope, removed from the mailbox, now if one is
        queued, else from the :meth:`put` that delivers it."""
        i = self._find(context_id, source, tag) if self.unexpected else None
        if i is None:
            self._posted.append((waiter, context_id, source, tag))
        else:
            env = self.unexpected[i]
            del self.unexpected[i]
            waiter._deliver(env)

    def peek(
        self, context_id: int, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Optional[Envelope]:
        """The envelope :meth:`get` would take now, left in place; or
        ``None``."""
        i = self._find(context_id, source, tag)
        return None if i is None else self.unexpected[i]

    def watch(
        self, context_id: int, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Event:
        """Post a probe: an event that succeeds with the matching
        envelope without consuming it, at once if one is queued."""
        ev = Event(self.sim)
        i = self._find(context_id, source, tag)
        if i is None:
            self._probes.append((ev, context_id, source, tag))
        else:
            ev.succeed(self.unexpected[i])
        return ev

    def _find(self, ctx: int, source: int, tag: int) -> Optional[int]:
        """Index of the earliest unexpected envelope matching."""
        any_source = source == ANY_SOURCE
        any_tag = tag == ANY_TAG
        for i, env in enumerate(self.unexpected):
            if (
                env.context_id == ctx
                and (any_source or env.source == source)
                and (any_tag or env.tag == tag)
            ):
                return i
        return None
