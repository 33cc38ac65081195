"""Non-blocking operation handles (MPI_Request equivalents)."""

from __future__ import annotations

from typing import Any, Sequence

from ..sim import AllOf, AnyOf, Event

__all__ = ["Request", "waitall", "waitany"]


class Request:
    """Handle for a pending non-blocking send or receive.

    Wraps the simulation :class:`~repro.sim.Event` that fires when the
    operation completes: a :class:`~repro.sim.Process` for receives and
    non-blocking collectives, a plain completion event for sends on the
    runtime's callback path.  ``yield req.wait()`` suspends the caller
    until complete and evaluates to the operation's result (the
    received payload for a receive, ``None`` for a send).
    """

    __slots__ = ("event", "kind")

    def __init__(self, event: Event, kind: str):
        self.event = event
        self.kind = kind

    def wait(self) -> Event:
        """The event to yield on: fires when the operation completes."""
        return self.event

    def test(self) -> bool:
        """Non-blockingly check for completion (MPI_Test)."""
        return self.event.triggered

    @property
    def result(self) -> Any:
        """Result after completion (raises if not complete)."""
        return self.event.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.test() else "pending"
        return f"<Request {self.kind} {state}>"


def waitall(requests: Sequence[Request]) -> AllOf:
    """MPI_Waitall: an event firing when every request completes.

    ``yield waitall(reqs)``; results remain available via
    ``req.result``.
    """
    if not requests:
        raise ValueError("waitall needs at least one request")
    sim = requests[0].event.sim
    return AllOf(sim, [r.event for r in requests])


def waitany(requests: Sequence[Request]) -> AnyOf:
    """MPI_Waitany: an event firing when the first request completes."""
    if not requests:
        raise ValueError("waitany needs at least one request")
    sim = requests[0].event.sim
    return AnyOf(sim, [r.event for r in requests])
