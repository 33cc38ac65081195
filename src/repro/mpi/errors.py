"""MPI-layer exceptions."""

from __future__ import annotations

__all__ = [
    "MPIError",
    "RankError",
    "CommError",
    "TruncationError",
    "TransportError",
    "PeerFailedError",
    "RouteDownError",
]


class MPIError(Exception):
    """Base class for errors raised by the simulated MPI runtime."""


class TransportError(MPIError):
    """A message could not be moved across the fabric.

    Raised (after the configured retries are exhausted) instead of
    letting a send hang forever on a dead fabric — the simulated
    equivalent of a ParaStation transport-layer error return.
    """


class PeerFailedError(TransportError):
    """The source or destination node of a transfer has crashed."""


class RouteDownError(TransportError):
    """No surviving fabric route connects the two endpoints."""


class RankError(MPIError):
    """An operation referenced a rank outside the communicator."""


class CommError(MPIError):
    """Misuse of a communicator (wrong group, reuse after free, ...)."""


class TruncationError(MPIError):
    """A receive buffer was smaller than the incoming message."""
