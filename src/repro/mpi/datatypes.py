"""Payload size accounting and wildcard constants.

The simulator charges network time per message, so every payload needs
a byte size.  NumPy arrays report their true ``nbytes``; a
:class:`Bytes` sentinel lets benchmarks send "pure size" without
allocating; everything else falls back to a pickle estimate.
"""

from __future__ import annotations

import pickle
import sys
from typing import Any

__all__ = ["ANY_SOURCE", "ANY_TAG", "Bytes", "payload_nbytes"]

#: Wildcards mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
ANY_SOURCE = -1
ANY_TAG = -1

#: Fixed per-message envelope estimate for small Python scalars.
_SCALAR_BYTES = 8


class Bytes:
    """A synthetic payload of a known size (no actual data).

    Used by microbenchmarks (e.g. the Fig 3 ping-pong) to exercise the
    network model without allocating buffers.
    """

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int):
        if nbytes < 0:
            raise ValueError("payload size cannot be negative")
        self.nbytes = int(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Bytes({self.nbytes})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Bytes) and other.nbytes == self.nbytes

    def __hash__(self) -> int:
        return hash(("Bytes", self.nbytes))


def payload_nbytes(obj: Any) -> int:
    """Best-effort wire size of a Python payload in bytes."""
    # the payloads every message path sends, answered by exact type
    # before the isinstance chain (a subclass takes the chain)
    cls = obj.__class__
    if cls is float or cls is int:
        return _SCALAR_BYTES
    if cls is Bytes:
        return obj.nbytes
    if obj is None:
        return 0
    if isinstance(obj, Bytes):
        return obj.nbytes
    # an array exists only once numpy is loaded: look the module up
    # instead of importing it, so a run that sends none never loads it
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, (np.ndarray, np.generic)):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (int, float, bool, complex)):
        return _SCALAR_BYTES
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(x) for x in obj) + 8 * max(len(obj), 1)
    if isinstance(obj, dict):
        return (
            sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
            + 8 * max(len(obj), 1)
        )
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64
