"""One backoff implementation for every retry loop in the package.

Retry-with-backoff shows up at two very different layers of the stack:
the simulated MPI transport re-attempting a transfer over a failed
route (:class:`~repro.mpi.FaultTolerancePolicy`), and a real client
re-submitting to the experiment service after a typed
:class:`~repro.serve.queue.QueueFull` rejection.  Both need geometric
growth and an optional cap, so both share this one helper instead of
growing drifting copies.  It has two shapes:

* **exponential** (the default): attempt ``n`` waits exactly
  ``base_s * factor**n`` seconds, with no RNG draws at all — the
  transport's fixed doubling schedule, which keeps simulations
  event-identical.
* **decorrelated** (``decorrelated=True``): the AWS-style jitter where
  each delay is drawn uniformly from ``[base_s, prev * factor]``,
  which spreads many colliding clients apart much faster than
  synchronized exponentials.  This is what the service clients use on
  :class:`~repro.serve.queue.QueueFull`; a ``seed`` makes the draws
  deterministic, so tests replay bit-identically.

``next_delay(floor_s=...)`` lets a caller honor a server-provided
retry-after hint: the computed delay never undercuts the floor (the
cap still wins, by design, so a hostile hint cannot stall a client
forever).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ExponentialBackoff"]


class ExponentialBackoff:
    """Stateful backoff delay generator (seconds).

    Parameters
    ----------
    base_s, factor, cap_s
        Geometric schedule: attempt ``n`` waits ``base_s * factor**n``
        seconds, clamped to ``cap_s`` when given.
    decorrelated
        Use decorrelated jitter instead: each delay is drawn uniformly
        from ``[base_s, prev_delay * factor]``.  Implies randomness, so
        pass a ``seed`` for deterministic tests.
    seed
        Seed for the private RNG stream: an int or a sequence of ints
        (anything :func:`numpy.random.default_rng` takes).  Two
        instances with the same parameters and seed produce identical
        delay sequences — the determinism contract seeded tests
        rely on.  The stream is built on the first draw, so an
        exponential schedule never builds it.
    """

    def __init__(
        self,
        base_s: float = 1e-3,
        factor: float = 2.0,
        cap_s: Optional[float] = None,
        decorrelated: bool = False,
        seed: Union[int, Sequence[int], None] = None,
    ):
        if base_s < 0:
            raise ValueError(f"base_s cannot be negative (got {base_s})")
        if factor < 1:
            raise ValueError(f"factor must be >= 1 (got {factor})")
        if cap_s is not None and cap_s <= 0:
            raise ValueError(f"cap_s must be positive (got {cap_s})")
        self.base_s = base_s
        self.factor = factor
        self.cap_s = cap_s
        self.decorrelated = decorrelated
        self.seed = seed
        self._rng: Optional[np.random.Generator] = None
        self.attempt = 0
        self._prev: Optional[float] = None

    def reset(self) -> None:
        """Rewind to attempt zero (and restart the seeded stream)."""
        self._rng = None
        self.attempt = 0
        self._prev = None

    def next_delay(self, floor_s: float = 0.0) -> float:
        """The next delay in seconds; advances the attempt counter.

        ``floor_s`` raises the result to at least that many seconds —
        the hook for honoring a server's ``retry_after_s`` hint.  The
        cap (when set) is applied last and wins over the floor.
        """
        if self.decorrelated:
            if self._rng is None:  # seeded on the first draw
                import numpy as np

                self._rng = np.random.default_rng(self.seed)
            prev = self.base_s if self._prev is None else self._prev
            hi = max(self.base_s, prev * self.factor)
            delay = self._rng.uniform(self.base_s, hi)
        else:
            delay = self.base_s * self.factor ** self.attempt
        self.attempt += 1
        delay = max(delay, max(0.0, floor_s))
        if self.cap_s is not None:
            delay = min(delay, self.cap_s)
        self._prev = delay
        return delay

    def delays(self, n: int) -> list:
        """The next ``n`` delays as a list (advances state)."""
        return [self.next_delay() for _ in range(n)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "decorrelated" if self.decorrelated else "exponential"
        return (
            f"<ExponentialBackoff {kind} base={self.base_s} "
            f"factor={self.factor} seed={self.seed}>"
        )
