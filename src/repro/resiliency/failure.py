"""Failure model of the prototype (section III-D).

Node failures arrive as a Poisson process (exponential inter-arrival at
the system MTBF).  In DEEP-ER, SCR "has been extended to decide where
and how often checkpoints are performed, based on a failure model of
the DEEP-ER prototype" — :func:`optimal_interval` is that decision
(the Young/Daly formula).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from ..hardware.node import Node
from ..sim import Simulator

__all__ = ["FailureModel", "optimal_interval", "expected_runtime"]


def optimal_interval(checkpoint_cost_s: float, mtbf_s: float) -> float:
    """Young/Daly optimal checkpoint interval: sqrt(2 * C * MTBF)."""
    if checkpoint_cost_s <= 0 or mtbf_s <= 0:
        raise ValueError("cost and MTBF must be positive")
    return math.sqrt(2.0 * checkpoint_cost_s * mtbf_s)


def expected_runtime(
    work_s: float,
    interval_s: float,
    checkpoint_cost_s: float,
    restart_cost_s: float,
    mtbf_s: float,
) -> float:
    """First-order expected wall time of ``work_s`` of computation with
    periodic checkpointing under exponential failures.

    Standard Daly model: each interval of useful work pays the
    checkpoint cost, and failures (rate 1/MTBF) each cost a restart
    plus half an interval of lost work on average.
    """
    if interval_s <= 0:
        raise ValueError("interval must be positive")
    n_intervals = work_s / interval_s
    base = work_s + n_intervals * checkpoint_cost_s
    failures = base / mtbf_s
    rework = failures * (restart_cost_s + 0.5 * (interval_s + checkpoint_cost_s))
    return base + rework


class FailureModel:
    """Poisson node-failure injector for the simulator."""

    def __init__(
        self,
        sim: Simulator,
        nodes: List[Node],
        node_mtbf_s: float,
        seed: int = 42,
    ):
        if node_mtbf_s <= 0:
            raise ValueError("MTBF must be positive")
        if not nodes:
            raise ValueError("need at least one node")
        import numpy as np

        self.sim = sim
        self.nodes = list(nodes)
        self.node_mtbf_s = node_mtbf_s
        self.rng = np.random.default_rng(seed)
        self.failures: List[tuple] = []
        self._callbacks: List[Callable[[Node], None]] = []

    @property
    def system_mtbf_s(self) -> float:
        """MTBF of the whole set (rates add)."""
        return self.node_mtbf_s / len(self.nodes)

    def on_failure(self, callback: Callable[[Node], None]) -> None:
        """Register a callback invoked with the failed node."""
        self._callbacks.append(callback)

    def draw_failure_times(self, horizon_s: float) -> List[tuple]:
        """Sample (time, node) failures within a horizon (no injection)."""
        out = []
        t = 0.0
        rate = 1.0 / self.system_mtbf_s
        while True:
            t += self.rng.exponential(1.0 / rate)
            if t > horizon_s:
                return out
            node = self.nodes[int(self.rng.integers(len(self.nodes)))]
            out.append((t, node))

    def start(self, horizon_s: Optional[float] = None) -> None:
        """Begin injecting failures into the simulation."""
        self.sim.process(self._inject(horizon_s))

    def _inject(self, horizon_s: Optional[float]):
        while True:
            wait = self.rng.exponential(self.system_mtbf_s)
            if horizon_s is not None and self.sim.now + wait > horizon_s:
                return
            yield self.sim.timeout(wait)
            node = self.nodes[int(self.rng.integers(len(self.nodes)))]
            node.fail()
            self.failures.append((self.sim.now, node))
            for cb in self._callbacks:
                cb(node)
