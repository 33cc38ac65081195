"""Failure model of the prototype (section III-D).

Node failures arrive as a Poisson process (exponential inter-arrival at
the system MTBF; :meth:`~repro.resiliency.inject.FaultPlan.poisson` and
the :class:`~repro.resiliency.inject.FaultInjector` draw them).  In
DEEP-ER, SCR "has been extended to decide where and how often
checkpoints are performed, based on a failure model of the DEEP-ER
prototype" — :func:`optimal_interval` is that decision (the Young/Daly
formula).
"""

from __future__ import annotations

import math

__all__ = ["optimal_interval", "expected_runtime"]


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
