"""Discrete-event simulation engine underlying the Cluster-Booster model.

A small, dependency-free process-based simulator: generator processes
suspend on :class:`Event` objects, the :class:`Simulator` advances a
virtual clock through a priority queue.  All times are in **seconds**.
"""

from .core import Simulator, StopSimulation
from .events import AllOf, AnyOf, Condition, Event, Interrupt, Timeout
from .process import Process
from .queues import CalendarEventQueue, EmptyQueue
from .resources import NO_ITEM, Request, Resource, Store
from .trace import Interval, Tracer

__all__ = [
    "Simulator",
    "StopSimulation",
    "EmptyQueue",
    "CalendarEventQueue",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
    "Resource",
    "Request",
    "Store",
    "NO_ITEM",
    "Tracer",
    "Interval",
]
