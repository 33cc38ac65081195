"""Deterministic fault injection for live simulations.

The DEEP-ER resiliency stack was built because the prototype *expected*
component failures; this module makes the simulated machine fail the
same way, on demand and reproducibly.  A :class:`FaultPlan` is a seeded,
time-ordered schedule of fault events (node crashes, link losses, link
degradations, each optionally self-healing after a duration); a
:class:`FaultInjector` is a simulation process that replays a plan — or
streams Poisson node crashes at a given MTBF — against the fabric of a
live machine while an application runs on it.

Plans serialize to JSON, attach to
:class:`~repro.engine.ExperimentSpec`, and replay bit-identically, so a
chaos run is as reproducible as a clean one.  An empty plan attaches
*nothing* to the simulator: the event stream (and therefore every
timestamp) is identical to a run with no injector at all.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..sim import Interrupt

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector", "FAULT_KINDS", "PLAN_SCHEMA"]

#: recognised fault kinds
FAULT_KINDS = ("node_crash", "link_down", "link_degrade")

PLAN_SCHEMA = "repro.fault_plan/1"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` is a node/switch id for ``node_crash`` and an endpoint
    pair for the link kinds.  ``duration_s`` of ``None`` means the fault
    is permanent (recovery, if any, is the application's job — e.g. a
    checkpoint/restart supervisor rebooting the node); otherwise the
    injector restores the component after that many seconds.
    ``factor`` is the bandwidth fraction of a degraded link.
    """

    time_s: float
    kind: str
    target: Union[str, Tuple[str, str]]
    duration_s: Optional[float] = None
    factor: Optional[float] = None

    def __post_init__(self):
        if self.time_s < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time_s}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.kind == "node_crash":
            if not isinstance(self.target, str):
                raise ValueError("node_crash target must be a node id string")
        else:
            if isinstance(self.target, str) or len(tuple(self.target)) != 2:
                raise ValueError(f"{self.kind} target must be an endpoint pair")
            object.__setattr__(self, "target", tuple(self.target))
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("duration_s must be positive (or None)")
        if self.kind == "link_degrade":
            if self.factor is None or not 0 < self.factor < 1:
                raise ValueError("link_degrade needs a factor in (0, 1)")
        elif self.factor is not None:
            raise ValueError("factor only applies to link_degrade")

    def to_dict(self) -> dict:
        """JSON-ready mapping (omits unset optional fields)."""
        d = {"time_s": self.time_s, "kind": self.kind}
        d["target"] = (
            self.target if isinstance(self.target, str) else list(self.target)
        )
        if self.duration_s is not None:
            d["duration_s"] = self.duration_s
        if self.factor is not None:
            d["factor"] = self.factor
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultEvent":
        target = d["target"]
        if not isinstance(target, str):
            target = tuple(target)
        return cls(
            time_s=d["time_s"],
            kind=d["kind"],
            target=target,
            duration_s=d.get("duration_s"),
            factor=d.get("factor"),
        )


class FaultPlan:
    """A deterministic, time-ordered schedule of fault events.

    Construct explicitly from events, generate with :meth:`poisson`
    (seeded exponential inter-arrivals at the system MTBF, materialized
    so they replay exactly), or load from JSON.
    """

    def __init__(
        self,
        events: Sequence[FaultEvent] = (),
        seed: Optional[int] = None,
        mtbf_s: Optional[float] = None,
    ):
        self.events: List[FaultEvent] = sorted(events, key=lambda e: e.time_s)
        self.seed = seed
        self.mtbf_s = mtbf_s

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FaultPlan) and self.to_dict() == other.to_dict()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultPlan {len(self.events)} events seed={self.seed}>"

    @classmethod
    def poisson(
        cls,
        mtbf_s: float,
        horizon_s: float,
        targets: Sequence[str],
        seed: int = 20180521,
        kind: str = "node_crash",
        duration_s: Optional[float] = None,
        factor: Optional[float] = None,
    ) -> "FaultPlan":
        """Draw a Poisson fault schedule: exponential inter-arrivals at
        the *system* MTBF, targets chosen uniformly per event."""
        if mtbf_s <= 0 or horizon_s <= 0:
            raise ValueError("MTBF and horizon must be positive")
        targets = list(targets)
        if not targets:
            raise ValueError("need at least one fault target")
        import numpy as np

        rng = np.random.default_rng(seed)
        events = []
        t = 0.0
        while True:
            t += float(rng.exponential(mtbf_s))
            if t > horizon_s:
                break
            target = targets[int(rng.integers(len(targets)))]
            events.append(
                FaultEvent(
                    time_s=t,
                    kind=kind,
                    target=target,
                    duration_s=duration_s,
                    factor=factor,
                )
            )
        return cls(events, seed=seed, mtbf_s=mtbf_s)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping of the whole plan."""
        return {
            "schema": PLAN_SCHEMA,
            "seed": self.seed,
            "mtbf_s": self.mtbf_s,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        if d.get("schema", PLAN_SCHEMA) != PLAN_SCHEMA:
            raise ValueError(f"unsupported fault plan schema {d.get('schema')!r}")
        return cls(
            events=[FaultEvent.from_dict(e) for e in d.get("events", ())],
            seed=d.get("seed"),
            mtbf_s=d.get("mtbf_s"),
        )

    def to_json(self, indent: int = 2) -> str:
        """The plan as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Write the plan to a JSON file."""
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def render(self) -> str:
        """Human-readable table of the plan's schedule."""
        from ..bench.tables import render_table

        rows = [
            (
                f"{ev.time_s:.3f}",
                ev.kind,
                ev.target if isinstance(ev.target, str)
                else "<->".join(ev.target),
                "-" if ev.duration_s is None else f"{ev.duration_s:.3f}",
                "-" if ev.factor is None else f"{ev.factor:.2f}",
            )
            for ev in self
        ]
        meta = f"{len(self)} events, seed={self.seed}, mtbf_s={self.mtbf_s}"
        return render_table(
            ["Time [s]", "Kind", "Target", "Duration [s]", "Factor"],
            rows,
            title=f"Fault plan ({meta})",
        )


class FaultInjector:
    """Simulation process that applies faults to a live machine's fabric.

    Two modes:

    * **plan replay** — every event of a :class:`FaultPlan` fires at its
      scheduled simulated time;
    * **Poisson streaming** — with ``mtbf_s`` (and no plan events), node
      crashes arrive with exponential inter-arrivals at the system MTBF
      for as long as the injector runs, uniformly over the ``targets``
      still alive.

    With an empty plan and no MTBF, :meth:`start` attaches nothing to
    the simulator — the run is event-for-event identical to one without
    an injector.  ``stop()`` detaches the injector (a streaming injector
    would otherwise keep the simulation alive forever); ``start()`` may
    be called again afterwards to resume, continuing the same random
    stream.
    """

    def __init__(
        self,
        machine,
        plan: Optional[FaultPlan] = None,
        mtbf_s: Optional[float] = None,
        targets: Optional[Sequence[str]] = None,
        seed: int = 20180521,
    ):
        self.machine = machine
        self.sim = machine.sim
        self.fabric = machine.fabric
        self.plan = plan
        self.mtbf_s = mtbf_s if mtbf_s is not None else (
            plan.mtbf_s if plan is not None and not plan.events else None
        )
        if self.mtbf_s is not None and self.mtbf_s <= 0:
            raise ValueError("MTBF must be positive")
        self.targets = list(targets) if targets is not None else None
        self.seed = seed if plan is None or plan.seed is None else plan.seed
        self._rng = None
        #: (sim time, FaultEvent) log of successfully applied faults
        self.faults: List[tuple] = []
        self.stats = {kind: 0 for kind in FAULT_KINDS}
        self.stats.update({"restores": 0, "skipped": 0})
        self._fault_callbacks: List[Callable[[FaultEvent], None]] = []
        self._restore_callbacks: List[Callable[[FaultEvent], None]] = []
        self._proc = None
        self._plan_pos = 0
        self._restore_heap: List[tuple] = []
        self._seq = itertools.count()

    @property
    def rng(self):
        """The Poisson stream (exponential times, target picks), seeded
        on its first draw: a plan of explicit events draws nothing and
        so never loads numpy."""
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(self.seed)
        return self._rng

    # -- callbacks ---------------------------------------------------------
    def on_fault(self, callback: Callable[[FaultEvent], None]) -> None:
        """Register a callback invoked with each applied fault event."""
        self._fault_callbacks.append(callback)

    def on_restore(self, callback: Callable[[FaultEvent], None]) -> None:
        """Register a callback invoked when a timed fault self-heals."""
        self._restore_callbacks.append(callback)

    # -- lifecycle ---------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the injector process is currently attached."""
        return self._proc is not None and not self._proc.triggered

    def _has_work(self) -> bool:
        pending_plan = (
            self.plan is not None and self._plan_pos < len(self.plan.events)
        )
        return pending_plan or bool(self._restore_heap) or (
            self.mtbf_s is not None
        )

    def start(self) -> None:
        """Attach the injector to the simulation (no-op when idle/empty)."""
        if self.active or not self._has_work():
            return
        self._proc = self.sim.process(self._run())
        self._proc.defuse()

    def stop(self) -> None:
        """Detach the injector; pending plan events and restores keep
        their schedule when ``start()`` is called again."""
        if self.active:
            self._proc.interrupt(cause="fault injector stopped")

    # -- the injector process ----------------------------------------------
    def _next_poisson_time(self) -> float:
        return self.sim.now + float(self.rng.exponential(self.mtbf_s))

    def _alive_targets(self) -> List[str]:
        candidates = (
            self.targets
            if self.targets is not None
            else [n.node_id for n in self.machine.all_nodes]
        )
        down = self.fabric.topology.failed_nodes
        return [t for t in candidates if t not in down]

    def _run(self):
        poisson_next = (
            self._next_poisson_time() if self.mtbf_s is not None else None
        )
        try:
            while True:
                plan_next = None
                if self.plan is not None and self._plan_pos < len(self.plan.events):
                    plan_next = self.plan.events[self._plan_pos].time_s
                restore_next = (
                    self._restore_heap[0][0] if self._restore_heap else None
                )
                times = [
                    t for t in (plan_next, restore_next, poisson_next)
                    if t is not None
                ]
                if not times:
                    return
                t = max(min(times), self.sim.now)
                if t > self.sim.now:
                    yield t - self.sim.now
                # restores first: a link must come back before a fault
                # scheduled at the same instant can re-fail it
                while self._restore_heap and self._restore_heap[0][0] <= self.sim.now:
                    _, _, ev = heapq.heappop(self._restore_heap)
                    self._restore(ev)
                while (
                    self.plan is not None
                    and self._plan_pos < len(self.plan.events)
                    and self.plan.events[self._plan_pos].time_s <= self.sim.now
                ):
                    ev = self.plan.events[self._plan_pos]
                    self._plan_pos += 1
                    self._apply(ev)
                if poisson_next is not None and poisson_next <= self.sim.now:
                    alive = self._alive_targets()
                    if alive:
                        target = alive[int(self.rng.integers(len(alive)))]
                        self._apply(
                            FaultEvent(
                                time_s=self.sim.now,
                                kind="node_crash",
                                target=target,
                            )
                        )
                    elif not self._restore_heap:
                        # every target is already dead and nothing will
                        # revive one: end the stream instead of keeping
                        # the simulation alive forever
                        return
                    poisson_next = self._next_poisson_time()
        except Interrupt:
            return

    # -- fault application -------------------------------------------------
    def _apply(self, ev: FaultEvent) -> None:
        try:
            if ev.kind == "node_crash":
                self.fabric.fail_node(ev.target)
            elif ev.kind == "link_down":
                self.fabric.fail_link(*ev.target)
            else:
                self.fabric.degrade_link(*ev.target, ev.factor)
        except (ValueError, KeyError):
            # target unknown or already down: record, don't kill the run
            self.stats["skipped"] += 1
            return
        self.stats[ev.kind] += 1
        self.faults.append((self.sim.now, ev))
        if ev.duration_s is not None:
            heapq.heappush(
                self._restore_heap,
                (self.sim.now + ev.duration_s, next(self._seq), ev),
            )
        for cb in self._fault_callbacks:
            cb(ev)

    def _restore(self, ev: FaultEvent) -> None:
        try:
            if ev.kind == "node_crash":
                self.fabric.restore_node(ev.target)
            elif ev.kind == "link_down":
                self.fabric.restore_link(*ev.target)
            else:
                self.fabric.restore_link_quality(*ev.target)
        except (ValueError, KeyError):
            self.stats["skipped"] += 1
            return
        self.stats["restores"] += 1
        for cb in self._restore_callbacks:
            cb(ev)

    # -- reporting ---------------------------------------------------------
    def metrics(self) -> dict:
        """Counter snapshot + compact timeline for the resiliency report."""
        return {
            "injected": {k: self.stats[k] for k in FAULT_KINDS},
            "restores": self.stats["restores"],
            "skipped": self.stats["skipped"],
            "timeline": [
                {
                    "time_s": t,
                    "kind": ev.kind,
                    "target": (
                        ev.target
                        if isinstance(ev.target, str)
                        else list(ev.target)
                    ),
                }
                for t, ev in self.faults
            ],
        }
