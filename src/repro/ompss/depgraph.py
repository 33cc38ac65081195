"""Run-time task dependency graph (RAW/WAR/WAW over data clauses).

OmpSs builds "a task dependency graph at run-time" from the pragma
annotations (section III-B); this module does the same from the
``ins``/``outs``/``inouts`` clauses.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .task import TaskSpec

__all__ = [
    "DependencyGraph",
    "build_dependency_graph",
    "ready_tasks",
    "critical_path_length",
]


class DependencyGraph:
    """The dependency DAG of a task list.

    ``tasks`` maps task id to task in program order.  Every edge runs
    from an earlier task to a later one, so program order is already a
    topological order and the graph cannot have a cycle.  ``edges``
    maps ``(u, v)`` to the dependence that made it: ``{"kind": "RAW" |
    "WAR" | "WAW", "data": name}``, the latest one when several do.
    """

    def __init__(self) -> None:
        self.tasks: Dict[int, TaskSpec] = {}
        self.edges: Dict[Tuple[int, int], dict] = {}
        self._preds: Dict[int, List[int]] = {}

    def add_task(self, task: TaskSpec) -> None:
        """Add ``task`` after every task added so far."""
        self.tasks[task.task_id] = task
        self._preds.setdefault(task.task_id, [])

    def add_edge(self, u: int, v: int, kind: str, data: str) -> None:
        """Make task ``v`` depend on task ``u`` through ``data``; a
        second dependence between the two replaces the first's label."""
        if (u, v) not in self.edges:
            self._preds[v].append(u)
        self.edges[u, v] = {"kind": kind, "data": data}

    def has_edge(self, u: int, v: int) -> bool:
        """Whether task ``v`` depends on task ``u``."""
        return (u, v) in self.edges

    def number_of_edges(self) -> int:
        """How many task pairs depend on each other."""
        return len(self.edges)

    def predecessors(self, task_id: int) -> List[int]:
        """Ids of the tasks ``task_id`` depends on, in edge order."""
        return self._preds[task_id]


def build_dependency_graph(tasks: Sequence[TaskSpec]) -> DependencyGraph:
    """Edges follow program order: a task depends on the latest earlier
    writer of anything it reads (RAW), the latest earlier reader or
    writer of anything it writes (WAR/WAW)."""
    g = DependencyGraph()
    last_writer: Dict[str, TaskSpec] = {}
    readers_since_write: Dict[str, List[TaskSpec]] = {}
    for t in tasks:
        g.add_task(t)
        for name in t.reads:
            w = last_writer.get(name)
            if w is not None and w.task_id != t.task_id:
                g.add_edge(w.task_id, t.task_id, "RAW", name)
            readers_since_write.setdefault(name, []).append(t)
        for name in t.writes:
            w = last_writer.get(name)
            if w is not None and w.task_id != t.task_id:
                g.add_edge(w.task_id, t.task_id, "WAW", name)
            for r in readers_since_write.get(name, []):
                if r.task_id != t.task_id:
                    g.add_edge(r.task_id, t.task_id, "WAR", name)
            last_writer[name] = t
            readers_since_write[name] = []
    return g


def ready_tasks(g: DependencyGraph, done: set) -> List[TaskSpec]:
    """Tasks whose predecessors are all in ``done`` and not yet done."""
    return [
        t
        for node, t in g.tasks.items()
        if node not in done and all(p in done for p in g.predecessors(node))
    ]


def critical_path_length(g: DependencyGraph) -> float:
    """Longest chain of task durations (lower bound on the schedule)."""
    lengths: Dict[int, float] = {}
    for node, t in g.tasks.items():  # program order is topological
        best = max((lengths[p] for p in g.predecessors(node)), default=0.0)
        lengths[node] = best + t.duration_s
    return max(lengths.values(), default=0.0)
