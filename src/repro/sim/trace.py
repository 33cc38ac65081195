"""Execution tracing: named intervals per actor, ASCII Gantt rendering.

Used to visualize the Cluster-Booster pipeline (which phases overlap,
where the dependency stalls are) without any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = ["Interval", "Tracer"]


@dataclass(frozen=True)
class Interval:
    """One traced span of an actor's timeline."""

    actor: str
    label: str
    start: float
    end: float

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError("interval ends before it starts")

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.end - self.start


class Tracer:
    """Collects intervals; renders actor timelines as an ASCII chart."""

    def __init__(self):
        self.intervals: List[Interval] = []

    def record(self, actor: str, label: str, start: float, end: float) -> Interval:
        """Add one interval ending at ``end`` to an actor's timeline."""
        iv = Interval(actor, label, start, end)
        self.intervals.append(iv)
        return iv

    def actors(self) -> List[str]:
        """All actors in first-appearance order."""
        seen: Dict[str, None] = {}
        for iv in self.intervals:
            seen.setdefault(iv.actor)
        return list(seen)

    def timeline(self, actor: str) -> List[Interval]:
        """One actor's intervals, sorted by start time."""
        return sorted(
            (iv for iv in self.intervals if iv.actor == actor),
            key=lambda iv: iv.start,
        )

    def busy_time(self, actor: str, label: Optional[str] = None) -> float:
        """Total recorded time of an actor (optionally one label)."""
        return sum(
            iv.duration
            for iv in self.intervals
            if iv.actor == actor and (label is None or iv.label == label)
        )

    def span(self) -> tuple:
        """(earliest start, latest end) over all intervals."""
        if not self.intervals:
            return (0.0, 0.0)
        return (
            min(iv.start for iv in self.intervals),
            max(iv.end for iv in self.intervals),
        )

    def gantt(
        self,
        width: int = 72,
        actors: Optional[Sequence[str]] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        legend: bool = True,
    ) -> str:
        """ASCII Gantt chart: one row per actor, one glyph per label.

        Later intervals overwrite earlier ones in a cell; idle time is
        rendered as ``.``.
        """
        if not self.intervals:
            return "(no intervals recorded)"
        lo, hi = self.span()
        t0 = lo if t0 is None else t0
        t1 = hi if t1 is None else t1
        if t1 <= t0:
            raise ValueError("empty time window")
        actors = list(actors) if actors is not None else self.actors()
        labels = []
        for iv in self.intervals:
            if iv.label not in labels:
                labels.append(iv.label)
        glyphs = {}
        palette = "FPXMIOABCDEGHJKLNQRSTUVWYZ#@*+"
        for i, label in enumerate(labels):
            # prefer the label's initial when unique
            cand = label[0].upper()
            if cand in glyphs.values():
                # probe the whole palette once; with more labels than
                # glyphs, fall back to reusing one deterministically
                for j in range(len(palette)):
                    probe = palette[(i + j) % len(palette)]
                    if probe not in glyphs.values():
                        cand = probe
                        break
                else:
                    cand = palette[i % len(palette)]
            glyphs[label] = cand

        scale = width / (t1 - t0)
        name_w = max(len(a) for a in actors)
        out = []
        for actor in actors:
            row = ["."] * width
            for iv in self.timeline(actor):
                a = int((max(iv.start, t0) - t0) * scale)
                b = int((min(iv.end, t1) - t0) * scale)
                b = max(b, a + 1)
                for c in range(a, min(b, width)):
                    row[c] = glyphs[iv.label]
            out.append(f"{actor.rjust(name_w)} |{''.join(row)}|")
        header = (
            f"{' ' * name_w}  t = {t0 * 1e3:.3f} ms"
            f"{' ' * max(1, width - 30)}t = {t1 * 1e3:.3f} ms"
        )
        out.insert(0, header)
        if legend:
            out.append(
                "legend: "
                + "  ".join(f"{g}={label}" for label, g in glyphs.items())
                + "  .=idle"
            )
        return "\n".join(out)
