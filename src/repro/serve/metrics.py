"""Service-side observability: latency histograms and counters.

The experiment service keeps its own live metrics — queue depth,
in-flight jobs, admission/coalescing/cache counters, and wait/run
latency distributions — separate from the per-run cross-layer metrics
a :class:`~repro.engine.RunReport` carries.  Run metrics describe one
simulation; service metrics describe the *serving* behaviour across
many concurrent clients, which is what capacity planning needs.

Histograms use fixed log-spaced buckets so recording is O(log buckets),
allocation-free, and two snapshots are comparable regardless of what
latencies were observed in between.
"""

from __future__ import annotations

import bisect
from typing import List, Optional

__all__ = ["LatencyHistogram", "ServiceMetrics", "render_service_metrics"]


class LatencyHistogram:
    """Fixed-bucket log-spaced latency histogram (seconds).

    Buckets double from ``lo`` upward; a sample beyond the last bound
    lands in the overflow bucket.  Percentiles are resolved to the
    upper bound of the bucket the rank falls in, clamped to the true
    observed maximum, so ``p99 <= max`` always holds.
    """

    def __init__(self, lo: float = 1e-6, buckets: int = 40):
        if lo <= 0 or buckets < 1:
            raise ValueError("histogram needs lo > 0 and buckets >= 1")
        self.bounds: List[float] = [lo * (2.0 ** i) for i in range(buckets)]
        self.counts: List[int] = [0] * (buckets + 1)  # + overflow
        self.count = 0
        self.total_s = 0.0
        self.min_s: Optional[float] = None
        self.max_s: Optional[float] = None

    def record(self, seconds: float) -> None:
        """Add one latency sample (negative samples clamp to zero)."""
        s = max(0.0, float(seconds))
        self.counts[bisect.bisect_left(self.bounds, s)] += 1
        self.count += 1
        self.total_s += s
        self.min_s = s if self.min_s is None else min(self.min_s, s)
        self.max_s = s if self.max_s is None else max(self.max_s, s)

    @property
    def mean_s(self) -> float:
        """Arithmetic mean of every recorded sample (0.0 when empty)."""
        return self.total_s / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``0 < q <= 1``) latency in seconds.

        Resolved to the containing bucket's upper bound, clamped to
        the observed maximum; 0.0 when no samples were recorded.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, int(q * self.count + 0.999999))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                bound = (
                    self.bounds[i]
                    if i < len(self.bounds)
                    else self.max_s or self.bounds[-1]
                )
                return min(bound, self.max_s if self.max_s is not None else bound)
        return self.max_s or 0.0  # pragma: no cover - defensive

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold another histogram's samples into this one, bucket-wise.

        Both histograms must share bucket geometry (same ``lo``, same
        bucket count) — true for every histogram the service family
        creates.  Merged percentiles are exact at bucket resolution:
        the same answer as recording both sample streams into one
        histogram, which is what fleet-level aggregation needs.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket geometry"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total_s += other.total_s
        if other.min_s is not None:
            self.min_s = (
                other.min_s
                if self.min_s is None
                else min(self.min_s, other.min_s)
            )
        if other.max_s is not None:
            self.max_s = (
                other.max_s
                if self.max_s is None
                else max(self.max_s, other.max_s)
            )
        return self

    @classmethod
    def from_snapshot(cls, snap: dict) -> "LatencyHistogram":
        """Rebuild a histogram from a :meth:`snapshot` dict.

        A snapshot carrying raw ``counts`` round-trips exactly; a
        digest-only snapshot (older writer) degrades gracefully — all
        mass lands in the overflow bucket, so count/mean/min/max stay
        exact and percentiles clamp to the observed maximum.
        """
        snap = snap or {}
        hist = cls(
            lo=float(snap.get("bucket_lo", 1e-6)),
            buckets=int(snap.get("buckets", 40)),
        )
        count = int(snap.get("count", 0))
        if count == 0:
            return hist
        counts = snap.get("counts")
        if isinstance(counts, list) and len(counts) == len(hist.counts):
            hist.counts = [int(c) for c in counts]
        else:
            hist.counts[-1] = count
        hist.count = count
        hist.total_s = float(
            snap.get("total_s", snap.get("mean_s", 0.0) * count)
        )
        hist.min_s = float(snap.get("min_s", 0.0))
        hist.max_s = float(snap.get("max_s", 0.0))
        return hist

    def snapshot(self) -> dict:
        """JSON-safe digest: count, mean/min/max, p50/p90/p99, plus the
        raw bucket counts so downstream aggregators (the fleet router)
        can merge histograms bucket-wise instead of averaging digests."""
        return {
            "count": self.count,
            "mean_s": self.mean_s,
            "min_s": self.min_s or 0.0,
            "max_s": self.max_s or 0.0,
            "p50_s": self.percentile(0.50),
            "p90_s": self.percentile(0.90),
            "p99_s": self.percentile(0.99),
            "total_s": self.total_s,
            "bucket_lo": self.bounds[0],
            "buckets": len(self.bounds),
            "counts": list(self.counts),
        }


class ServiceMetrics:
    """Live counters of one :class:`~repro.serve.ExperimentService`.

    All mutation happens under the service lock; a snapshot is a plain
    dict safe to serialize or diff.  ``submitted`` counts every
    ``submit()`` call and always equals
    ``accepted + coalesced + cache_hits + rejected + quarantine_hits``.

    The durability counters stay zero on a fault-free run: ``recovered``
    and ``journal_replays`` only move when a restart replays journaled
    work, ``quarantined``/``quarantine_hits`` when a poison spec trips
    the circuit breaker, ``deadline_misses`` when queued jobs expire,
    and ``batch_timeouts`` when the watchdog recycles a hung pool.
    """

    def __init__(self):
        self.submitted = 0
        self.accepted = 0
        self.rejected = 0
        self.coalesced = 0
        self.cache_hits = 0
        self.executed = 0
        self.completed = 0
        self.failed = 0
        self.requeued = 0
        self.batches = 0
        # durability / self-healing counters (0 on a fault-free run)
        self.recovered = 0
        self.quarantined = 0
        self.quarantine_hits = 0
        self.deadline_misses = 0
        self.batch_timeouts = 0
        self.journal_replays = 0
        self.peak_queue_depth = 0
        self.peak_in_flight = 0
        self.wait = LatencyHistogram()
        self.run = LatencyHistogram()

    def snapshot(self, queue_depth: int = 0, in_flight: int = 0) -> dict:
        """JSON-safe dict of every counter plus latency digests."""
        return {
            "queue_depth": queue_depth,
            "in_flight": in_flight,
            "peak_queue_depth": self.peak_queue_depth,
            "peak_in_flight": self.peak_in_flight,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "completed": self.completed,
            "failed": self.failed,
            "requeued": self.requeued,
            "batches": self.batches,
            "recovered": self.recovered,
            "quarantined": self.quarantined,
            "quarantine_hits": self.quarantine_hits,
            "deadline_misses": self.deadline_misses,
            "batch_timeouts": self.batch_timeouts,
            "journal_replays": self.journal_replays,
            "wait": self.wait.snapshot(),
            "run": self.run.snapshot(),
        }


def render_service_metrics(
    stats: dict, title: str = "Experiment service"
) -> str:
    """Human-readable table of one service metrics snapshot
    (:meth:`ServiceMetrics.snapshot` plus the service's gauges)."""
    from ..bench.tables import render_table

    wait = stats.get("wait", {})
    run = stats.get("run", {})

    def _lat(h: dict) -> str:
        if not h.get("count"):
            return "-"
        return (
            f"n={h['count']} p50={h.get('p50_s', 0.0) * 1e3:.1f}ms "
            f"p90={h.get('p90_s', 0.0) * 1e3:.1f}ms "
            f"p99={h.get('p99_s', 0.0) * 1e3:.1f}ms"
        )

    rows = [
        ("submitted", str(stats.get("submitted", 0))),
        ("accepted", str(stats.get("accepted", 0))),
        ("coalesced", str(stats.get("coalesced", 0))),
        ("cache hits", str(stats.get("cache_hits", 0))),
        ("rejected (queue full)", str(stats.get("rejected", 0))),
        ("executed / completed / failed",
         f"{stats.get('executed', 0)} / {stats.get('completed', 0)} / "
         f"{stats.get('failed', 0)}"),
        ("requeued (worker crash)", str(stats.get("requeued", 0))),
        ("batches", str(stats.get("batches", 0))),
        ("recovered from journal", str(stats.get("recovered", 0))),
        ("journal replays", str(stats.get("journal_replays", 0))),
        ("quarantined (poison specs)",
         f"{stats.get('quarantined', 0)} "
         f"(+{stats.get('quarantine_hits', 0)} short-circuited)"),
        ("deadline misses", str(stats.get("deadline_misses", 0))),
        ("batch timeouts (watchdog)", str(stats.get("batch_timeouts", 0))),
        ("heartbeat age", f"{stats.get('heartbeat_age_s', 0.0):.1f}s"),
        ("queue depth (now / peak)",
         f"{stats.get('queue_depth', 0)} / "
         f"{stats.get('peak_queue_depth', 0)}"),
        ("in flight (now / peak)",
         f"{stats.get('in_flight', 0)} / {stats.get('peak_in_flight', 0)}"),
        ("wait latency", _lat(wait)),
        ("run latency", _lat(run)),
    ]
    return render_table(["Metric", "Value"], rows, title=title)
