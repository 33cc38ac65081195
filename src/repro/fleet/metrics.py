"""Fleet-wide metrics: merge per-shard ServiceMetrics into one view.

Capacity planning against a sharded fleet needs the same quantities
the single service exposes — admission counters, coalesce/cache-hit
rates, wait/run latency distributions — but *fleet-wide*.  Counters
are additive, so summing per-shard snapshots preserves the service's
core invariant by construction::

    submitted == accepted + coalesced + cache_hits
                 + rejected + quarantine_hits

(each shard maintains it under its own lock; a sum of balanced ledgers
is a balanced ledger).  Latency histograms are merged **bucket-wise**
from the raw counts each snapshot now carries — the merged p50/p90/p99
are exactly what one histogram over all shards' samples would report,
not an average of per-shard digests (which would be meaningless under
skewed load).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..serve.metrics import LatencyHistogram, render_service_metrics

__all__ = [
    "FLEET_METRICS_SCHEMA",
    "COUNTER_FIELDS",
    "merge_histogram_snapshots",
    "merge_service_snapshots",
    "invariant_holds",
    "render_fleet_status",
]

#: schema tag of the aggregated fleet metrics document
FLEET_METRICS_SCHEMA = "repro.fleet_metrics/1"

#: additive ServiceMetrics fields (summed across shards); the gauges
#: queue_depth/in_flight/workers sum too (fleet totals), while the
#: per-shard peaks are reported as the fleet-wide maximum
COUNTER_FIELDS = (
    "submitted",
    "accepted",
    "rejected",
    "coalesced",
    "cache_hits",
    "executed",
    "completed",
    "failed",
    "requeued",
    "batches",
    "recovered",
    "quarantined",
    "quarantine_hits",
    "deadline_misses",
    "batch_timeouts",
    "journal_replays",
    "queue_depth",
    "in_flight",
    "workers",
)

_PEAK_FIELDS = ("peak_queue_depth", "peak_in_flight")


def merge_histogram_snapshots(snaps: Iterable[Optional[dict]]) -> dict:
    """One histogram snapshot equivalent to recording every shard's
    samples into a single histogram (bucket-wise merge)."""
    merged: Optional[LatencyHistogram] = None
    for snap in snaps:
        if not snap or not snap.get("count"):
            continue
        hist = LatencyHistogram.from_snapshot(snap)
        merged = hist if merged is None else merged.merge(hist)
    return (merged or LatencyHistogram()).snapshot()


def merge_service_snapshots(snaps: List[dict]) -> dict:
    """Fold per-shard ``metrics_snapshot()`` dicts into one fleet view.

    Counters and gauges sum; peaks take the fleet maximum; the wait and
    run histograms merge bucket-wise.  The result satisfies the same
    submitted-invariant each input did.
    """
    snaps = [s for s in snaps if s]
    merged: Dict[str, object] = {f: 0 for f in COUNTER_FIELDS}
    for snap in snaps:
        for f in COUNTER_FIELDS:
            merged[f] = int(merged[f]) + int(snap.get(f, 0) or 0)
    for f in _PEAK_FIELDS:
        merged[f] = max(
            (int(snap.get(f, 0) or 0) for snap in snaps), default=0
        )
    merged["wait"] = merge_histogram_snapshots(
        [snap.get("wait") for snap in snaps]
    )
    merged["run"] = merge_histogram_snapshots(
        [snap.get("run") for snap in snaps]
    )
    merged["shards"] = len(snaps)
    return merged


def invariant_holds(snap: dict) -> bool:
    """Whether one (shard or fleet) snapshot's admission ledger
    balances: every submission is accounted exactly once."""
    return int(snap.get("submitted", 0)) == (
        int(snap.get("accepted", 0))
        + int(snap.get("coalesced", 0))
        + int(snap.get("cache_hits", 0))
        + int(snap.get("rejected", 0))
        + int(snap.get("quarantine_hits", 0))
    )


def render_fleet_status(metrics: dict):
    """Render one aggregated fleet metrics document.

    Returns ``(text, exit_code)``: code 1 when the fleet-wide ledger
    invariant (``submitted == accepted + coalesced + cache_hits +
    rejected + quarantine_hits``) does not hold in the merged
    snapshot, so scripts can alert on ``repro fleet status``.
    """
    from ..bench.tables import render_table

    fleet = metrics.get("fleet", {})
    router = metrics.get("router", {})
    lines = [
        render_service_metrics(
            fleet,
            title=f"Fleet ({fleet.get('shards', 0)} live shard(s))",
        )
    ]
    shares = router.get("ring_shares", {})
    for name, snap in sorted((metrics.get("shards") or {}).items()):
        share = shares.get(name)
        title = f"Shard {name}" + (
            f" — ring share {share:.1%}" if share is not None else ""
        )
        lines.append("")
        lines.append(render_service_metrics(snap, title=title))
    rows = [
        ("routed (sticky / stolen)",
         f"{router.get('routed', 0)} ({router.get('sticky_routed', 0)} / "
         f"{router.get('stolen', 0)})"),
        ("stolen results synced home", str(router.get("synced", 0))),
        ("rejected (shard queue full)",
         str(router.get("rejected_full", 0))),
        ("shard deaths / restarts",
         f"{router.get('shard_deaths', 0)} / {router.get('restarts', 0)}"),
        ("ring rebalances", str(router.get("rebalanced", 0))),
        ("rerouted jobs", str(router.get("rerouted_jobs", 0))),
        ("outstanding / in-flight keys",
         f"{router.get('outstanding', 0)} / "
         f"{router.get('inflight_keys', 0)}"),
        ("shards live / total",
         f"{router.get('shards_live', 0)} / "
         f"{router.get('shards_total', 0)}"),
    ]
    lost = router.get("shards_lost") or []
    if lost:
        rows.append(("shards lost (ring rebalanced)", ", ".join(lost)))
    lines.append("")
    lines.append(render_table(["Metric", "Value"], rows, title="Router"))
    lines.append("")
    if invariant_holds(fleet):
        lines.append(
            "fleet ledger: submitted == accepted + coalesced + cache hits "
            "+ rejected + quarantine hits (holds)"
        )
        return "\n".join(lines), 0
    lines.append(
        "fleet ledger VIOLATION: submitted != accepted + coalesced + "
        "cache hits + rejected + quarantine hits"
    )
    return "\n".join(lines), 1
