"""Cross-layer instrumentation hub.

One :class:`MetricsHub` observes every layer of a run — simulator,
fabric, MPI runtime, the app-level :class:`~repro.sim.Tracer`, the
result cache, and the experiment service — and
produces a single nested metrics snapshot.  Collection is pull-based:
the layers maintain cheap counters on their own hot paths (events
processed, per-link bytes/messages/stall time, per-context traffic) and
the hub reads them after the run, so enabling instrumentation costs
nothing per event.

This is the observability spine the engine threads through a run, the
way one launch/measure path (ParaStation + JUBE) serves every
experiment on the real DEEP-ER prototype.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["MetricsHub"]


class MetricsHub:
    """Collects per-layer metrics from an attached simulation stack."""

    def __init__(
        self, sim=None, fabric=None, runtime=None, tracer=None, cache=None,
        service=None, fleet=None, malleable=None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.runtime = runtime
        self.tracer = tracer
        self.cache = cache
        self.service = service
        self.fleet = fleet
        self.malleable = malleable

    # -- per-layer snapshots ----------------------------------------------
    def sim_metrics(self) -> dict:
        """Simulator counters: event volume, queue depth, host time,
        and how the event queue batched co-temporal events.

        Everything except ``wall_time_s``/``events_per_sec`` (host
        timing) is deterministic for a given spec, and identical to a
        run on the reference heap queue the differential tests keep —
        the batch histogram included, since both group co-temporal
        events the same way.
        """
        if self.sim is None:
            return {}
        wall = self.sim.wall_time_s
        return {
            "events_processed": self.sim.events_processed,
            "fast_wakeups": self.sim.fast_wakeups,
            "peak_queue_depth": self.sim.peak_queue_depth,
            "wall_time_s": wall,
            "events_per_sec": (
                self.sim.events_processed / wall if wall > 0 else 0.0
            ),
            "sim_time_s": self.sim.now,
            "batches": self.sim.batches,
            "max_batch": self.sim.max_batch,
            "batch_size_hist": self.sim.batch_size_hist(),
        }

    def network_metrics(self) -> dict:
        """Fabric totals plus per-link bytes, messages, and stall time."""
        if self.fabric is None:
            return {}
        links = {}
        for link in self.fabric.topology.links:
            if link.messages_carried or link.bytes_carried:
                links[f"{link.key[0]}<->{link.key[1]}"] = link.metrics()
        return {
            "total_bytes": self.fabric.bytes_transferred,
            "total_messages": self.fabric.messages_transferred,
            "fast_transfers": getattr(self.fabric, "fast_transfers", 0),
            "slow_transfers": getattr(self.fabric, "slow_transfers", 0),
            "links": links,
        }

    def mpi_metrics(self) -> dict:
        """Per-communicator point-to-point and collective traffic,
        plus transport fault-tolerance counters when a retry policy is
        active on the runtime."""
        if self.runtime is None:
            return {}
        out = {"communicators": self.runtime.comm_traffic()}
        if getattr(self.runtime, "fault_tolerance", None) is not None:
            out["transport"] = self.runtime.transport_metrics()
        return out

    def phase_metrics(self) -> dict:
        """Per-actor busy time by label, from the app-level tracer."""
        if self.tracer is None:
            return {}
        out: dict = {}
        for iv in self.tracer.intervals:
            actor = out.setdefault(iv.actor, {})
            actor[iv.label] = actor.get(iv.label, 0.0) + iv.duration
        return out

    def cache_metrics(self) -> dict:
        """Result-cache session counters (hits, misses, bytes moved)
        plus store size, from an attached
        :class:`~repro.store.ResultCache`."""
        if self.cache is None:
            return {}
        return self.cache.stats()

    def service_metrics(self) -> dict:
        """Live serving-layer metrics (queue depth, in-flight jobs,
        hit/coalesce/reject counters, durability counters — recovered,
        quarantined, deadline_misses, batch_timeouts, journal_replays,
        heartbeat_age_s — and wait/run latency histograms) from an
        attached :class:`~repro.serve.ExperimentService`."""
        if self.service is None:
            return {}
        return self.service.stats()

    def fleet_metrics(self) -> dict:
        """The aggregated fleet document (per-shard snapshots, the
        bucket-wise merged fleet ledger, router counters) from an
        attached :class:`~repro.fleet.FleetRouter`."""
        if self.fleet is None:
            return {}
        return self.fleet.metrics_snapshot()

    def malleability_metrics(self) -> dict:
        """The re-tune recovery's report section (policy, re-partition
        events, time-to-recover, post-fault throughput), which the
        engine hands over after a malleable run."""
        if self.malleable is None:
            return {}
        return dict(self.malleable)

    def snapshot(self) -> dict:
        """One nested dict with every layer's metrics."""
        return {
            "sim": self.sim_metrics(),
            "network": self.network_metrics(),
            "mpi": self.mpi_metrics(),
            "phases": self.phase_metrics(),
            "cache": self.cache_metrics(),
            "service": self.service_metrics(),
            "fleet": self.fleet_metrics(),
            "malleability": self.malleability_metrics(),
        }
