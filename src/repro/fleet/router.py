"""The fleet router: cache-key routing, stealing, supervision.

One :class:`FleetRouter` fronts N shards (see
:mod:`repro.fleet.shard`) and preserves the single service's
semantics fleet-wide:

* **Routing** — each submission's content-addressed cache key is
  consistent-hashed onto a shard (:class:`~repro.fleet.ring.HashRing`),
  so every submission of one spec lands on the same shard and the
  shard's coalescing + tiered store deduplicate exactly as before.
* **Stickiness** — while a key has submissions in flight, later
  duplicates follow it to the same shard even if stealing moved it off
  its ring home; fleet-wide, a spec executes at most once per store
  lifetime, never once per shard.
* **Bounded work stealing** — when a tenant's keys skew onto one shard
  (its backlog at least ``steal_threshold`` deep *and* ``steal_margin``
  deeper than the lightest shard's), fresh keys overflow to the
  lightest shard; the stolen result is bundle-synced back into the
  home shard's store afterwards so future submissions (which route
  home) still cache-hit.  Both bounds must hold, so stealing can
  neither thrash under light load nor invert the imbalance.
* **Supervision** — a monitor thread judges shard liveness (process
  heartbeat files / scheduler liveness), restarts dead shards up to
  ``restart_limit`` times (journal recovery replays their unresolved
  work), and past the limit removes the shard from the ring: its arcs
  fall to the survivors and its outstanding jobs are rerouted — no
  accepted job is lost with the shard.

The router itself holds every accepted spec in memory as a
:class:`FleetJob` until resolution, which is what makes rerouting
possible without any cross-shard replication.

Resolution is pushed, not polled.  A job whose shard job is done when
``submit`` hands it over (a store or quarantine hit) resolves on the
submitting thread.  Any other shard job tells the router when it
resolves (a local shard's job callback, a process shard's result-file
scan), and a collector thread, blocked on that one completion queue,
syncs stolen results home and resolves the fleet job.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Dict, List, Optional

from ..serve.queue import QueueFull, Waitable
from ..store.keys import cache_key
from .metrics import FLEET_METRICS_SCHEMA, merge_service_snapshots
from .ring import HashRing

__all__ = ["FleetJob", "FleetRouter"]

_JOB_IDS = itertools.count(1)


class FleetJob(Waitable):
    """Router-level future for one accepted submission.

    Unlike a shard job, a FleetJob can outlive its shard: on shard
    death the router detaches it (``inner = None``) and redispatches
    the spec elsewhere, so ``result()`` callers never observe the
    infrastructure failure — only the job's real outcome.
    """

    _noun = "fleet job"

    def __init__(self, spec, key, priority=0, client="fleet",
                 deadline_s=None):
        super().__init__()
        self.id = next(_JOB_IDS)
        self.spec = spec
        self.key = key
        self.priority = priority
        self.client = client
        self.deadline_s = deadline_s
        #: ring-home shard name (where the key's store entry belongs)
        self.home: Optional[str] = None
        #: shard currently executing (== home unless stolen/rerouted)
        self.shard: Optional[str] = None
        #: shard-level handle (service Job / request id); None while
        #: detached awaiting reroute
        self.inner = None
        self.stolen = False
        self.coalesced = False
        self.cache_hit = False
        self.reroutes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done() else "pending"
        return (
            f"<FleetJob {self.id} {state} shard={self.shard!r} "
            f"key={self.key[:8]}>"
        )


class FleetRouter:
    """Route submissions across shards; supervise; aggregate metrics.

    ``shards`` are constructed (but not necessarily started)
    :class:`~repro.fleet.shard.ShardHandle` instances with unique
    names.  ``start()`` boots every shard plus the collector and
    monitor threads; ``submit()`` is then thread-safe from any number
    of clients.
    """

    def __init__(
        self,
        shards,
        steal_threshold: Optional[int] = 8,
        steal_margin: int = 4,
        restart_limit: int = 1,
        stale_after_s: float = 5.0,
        monitor_interval_s: float = 0.25,
    ):
        shards = list(shards)
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        names = [s.name for s in shards]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names in {names}")
        self._shards: Dict[str, object] = {s.name: s for s in shards}
        self._ring = HashRing(names)
        self.steal_threshold = steal_threshold
        self.steal_margin = max(1, int(steal_margin))
        self.restart_limit = restart_limit
        self.stale_after_s = stale_after_s
        self._monitor_interval_s = monitor_interval_s
        self._lock = threading.Lock()
        #: notified when the last outstanding job resolves
        self._drained = threading.Condition(self._lock)
        #: (FleetJob, shard, shard-job handle) for each resolved shard
        #: job; None stops the collector
        self._completions: queue.SimpleQueue = queue.SimpleQueue()
        #: key -> owning shard name while any submission is in flight
        self._inflight: Dict[str, str] = {}
        self._inflight_count: Dict[str, int] = {}
        #: FleetJob.id -> FleetJob, until resolution
        self._outstanding: Dict[int, FleetJob] = {}
        #: shards removed from the ring for good
        self._lost: set = set()
        self._counters = {
            "routed": 0,
            "sticky_routed": 0,
            "stolen": 0,
            "synced": 0,
            "rejected_full": 0,
            "shard_deaths": 0,
            "restarts": 0,
            "rebalanced": 0,
            "rerouted_jobs": 0,
        }
        self._stopping = False
        self._stop = threading.Event()
        self._collector: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "FleetRouter":
        """Start every unstarted shard and the router threads."""
        for shard in self._shards.values():
            started = (
                getattr(shard, "service", None) is not None
                or getattr(shard, "proc", None) is not None
            )
            if not started:
                shard.start()
        if self._collector is None or not self._collector.is_alive():
            self._collector = threading.Thread(
                target=self._collector_loop,
                name="repro-fleet-collector",
                daemon=True,
            )
            self._collector.start()
        if self._monitor is None or not self._monitor.is_alive():
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="repro-fleet-monitor",
                daemon=True,
            )
            self._monitor.start()
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted job is resolved (and stolen
        results synced home); False on timeout."""
        with self._lock:
            return self._drained.wait_for(
                lambda: not self._outstanding, timeout
            )

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop routing; optionally finish accepted work first; stop
        the router threads and every live shard."""
        if drain:
            self.drain(timeout=timeout)
        with self._lock:
            self._stopping = True
            pending = list(self._outstanding.values())
            self._outstanding.clear()
            self._inflight.clear()
            self._inflight_count.clear()
            self._drained.notify_all()
        self._stop.set()
        self._completions.put(None)
        for thread in (self._collector, self._monitor):
            if thread is not None:
                thread.join(timeout=5.0)
        for job in pending:
            job._settle(
                None, RuntimeError("fleet router shut down before the job ran")
            )
        for shard in self._shards.values():
            shard.stop(drain=False)

    def __enter__(self) -> "FleetRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # -- submission ----------------------------------------------------------
    def submit(self, spec, priority: int = 0, client: str = "fleet",
               deadline_s: Optional[float] = None) -> FleetJob:
        """Route one spec to its shard; returns the fleet job handle.

        Raises :class:`~repro.serve.queue.QueueFull` when the target
        shard rejects (clients retry with backoff, exactly as against
        a single service).  A store hit on a local shard returns done,
        as does a quarantined spec, failed with the shard's typed
        ``PoisonJobError``.
        """
        key = cache_key(spec)
        job = FleetJob(
            spec, key, priority=priority, client=client,
            deadline_s=deadline_s,
        )
        with self._lock:
            if self._stopping:
                raise RuntimeError("fleet router has been shut down")
            self._dispatch_locked(job)
            shard, inner = self._shards[job.shard], job.inner
        self._watch(job, shard, inner)
        return job

    def _live_names(self) -> List[str]:
        return [n for n in self._shards if n not in self._lost]

    def _dispatch_locked(self, job: FleetJob) -> None:
        """Pick a shard (sticky > steal > ring) and hand the job over.

        Caller holds the lock.  Raises the shard's admission error
        without registering the job.
        """
        job.home = self._ring.route(job.key)
        sticky = self._inflight.get(job.key)
        if sticky is not None and sticky not in self._lost:
            target = sticky
            job.coalesced = True
            self._counters["sticky_routed"] += 1
        else:
            target = job.home
            if self.steal_threshold is not None and len(self._shards) > 1:
                home_shard = self._shards[target]
                home_depth = home_shard.depth()
                # a key the home has stored costs no run there, and a
                # thief without it would run it a second time
                if (
                    home_depth >= self.steal_threshold
                    and not home_shard.has_result(job.key)
                ):
                    lightest = min(
                        (
                            self._shards[n]
                            for n in self._live_names()
                            if n != target
                        ),
                        key=lambda s: s.depth(),
                        default=None,
                    )
                    if (
                        lightest is not None
                        and home_depth - lightest.depth()
                        >= self.steal_margin
                    ):
                        target = lightest.name
                        job.stolen = True
        shard = self._shards[target]
        try:
            inner = shard.submit(
                job.spec,
                priority=job.priority,
                client=job.client,
                deadline_s=job.deadline_s,
            )
        except QueueFull:
            self._counters["rejected_full"] += 1
            job.stolen = False
            raise
        job.shard = target
        job.inner = inner
        if job.stolen:
            self._counters["stolen"] += 1
        self._counters["routed"] += 1
        self._inflight[job.key] = target
        self._inflight_count[job.key] = (
            self._inflight_count.get(job.key, 0) + 1
        )
        self._outstanding[job.id] = job

    def _dec_inflight_locked(self, key: str) -> None:
        count = self._inflight_count.get(key, 0) - 1
        if count <= 0:
            self._inflight_count.pop(key, None)
            self._inflight.pop(key, None)
        else:
            self._inflight_count[key] = count

    def _retire_locked(self, job: FleetJob) -> bool:
        """Take ``job`` off the outstanding set; False when it was not
        on it (shutdown or another path settles it)."""
        if self._outstanding.pop(job.id, None) is None:
            return False
        if not self._outstanding:
            self._drained.notify_all()
        return True

    # -- resolution (push) and the collector ---------------------------------
    def _watch(self, job: FleetJob, shard, inner) -> None:
        """Resolve ``job`` when its shard job ``inner`` resolves: here
        when it has already, else through the completion queue."""
        if shard.watch(
            inner, lambda: self._completions.put((job, shard, inner))
        ):
            self._finish(job, shard, inner)

    def _collector_loop(self) -> None:
        while True:
            item = self._completions.get()
            if item is None:
                return
            try:
                self._finish(*item)
            except Exception:  # pragma: no cover - defensive
                pass

    def _finish(self, job: FleetJob, shard, inner) -> None:
        """Resolve ``job`` from its resolved shard job ``inner``, unless
        the monitor detached that handle (the reroute resolves it)."""
        if job.inner is not inner:
            return  # checked again under the lock before resolving
        try:
            outcome = shard.poll(inner)
        except Exception as exc:  # noqa: BLE001 - the job carries it
            # nothing polls it again: an unreadable result fails the job
            outcome = ("failed", exc, {})
        if outcome is None or (
            outcome[0] == "failed" and not shard.alive(self.stale_after_s)
        ):
            # a dying shard's teardown error is not the job's fate: the
            # monitor detaches and reroutes the job, or restarts a
            # process shard, whose replacement rewrites the result
            if shard.persistent_handles:
                self._watch(job, shard, inner)
            return
        status, payload, info = outcome
        if status == "done" and job.stolen:
            self._sync_stolen(job)
        with self._lock:
            if job.inner is not inner or not self._retire_locked(job):
                return
            self._dec_inflight_locked(job.key)
        job.cache_hit = bool(info.get("cache_hit", False))
        if status == "done":
            job._settle(payload, None)
        else:
            job._settle(None, payload)

    def _sync_stolen(self, job: FleetJob) -> None:
        """Copy a stolen key's stored result back to its home shard,
        so future submissions (which route home) cache-hit there."""
        thief = self._shards.get(job.shard)
        home = self._shards.get(job.home)
        if (
            thief is None
            or home is None
            or thief is home
            or job.home in self._lost
        ):
            return
        bundle = home.root / f".steal-{job.id}-{job.key[:12]}.bundle"
        try:
            if thief.export_key(job.key, bundle):
                home.import_bundle(bundle)
                with self._lock:
                    self._counters["synced"] += 1
        except OSError:  # pragma: no cover - sync is best-effort
            pass
        finally:
            bundle.unlink(missing_ok=True)

    # -- monitor (liveness, restart, rebalance) ------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(self._monitor_interval_s):
            try:
                self._monitor_once()
            except Exception:  # pragma: no cover - defensive
                pass

    def _monitor_once(self) -> None:
        for name in self._live_names():
            if self._stopping:
                return
            shard = self._shards[name]
            if shard.alive(self.stale_after_s):
                continue
            self._handle_death(name, shard)

    def _handle_death(self, name: str, shard) -> None:
        with self._lock:
            self._counters["shard_deaths"] += 1
        can_restart = (
            self.restart_limit is None
            or shard.restarts < self.restart_limit
        )
        detached: List[FleetJob] = []
        keep_handles = can_restart and shard.persistent_handles
        if not keep_handles:
            with self._lock:
                for job in self._outstanding.values():
                    if job.shard == name and job.inner is not None:
                        job.inner = None
                        job.reroutes += 1
                        detached.append(job)
                for job in detached:
                    self._dec_inflight_locked(job.key)
        if can_restart:
            try:
                shard.restart()
                with self._lock:
                    self._counters["restarts"] += 1
            except Exception:
                can_restart = False
        if not can_restart:
            with self._lock:
                self._ring.remove(name)
                self._lost.add(name)
                self._counters["rebalanced"] += 1
        if detached:
            self._reroute(detached)

    def _reroute(self, jobs: List[FleetJob]) -> None:
        """Redispatch detached jobs through normal routing; fail the
        ones no shard takes."""
        for job in jobs:
            if job.done():
                continue
            error = self._redispatch(job)
            if error is None:
                continue
            with self._lock:
                retired = self._retire_locked(job)
            if retired:
                job._settle(None, error)

    def _redispatch(self, job: FleetJob) -> Optional[BaseException]:
        """Dispatch one detached job again, absorbing transient
        QueueFull with short sleeps (monitor-thread side); the error
        to fail it with, or None."""
        for _attempt in range(50):
            try:
                with self._lock:
                    if self._stopping:
                        return None  # shutdown fails every outstanding job
                    self._dispatch_locked(job)
                    self._counters["rerouted_jobs"] += 1
                    shard, inner = self._shards[job.shard], job.inner
            except QueueFull as exc:
                time.sleep(min(max(exc.retry_after_s, 0.01), 0.25))
                continue
            except LookupError:
                return RuntimeError("no live shards left to run the job")
            except Exception as exc:
                return exc
            self._watch(job, shard, inner)
            return None
        return RuntimeError("could not reroute the job (shards at capacity)")

    # -- introspection -------------------------------------------------------
    @property
    def shard_names(self) -> List[str]:
        """Every configured shard name (including lost ones)."""
        return list(self._shards)

    def shard(self, name: str):
        """The handle of one shard by name."""
        return self._shards[name]

    def outstanding(self) -> int:
        """Accepted-but-unresolved job count."""
        with self._lock:
            return len(self._outstanding)

    def metrics_snapshot(self) -> dict:
        """The aggregated fleet metrics document: per-shard snapshots,
        the bucket-wise fleet merge, and the router's own counters."""
        shard_snaps = {}
        for name in self._live_names():
            shard_snaps[name] = self._shards[name].metrics() or {}
        fleet = merge_service_snapshots(list(shard_snaps.values()))
        with self._lock:
            router = dict(self._counters)
            router.update(
                {
                    "outstanding": len(self._outstanding),
                    "inflight_keys": len(self._inflight),
                    "shards_total": len(self._shards),
                    "shards_live": len(self._shards) - len(self._lost),
                    "shards_lost": sorted(self._lost),
                    "ring_shares": self._ring.shares(),
                }
            )
        return {
            "schema": FLEET_METRICS_SCHEMA,
            "shards": shard_snaps,
            "fleet": fleet,
            "router": router,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FleetRouter {len(self._shards)} shard(s), "
            f"{len(self._lost)} lost>"
        )
