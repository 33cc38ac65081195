"""Shard handles: the router's uniform view of one ExperimentService.

A shard is one :class:`~repro.serve.ExperimentService` with its own
store root, write-ahead journal, and heartbeat file under a private
directory.  The router talks to shards through a small handle
interface — submit / watch / poll / depth / alive / restart — with two
implementations:

* :class:`LocalShard` embeds the service in-process (threads): no
  spawn cost, exact depth reads, the mode the throughput demo and
  most tests use.  A submitted job tells the router it resolved
  through its done-callback, on the thread that resolves it.
* :class:`ProcessShard` spawns ``repro serve --jobdir <dir>`` and
  speaks the filejob directory protocol to it: real process isolation,
  liveness judged from the heartbeat file, and SIGKILL-able for
  chaos tests.  Its submission handles are request ids, which survive
  a shard restart — the replacement server's journal recovery rewrites
  the result files — and a scan thread looks for the watched ones'
  result files every ``poll_s``.

Either way the shard directory layout is the ``repro serve`` one
(``queue/``, ``results/``, ``journal.jsonl``, ``heartbeat.json``,
``store/``), so ``repro serve --status`` works on a fleet shard
unchanged.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from ..engine import RunReport
from ..serve import ExperimentService, read_heartbeat
from ..serve.filejob import (
    heartbeat_path, journal_path, read_metrics, read_result, submit_job,
)
from ..store import ResultCache

__all__ = ["ShardHandle", "LocalShard", "ProcessShard"]

#: how often a local shard's service rewrites its heartbeat [s]
HEARTBEAT_INTERVAL_S = 0.25

#: how long a process shard counts as alive before its first heartbeat [s]
STARTUP_GRACE_S = 30.0

#: service keywords a local shard sets itself
_SHARD_SET = ("cache", "journal", "heartbeat", "heartbeat_interval_s")


class ShardHandle:
    """Common state + the store-sync helpers both shard kinds share."""

    #: whether submission handles survive a shard restart (process
    #: shards poll result files that journal recovery regenerates;
    #: local shards hand out in-memory jobs that die with the service)
    persistent_handles = False

    def __init__(self, name: str, root):
        self.name = name
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.restarts = 0

    @property
    def store_root(self) -> Path:
        """This shard's private result-store directory."""
        return self.root / "store"

    @property
    def heartbeat_path(self) -> Path:
        """The shard service's liveness heartbeat file."""
        return heartbeat_path(self.root)

    @property
    def journal_path(self) -> Path:
        """The shard service's write-ahead job journal."""
        return journal_path(self.root)

    # -- store sync (bounded work stealing) ----------------------------------
    def cache_view(self) -> Optional[ResultCache]:  # pragma: no cover
        """A reader over the shard's store; None when unavailable."""
        raise NotImplementedError

    def has_result(self, key: str) -> bool:
        """Whether the shard's store holds ``key`` (counts no hit)."""
        cache = self.cache_view()
        return cache is not None and key in cache

    def export_key(self, key: str, out_path) -> bool:
        """Export one stored entry as a bundle file; False if absent."""
        cache = self.cache_view()
        if cache is None:
            return False
        cache.refresh()
        outcome = cache.export_bundle(out_path, where=[("key", "=", key)])
        return outcome["exported"] > 0

    def import_bundle(self, path) -> int:
        """Fold a bundle into this shard's store; imported-entry count."""
        cache = self.cache_view()
        if cache is None:
            return 0
        return int(cache.import_bundle(path)["imported"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} at {str(self.root)!r}>"


class LocalShard(ShardHandle):
    """One in-process ExperimentService under the shard directory.

    Keywords beyond its own go to the service.  One the service does
    not take, or one the shard sets itself (``cache``, ``journal``,
    ``heartbeat``, ``heartbeat_interval_s``), raises :class:`TypeError`
    at construction.
    """

    kind = "local"

    def __init__(
        self,
        name: str,
        root,
        engine=None,
        workers: int = 1,
        max_queue: int = 256,
        **service_kwargs,
    ):
        taken = inspect.signature(ExperimentService).parameters
        for kw in service_kwargs:
            if kw in _SHARD_SET:
                raise TypeError(f"LocalShard sets {kw!r} itself")
            if kw not in taken:
                raise TypeError(
                    f"LocalShard got an unexpected keyword argument {kw!r}"
                )
        super().__init__(name, root)
        self._engine = engine
        self._kwargs = dict(service_kwargs)
        self._kwargs.setdefault("workers", workers)
        self._kwargs.setdefault("max_queue", max_queue)
        self.service: Optional[ExperimentService] = None
        self._failed = False

    def start(self) -> "LocalShard":
        """Build (or rebuild) the service over the shard's journal and
        store; journal recovery replays any unresolved work."""
        self._failed = False
        self.service = ExperimentService(
            engine=self._engine,
            cache=ResultCache(self.store_root),
            journal=self.journal_path,
            heartbeat=self.heartbeat_path,
            heartbeat_interval_s=HEARTBEAT_INTERVAL_S,
            **self._kwargs,
        )
        return self

    def submit(self, spec, priority=0, client="fleet", deadline_s=None):
        """Submit to the embedded service; returns its in-memory Job."""
        return self.service.submit(
            spec, priority=priority, client=client, deadline_s=deadline_s
        )

    def watch(self, handle, fn: Callable[[], None]) -> bool:
        """Call ``fn()`` when the job resolves, on the thread that
        resolves it; True instead, without a call, when it has."""
        if handle.done():
            return True
        handle.add_done_callback(lambda _job: fn())
        return False

    def poll(self, handle) -> Optional[Tuple[str, object]]:
        """Resolution of one submitted job, or None while pending."""
        if not handle.done():
            return None
        error = handle.exception(timeout=0)
        if error is not None:
            return ("failed", error, {})
        return (
            "done",
            handle.result(timeout=0),
            {"cache_hit": handle.cache_hit},
        )

    def depth(self) -> int:
        """Exact pending-queue depth of the embedded service."""
        return 0 if self.service is None else self.service.queue_depth

    def alive(self, stale_after_s: float = 5.0) -> bool:
        """Started and not crash-failed (in-process: no staleness)."""
        if self._failed or self.service is None:
            return False
        return self.service.started

    def metrics(self) -> Optional[dict]:
        """The embedded service's metrics snapshot; None when down."""
        if self.service is None:
            return None
        return self.service.metrics_snapshot()

    def cache_view(self) -> Optional[ResultCache]:
        """The embedded service's live cache; None when down."""
        return None if self.service is None else self.service.cache

    def restart(self) -> None:
        """Rebuild the service; journal recovery replays open work."""
        self.restarts += 1
        self.start()

    def fail(self) -> None:
        """Test hook: take the shard down as a supervisor would see a
        crash — liveness drops and its pending jobs never resolve
        through the old handles (the router must detach and reroute)."""
        self._failed = True
        service, self.service = self.service, None
        if service is not None:
            service.shutdown(drain=False)

    def stop(self, drain: bool = True) -> None:
        """Shut the embedded service down (optionally draining)."""
        if self.service is not None:
            self.service.shutdown(drain=drain)
            self.service = None


class ProcessShard(ShardHandle):
    """One ``repro serve`` subprocess over the shard directory."""

    kind = "process"
    persistent_handles = True

    def __init__(
        self,
        name: str,
        root,
        workers: int = 1,
        max_queue: int = 256,
        poll_s: float = 0.05,
    ):
        super().__init__(name, root)
        self.workers = workers
        self.max_queue = max_queue
        self.poll_s = poll_s
        self.proc: Optional[subprocess.Popen] = None
        self._started_at: Optional[float] = None
        self._outstanding = 0
        self._cache: Optional[ResultCache] = None
        #: request id -> callback, until its result file appears
        self._watched: Dict[str, Callable[[], None]] = {}
        self._scan_stop = threading.Event()
        self._scanner: Optional[threading.Thread] = None

    def _spawn_env(self) -> dict:
        env = dict(os.environ)
        # make the running repro package importable in the child even
        # from a source checkout (no install step required)
        pkg_root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in [str(pkg_root), env.get("PYTHONPATH", "")]
            if p
        )
        return env

    def start(self) -> "ProcessShard":
        """Spawn ``repro serve`` over the shard directory."""
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--jobdir",
            str(self.root),
            "--cache",
            str(self.store_root),
            "--workers",
            str(self.workers),
            "--max-queue",
            str(self.max_queue),
            "--poll",
            str(self.poll_s),
            "--quiet",
        ]
        self.proc = subprocess.Popen(
            cmd,
            env=self._spawn_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self._started_at = time.monotonic()  # wall-clock-ok: host-side liveness bookkeeping
        if self._scanner is None:
            self._scan_stop.clear()
            self._scanner = threading.Thread(
                target=self._scan_loop,
                name=f"repro-fleet-scan-{self.name}",
                daemon=True,
            )
            self._scanner.start()
        return self

    def submit(self, spec, priority=0, client="fleet", deadline_s=None):
        """Drop a request file into the jobdir; returns the request id
        (a restart-stable handle — see ``persistent_handles``)."""
        request_id = submit_job(
            self.root,
            spec,
            priority=priority,
            client=client,
            deadline_s=deadline_s,
        )
        self._outstanding += 1
        return request_id

    def watch(self, handle, fn: Callable[[], None]) -> bool:
        """Call ``fn()`` from the scan thread once the request's result
        file appears; False (a result is never there at once)."""
        self._watched[handle] = fn
        return False

    def _scan_loop(self) -> None:
        while not self._scan_stop.wait(self.poll_s):
            for handle, fn in self._watched.copy().items():
                if read_result(self.root, handle) is not None:
                    self._watched.pop(handle, None)
                    fn()

    def poll(self, handle) -> Optional[Tuple[str, object]]:
        """Check for the request's result file (handle = request id)."""
        payload = read_result(self.root, handle)
        if payload is None:
            return None
        self._outstanding = max(0, self._outstanding - 1)
        if payload.get("status") == "done" and payload.get("report"):
            return (
                "done",
                RunReport.from_dict(payload["report"]),
                {"cache_hit": bool(payload.get("cache_hit"))},
            )
        return (
            "failed",
            RuntimeError(payload.get("error") or "job failed"),
            {},
        )

    def depth(self) -> int:
        """Approximate backlog: requests submitted but not yet resolved
        (exact queue depth lives in the shard process)."""
        return self._outstanding

    def alive(self, stale_after_s: float = 5.0) -> bool:
        """Process up and heartbeat fresh (within ``stale_after_s``)."""
        if self.proc is None or self.proc.poll() is not None:
            return False
        beat = read_heartbeat(self.heartbeat_path)
        if beat is None or beat.get("pid") != self.proc.pid:
            # no heartbeat from *this* incarnation yet: alive during
            # the startup grace window, dead (hung) after it
            started = self._started_at or 0.0
            return (time.monotonic() - started) < STARTUP_GRACE_S  # wall-clock-ok: host-side liveness bookkeeping
        if beat.get("status") == "stopped":
            return False
        return beat["age_s"] <= stale_after_s

    def metrics(self) -> Optional[dict]:
        """The server's last flushed metrics.json; None if unreadable."""
        return read_metrics(self.root)

    def cache_view(self) -> Optional[ResultCache]:
        """A read/write handle on the shard's store directory."""
        if self._cache is None:
            self._cache = ResultCache(self.store_root)
        return self._cache

    def has_result(self, key: str) -> bool:
        """Whether the server's store holds ``key`` (counts no hit)."""
        # the server process writes the store: fold in its new rows
        self.cache_view().refresh()
        return super().has_result(key)

    def restart(self) -> None:
        """Replace the process; journal recovery in the new server
        replays unresolved requests and rewrites their result files."""
        self.restarts += 1
        self.kill(wait=True)
        self._cache = None
        self.start()

    def kill(self, wait: bool = False) -> None:
        """SIGKILL the shard process (chaos hook)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            if wait:
                self.proc.wait(timeout=10)

    def stop(self, drain: bool = True) -> None:
        """SIGTERM the server (it drains and stops); SIGKILL fallback.
        The result-file scan stops too."""
        self._scan_stop.set()
        if self._scanner is not None:
            self._scanner.join(timeout=5.0)
            self._scanner = None
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait(timeout=10)
