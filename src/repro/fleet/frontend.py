"""Asyncio TCP front end of the fleet router.

Exposes a running :class:`~repro.fleet.router.FleetRouter` over a
socket speaking the length-prefixed JSON protocol
(:mod:`repro.fleet.protocol`): many concurrent clients, one
connection each, any number of requests per connection.  The event
loop runs in a dedicated thread, so the front end layers cleanly over
the router's thread-based core, and waiting on a job resolution is a
coroutine the job's done-callback wakes (through
``loop.call_soon_threadsafe``) — thousands of in-flight submissions
cost coroutines, not blocked threads.

Operations (request ``op`` -> reply)::

    ping    -> {ok, op: "pong"}
    status  -> {ok, op: "status", metrics: <fleet metrics document>}
    submit  -> spec dict (+ priority/client/deadline_s); with
               wait=true (default) the reply carries the final result
               (status/report/error, routing info); wait=false acks
               with the job id immediately, and a later
               {op: "wait", id: N} blocks for the result.

A ``wait=false`` job can be waited for while the connection that
submitted it is open: when that connection ends, the front end drops
every job it submitted and nobody waited for (the job itself still
runs and lands in its shard's store).  ``priority`` and ``deadline_s``
pass the job directory's admission rule (:func:`repro.serve.queue.
bad_field`: an integer, and null or a number from 0 to the largest
float), and ``timeout_s`` the same number rule; any other value gets
``{ok: false, error: "bad field: ..."}``, and a ``wait`` whose ``id``
is not an integer an unknown-id error.

A shard-level QueueFull maps to ``{ok: false, error: "queue_full",
retry_after_s: ...}`` so remote clients can back off exactly like
local ones.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Optional, Set

from ..engine import ExperimentSpec
from ..serve.queue import QueueFull, bad_field, bad_seconds
from .protocol import (
    FLEET_MSG_SCHEMA,
    FrameError,
    read_frame,
    write_frame,
)
from .router import FleetJob, FleetRouter

__all__ = ["FleetFrontEnd"]


def _job_doc(job: FleetJob) -> dict:
    return {
        "id": job.id,
        "key": job.key,
        "shard": job.shard,
        "home": job.home,
        "stolen": job.stolen,
        "coalesced": job.coalesced,
    }


def _result_doc(job: FleetJob) -> dict:
    error = job.exception(timeout=0)
    report = None if error is not None else job.result(timeout=0)
    return {
        "schema": FLEET_MSG_SCHEMA,
        "ok": True,
        "op": "result",
        "status": "failed" if error is not None else "done",
        "error": None if error is None else str(error),
        "cache_hit": job.cache_hit,
        "report": None if report is None else report.to_dict(),
        **_job_doc(job),
    }


def _set_done(resolved: asyncio.Future) -> None:
    if not resolved.done():  # a timed-out wait cancelled it
        resolved.set_result(None)


def _error_doc(error: str, **extra) -> dict:
    return {
        "schema": FLEET_MSG_SCHEMA,
        "ok": False,
        "error": error,
        **extra,
    }


class FleetFrontEnd:
    """TCP front end over one router; binds ``host:port`` on start.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start` — the pattern tests and the CLI's quickstart use).
    """

    def __init__(
        self,
        router: FleetRouter,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.router = router
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        #: fleet job id -> job, for two-phase submit/wait clients
        self._jobs: Dict[int, FleetJob] = {}

    @property
    def address(self) -> str:
        """``host:port`` once started."""
        return f"{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "FleetFrontEnd":
        """Bind and serve in a background event-loop thread."""
        if self._thread is not None and self._thread.is_alive():
            return self
        started = threading.Event()
        boot_error: list = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self._server = loop.run_until_complete(
                    asyncio.start_server(
                        self._handle, self.host, self.port
                    )
                )
            except OSError as exc:
                boot_error.append(exc)
                started.set()
                loop.close()
                return
            self.port = self._server.sockets[0].getsockname()[1]
            started.set()
            try:
                loop.run_forever()
            finally:
                self._server.close()
                loop.run_until_complete(self._server.wait_closed())
                remaining = asyncio.all_tasks(loop)
                for task in remaining:
                    task.cancel()
                if remaining:
                    loop.run_until_complete(
                        asyncio.gather(
                            *remaining, return_exceptions=True
                        )
                    )
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-fleet-frontend", daemon=True
        )
        self._thread.start()
        started.wait(timeout=10)
        if boot_error:
            self._thread.join(timeout=5)
            raise boot_error[0]
        return self

    def stop(self) -> None:
        """Stop serving and join the event-loop thread."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._thread = None

    def __enter__(self) -> "FleetFrontEnd":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- connection handling -------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        #: ids of the wait=false jobs this connection submitted
        submitted: Set[int] = set()
        try:
            while True:
                try:
                    msg = await read_frame(reader)
                except FrameError as exc:
                    await write_frame(
                        writer, _error_doc(f"bad frame: {exc}")
                    )
                    break
                if msg is None:
                    break
                await write_frame(
                    writer, await self._dispatch(msg, submitted)
                )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            for job_id in submitted:
                self._jobs.pop(job_id, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionError,
                OSError,
                asyncio.CancelledError,
            ):  # pragma: no cover - teardown race
                pass

    async def _wait_for(self, job: FleetJob, timeout: Optional[float],
                        submitted: Set[int]) -> dict:
        if not job.done():
            loop = asyncio.get_running_loop()
            resolved = loop.create_future()

            def wake(_job: FleetJob) -> None:
                try:
                    loop.call_soon_threadsafe(_set_done, resolved)
                except RuntimeError:  # the front end stopped first
                    pass

            job.add_done_callback(wake)
            try:
                await asyncio.wait_for(resolved, timeout)
            except asyncio.TimeoutError:
                return _error_doc(
                    "timeout", id=job.id,
                    detail=f"job {job.id} unresolved after {timeout}s",
                )
        self._jobs.pop(job.id, None)
        submitted.discard(job.id)
        return _result_doc(job)

    async def _dispatch(self, msg: dict, submitted: Set[int]) -> dict:
        op = msg.get("op")
        if op == "ping":
            return {"schema": FLEET_MSG_SCHEMA, "ok": True, "op": "pong"}
        if op == "status":
            return {
                "schema": FLEET_MSG_SCHEMA,
                "ok": True,
                "op": "status",
                "metrics": self.router.metrics_snapshot(),
            }
        if op in ("submit", "wait"):
            bad = bad_field(msg) or bad_seconds(
                "timeout_s", msg.get("timeout_s")
            )
            if bad is not None:
                return _error_doc(f"bad field: {bad}")
        if op == "submit":
            try:
                spec = ExperimentSpec.from_dict(msg["spec"])
            except (KeyError, TypeError, ValueError) as exc:
                return _error_doc(f"bad spec: {exc}")
            try:
                job = self.router.submit(
                    spec,
                    priority=msg.get("priority", 0),
                    client=str(msg.get("client", "fleet-client")),
                    deadline_s=msg.get("deadline_s"),
                )
            except QueueFull as exc:
                return _error_doc(
                    "queue_full", retry_after_s=exc.retry_after_s
                )
            except (RuntimeError, LookupError) as exc:
                return _error_doc(str(exc))
            if not msg.get("wait", True):
                self._jobs[job.id] = job
                submitted.add(job.id)
                return {
                    "schema": FLEET_MSG_SCHEMA,
                    "ok": True,
                    "op": "submitted",
                    **_job_doc(job),
                }
            return await self._wait_for(job, msg.get("timeout_s"), submitted)
        if op == "wait":
            job_id = msg.get("id")
            job = self._jobs.get(job_id) if type(job_id) is int else None
            if job is None:
                return _error_doc(f"unknown job id {msg.get('id')!r}")
            return await self._wait_for(job, msg.get("timeout_s"), submitted)
        return _error_doc(f"unknown op {op!r}")
