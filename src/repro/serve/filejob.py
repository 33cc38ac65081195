"""File-based job directory protocol: `repro serve` / `repro submit`.

The wire between service and clients is a plain directory — portable,
inspectable, and dependency-free::

    jobdir/
      queue/<id>.json     one request per file (atomic rename writes)
      results/<id>.json   the resolved report (or failure) per request
      metrics.json        the service's live metrics snapshot
      journal.jsonl       the service's write-ahead job journal
      heartbeat.json      the service's liveness heartbeat

Other modules reach these files through :func:`journal_path`,
:func:`heartbeat_path`, :func:`read_result` and :func:`read_metrics`.

A client drops a request with :func:`submit_job` (or ``repro submit``)
and polls :func:`wait_result`; the server side (:func:`serve_jobdir`,
``repro serve``) ingests pending requests into the
:class:`~repro.serve.ExperimentService` it builds, writes results as
jobs resolve, and keeps ``metrics.json`` fresh.  Requests that hit the
service's admission bound stay in ``queue/`` untouched and are retried
on a later scan — the directory itself becomes the overflow buffer, so
backpressure never loses a request.

Duplicate requests (same spec, hence same content-addressed key)
coalesce inside the service: each request still gets its own result
file, all fanned out from the one execution.

A served job directory is **durable** by default: the service
journals every transition to ``jobdir/journal.jsonl`` (schema
``repro.job_journal/1``) and beats ``jobdir/heartbeat.json``.  A
server killed mid-batch picks up exactly where it died on restart —
unresolved journal records are resubmitted (request ids travel in the
journaled ``meta``), already-stored reports resolve as cache hits, and
a resolved record whose result file never landed is replayed so the
file appears.  Requests whose writer died mid-write (truncated JSON)
are skipped while fresh and rejected once stably malformed.  A request
is also malformed when its ``id`` is not its file's stem (the result
file is named after it) or its ``priority`` or ``deadline_s`` fails
:func:`~repro.serve.queue.bad_field`: each gets a failed result file
under its stem, and the server goes on.
"""

from __future__ import annotations

import json
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from ..durable import atomic_write
from ..engine import ExperimentSpec
from .health import read_heartbeat
from .journal import JobJournal
from .metrics import render_service_metrics
from .queue import Job, QueueFull, bad_field
from .service import ExperimentService

__all__ = [
    "JOB_REQUEST_SCHEMA",
    "JOB_RESULT_SCHEMA",
    "SERVICE_METRICS_SCHEMA",
    "heartbeat_path",
    "journal_path",
    "read_metrics",
    "read_result",
    "render_serve_status",
    "submit_job",
    "wait_result",
    "serve_jobdir",
]

#: schema tag of one queued request file
JOB_REQUEST_SCHEMA = "repro.job_request/1"

#: schema tag of one result file
JOB_RESULT_SCHEMA = "repro.job_result/1"

#: schema tag of the metrics.json snapshot
SERVICE_METRICS_SCHEMA = "repro.service_metrics/1"

#: how long a truncated (mid-write) request file is left alone before
#: it is treated as stably malformed and rejected
MALFORMED_GRACE_S = 0.5


def _queue_dir(jobdir: Path) -> Path:
    return jobdir / "queue"


def _results_dir(jobdir: Path) -> Path:
    return jobdir / "results"


def _result_path(jobdir, job_id: str) -> Path:
    return _results_dir(Path(jobdir).expanduser()) / f"{job_id}.json"


def _metrics_path(jobdir) -> Path:
    return Path(jobdir).expanduser() / "metrics.json"


def journal_path(jobdir) -> Path:
    """The write-ahead job journal of a served job directory."""
    return Path(jobdir).expanduser() / "journal.jsonl"


def heartbeat_path(jobdir) -> Path:
    """The liveness heartbeat file of a served job directory."""
    return Path(jobdir).expanduser() / "heartbeat.json"


def _read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None  # absent or mid-write


def read_result(jobdir, job_id: str) -> Optional[dict]:
    """One request's parsed result file; None until it is written."""
    return _read_json(_result_path(jobdir, job_id))


def read_metrics(jobdir) -> Optional[dict]:
    """The server's last ``metrics.json``; None until one is written."""
    return _read_json(_metrics_path(jobdir))


def render_serve_status(jobdir, stale_after_s: float = 30.0):
    """One-shot liveness/metrics report of a served job directory
    (``repro serve --status``).

    Returns ``(text, exit_code)``: code 1 when the directory claims a
    serving process that is stale — its pid is gone, or its last beat
    is older than ``stale_after_s`` — so scripts and monitors can
    alert on ``repro serve --status`` without parsing the text.  A
    directory that never served, or whose service stopped cleanly, is
    not stale (code 0).
    """
    jobdir = Path(jobdir).expanduser()
    lines = [f"service status for {jobdir}:"]
    stale = False
    hb = read_heartbeat(heartbeat_path(jobdir))
    if hb is None:
        lines.append(
            "  heartbeat: none found (service never ran here, or "
            "predates durability)"
        )
    else:
        liveness = "alive" if hb["alive"] else "DEAD"
        if hb.get("status") == "stopped":
            liveness = "stopped cleanly"
        else:
            stale = (not hb["alive"]) or hb["age_s"] > stale_after_s
        if stale:
            liveness += f" (STALE: threshold {stale_after_s:g}s)"
        lines.append(
            f"  heartbeat: {hb.get('status', '?')} — pid {hb.get('pid')} "
            f"{liveness}, last beat {hb['age_s']:.1f}s ago"
        )
        lines.append(
            f"  work: {hb.get('queue_depth', 0)} queued, "
            f"{hb.get('in_flight', 0)} in flight, "
            f"{hb.get('completed', 0)} completed, "
            f"{hb.get('failed', 0)} failed, "
            f"{hb.get('quarantined', 0)} quarantined"
        )
    journal = journal_path(jobdir)
    if journal.exists():
        stats = JobJournal(journal).replay().stats()
        lines.append(
            f"  journal: {stats['records']} record(s), "
            f"{stats['unresolved']} unresolved, "
            f"{stats['quarantined']} quarantined key(s), "
            f"{stats['dropped_lines']} torn line(s)"
        )
    metrics = read_metrics(jobdir)
    if metrics is not None:
        lines.append("")
        lines.append(
            render_service_metrics(
                metrics, title=f"Last metrics snapshot ({jobdir})"
            )
        )
    return "\n".join(lines), (1 if stale else 0)


def submit_job(
    jobdir,
    spec: ExperimentSpec,
    priority: int = 0,
    client: str = "cli",
    job_id: Optional[str] = None,
    deadline_s: Optional[float] = None,
) -> str:
    """Drop one request into a job directory; returns the request id.

    The request file is written atomically into ``jobdir/queue/`` and
    named by submission time so a scanning server dispatches FIFO by
    default (priority still reorders inside the service queue).  A
    given ``job_id`` names the request and result files, so it must be
    a plain file name.  ``deadline_s`` is the queue-time budget the
    server applies once it ingests the request.
    """
    if job_id is None:
        job_id = f"{time.time_ns():020d}-{uuid.uuid4().hex[:8]}"  # wall-clock-ok: request id only, never in results
    elif job_id in ("", ".", "..") or Path(job_id).name != job_id:
        raise ValueError(f"job id {job_id!r} is not a plain file name")
    jobdir = Path(jobdir).expanduser()
    _queue_dir(jobdir).mkdir(parents=True, exist_ok=True)
    _results_dir(jobdir).mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": JOB_REQUEST_SCHEMA,
        "id": job_id,
        "spec": spec.to_dict(),
        "priority": priority,
        "client": client,
    }
    if deadline_s is not None:
        payload["deadline_s"] = float(deadline_s)
    atomic_write(
        _queue_dir(jobdir) / f"{job_id}.json",
        json.dumps(payload, sort_keys=True, indent=2),
    )
    return job_id


def wait_result(
    jobdir,
    job_id: str,
    timeout: float = 60.0,
    poll_s: float = 0.05,
) -> dict:
    """Poll :func:`read_result` for one request; returns its parsed
    result.  Raises :class:`TimeoutError` when none appears in time.
    """
    deadline = time.monotonic() + timeout  # wall-clock-ok: host-side polling only
    while True:
        result = read_result(jobdir, job_id)
        if result is not None:
            return result
        if time.monotonic() >= deadline:  # wall-clock-ok: host-side polling only
            raise TimeoutError(
                f"no result for job {job_id!r} within {timeout}s"
            )
        time.sleep(poll_s)


def _looks_truncated(text: str, exc: ValueError) -> bool:
    """Heuristic: did this JSON decode error happen at end-of-text?

    A writer killed mid-write leaves a prefix of valid JSON, so the
    decoder either runs off the end or finds an unterminated string; a
    structurally malformed (but complete) document errors mid-text
    instead and should be rejected at once.
    """
    pos = getattr(exc, "pos", None)
    if pos is not None and pos >= len(text.rstrip()):
        return True
    return "Unterminated string" in getattr(exc, "msg", "")


def _result_payload(job: Job, request_id: str, coalesced: bool) -> dict:
    error = job.exception(timeout=0)
    report = None if error is not None else job.result(timeout=0)
    return {
        "schema": JOB_RESULT_SCHEMA,
        "id": request_id,
        "status": "failed" if error is not None else "done",
        "error": None if error is None else str(error),
        "cache_hit": job.cache_hit,
        "coalesced": coalesced,
        "wait_s": job.wait_s,
        "run_s": job.run_s,
        "report": None if report is None else report.to_dict(),
    }


def serve_jobdir(
    jobdir,
    cache=None,
    workers: int = 1,
    max_queue: int = 64,
    poll_s: float = 0.1,
    max_seconds: Optional[float] = None,
    once: bool = False,
    log: Optional[Callable[[str], None]] = None,
    durable: bool = True,
    deadline_s: Optional[float] = None,
    batch_timeout_s: Optional[float] = None,
    malformed_grace_s: float = MALFORMED_GRACE_S,
) -> dict:
    """Serve a job directory; returns the final metrics snapshot.

    ``once=True`` ingests every pending request, drains the service,
    flushes all results, and returns — the deterministic mode CI and
    tests use (duplicates visible at ingest time always coalesce).
    Otherwise the server polls ``jobdir/queue`` every ``poll_s``
    seconds until ``max_seconds`` elapses (forever when None), then
    drains gracefully.  ``metrics.json`` is refreshed after every scan
    and on exit.

    The server builds its own service (``cache``, ``workers`` through
    ``batch_timeout_s`` are its settings) and drains it on return.
    With ``durable=True`` the service journals to ``journal.jsonl`` and
    heartbeats ``heartbeat.json``; on startup the journal is replayed
    and every request the previous server accepted but never answered
    is resubmitted and its result file eventually written — the
    kill-and-recover contract of ``repro serve``.
    """
    jobdir = Path(jobdir).expanduser()
    service = ExperimentService(
        cache=cache,
        workers=workers,
        max_queue=max_queue,
        autostart=not once,
        journal=journal_path(jobdir) if durable else None,
        heartbeat=heartbeat_path(jobdir) if durable else None,
        deadline_s=deadline_s,
        batch_timeout_s=batch_timeout_s,
    )
    _queue_dir(jobdir).mkdir(parents=True, exist_ok=True)
    _results_dir(jobdir).mkdir(parents=True, exist_ok=True)
    say = log or (lambda message: None)
    # request id -> (job, coalesced-onto-earlier-request)
    pending: Dict[str, Tuple[Job, bool]] = {}
    seen_jobs: Dict[int, str] = {}

    def register(request_id: str, job: Job) -> None:
        coalesced = job.id in seen_jobs
        seen_jobs.setdefault(job.id, request_id)
        pending[request_id] = (job, coalesced)

    def recover_requests() -> int:
        """Re-route journaled request ids from a dead predecessor."""
        state = service.journal_state
        if state is None:
            return 0
        routed = 0
        # unresolved records were resubmitted by service recovery:
        # every request id journaled onto them still awaits a result
        for rec, job in service.recovered_jobs:
            for meta in rec.metas:
                rid = meta.get("request_id") if isinstance(meta, dict) else None
                if rid and rid not in pending:
                    register(rid, job)
                    routed += 1
        # resolved records whose result file never landed (killed
        # between the journal write and the flush): resubmit — the
        # store turns the replay into an instant cache hit
        for rec in state.in_order():
            if rec.unresolved or rec.spec is None:
                continue
            missing = [
                meta["request_id"]
                for meta in rec.metas
                if isinstance(meta, dict)
                and meta.get("request_id")
                and meta["request_id"] not in pending
                and not _result_path(jobdir, meta["request_id"]).exists()
            ]
            if not missing:
                continue
            spec = ExperimentSpec.from_dict(rec.spec)
            for rid in missing:
                try:
                    job = service.submit(
                        spec,
                        priority=rec.priority,
                        client=rec.client,
                        meta={"request_id": rid},
                    )
                except QueueFull:  # pragma: no cover - empty at startup
                    say(f"queue full; cannot replay request {rid}")
                    break
                register(rid, job)
                routed += 1
        if routed:
            say(f"recovered {routed} pending request(s) from the journal")
        return routed

    def ingest() -> int:
        admitted = 0
        for path in sorted(_queue_dir(jobdir).glob("*.json")):
            try:
                text = path.read_text()
            except OSError as exc:
                say(f"skipping unreadable request {path.name}: {exc}")
                continue
            request_id = path.stem
            try:
                req = json.loads(text)
                spec = ExperimentSpec.from_dict(req["spec"])
                if req.get("id", request_id) != request_id:
                    raise ValueError(
                        f"id {req['id']!r} is not the file's stem"
                    )
                bad = bad_field(req)
                if bad is not None:
                    raise ValueError(bad)
            except (ValueError, KeyError, TypeError) as exc:
                try:
                    age_s = time.time() - path.stat().st_mtime  # wall-clock-ok: mtime freshness of a host-side file
                except OSError:
                    age_s = float("inf")
                if (
                    isinstance(exc, ValueError)
                    and _looks_truncated(text, exc)
                    and age_s < malformed_grace_s
                ):
                    # a writer is (or just was) mid-write: leave the
                    # file for a later scan instead of rejecting a
                    # request that is still being spooled
                    say(f"skipping partial request {path.name} (mid-write)")
                    continue
                say(f"rejecting malformed request {path.name}: {exc}")
                rejected = {
                    "schema": JOB_RESULT_SCHEMA,
                    "id": request_id,
                    "status": "failed",
                    "error": f"malformed request: {exc}",
                    "cache_hit": False,
                    "coalesced": False,
                    "report": None,
                }
                atomic_write(
                    _result_path(jobdir, request_id),
                    json.dumps(rejected, sort_keys=True, indent=2),
                )
                path.unlink(missing_ok=True)
                continue
            try:
                job = service.submit(
                    spec,
                    priority=req.get("priority", 0),
                    client=str(req.get("client", "cli")),
                    deadline_s=req.get("deadline_s"),
                    meta={"request_id": request_id},
                )
            except QueueFull:
                # leave the file in place: the directory buffers the
                # overflow and a later scan retries after the drain
                say(f"queue full; deferring {path.name}")
                break
            register(request_id, job)
            path.unlink(missing_ok=True)
            admitted += 1
        return admitted

    def flush() -> int:
        written = 0
        for request_id in [r for r, (j, _) in pending.items() if j.done()]:
            job, coalesced = pending.pop(request_id)
            result = _result_payload(job, request_id, coalesced)
            atomic_write(
                _result_path(jobdir, request_id),
                json.dumps(result, sort_keys=True, indent=2),
            )
            written += 1
        return written

    def write_metrics() -> dict:
        snap = service.metrics_snapshot()
        doc = {"schema": SERVICE_METRICS_SCHEMA, **snap}
        atomic_write(
            _metrics_path(jobdir), json.dumps(doc, sort_keys=True, indent=2)
        )
        return snap

    def refresh_store() -> None:
        # fold in store entries other processes appended (a fleet
        # router bundle-syncing a stolen result, an operator's `repro
        # cache import`) so the next admission sees them as cache
        # hits; one empty read per scan when nothing changed
        if service.cache is not None:
            service.cache.refresh()

    try:
        recover_requests()
        if once:
            while True:
                refresh_store()
                admitted = ingest()
                service.start()
                service.drain()
                flush()
                if admitted == 0 and not pending:
                    break
            return write_metrics()
        start = time.monotonic()  # wall-clock-ok: host-side serving loop only
        while True:
            refresh_store()
            ingest()
            flush()
            write_metrics()
            if (
                max_seconds is not None
                and time.monotonic() - start >= max_seconds  # wall-clock-ok: host-side serving loop only
            ):
                break
            time.sleep(poll_s)
        service.drain()
        flush()
        return write_metrics()
    finally:
        service.shutdown(drain=True)
