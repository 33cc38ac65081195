"""Liveness heartbeat for the experiment service.

A service that journals durably can still *hang* — a stuck batch, a
wedged pool — and a supervisor (or a human with ``repro serve
--status``) needs a cheap way to tell "alive and making progress"
from "process exists but stalled" from "dead".  The heartbeat is a
single JSON document rewritten atomically every interval with the
service pid, a wall-clock stamp, and a small counter digest; readers
judge staleness by file age and aliveness by signalling pid 0.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

from ..durable import atomic_write

__all__ = ["HEARTBEAT_SCHEMA", "write_heartbeat", "read_heartbeat"]

#: schema tag of the heartbeat document
HEARTBEAT_SCHEMA = "repro.heartbeat/1"


def write_heartbeat(path, status: str, snapshot: Optional[dict] = None) -> None:
    """Atomically (re)write the heartbeat file.

    ``status`` is one of ``"serving"`` / ``"draining"`` / ``"stopped"``;
    ``snapshot`` is a small counter digest (queue depth, in-flight,
    completed...) folded into the document for ``--status`` display.
    """
    path = Path(path).expanduser()
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": HEARTBEAT_SCHEMA,
        "pid": os.getpid(),
        "time_s": time.time(),  # wall-clock-ok: liveness stamp, compared against reader wall time
        "status": status,
    }
    if snapshot:
        doc.update(snapshot)
    atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        # exists but owned by someone else — still alive
        return True
    except OSError:
        return False
    return True


def read_heartbeat(path) -> Optional[dict]:
    """Read and annotate a heartbeat file; ``None`` if absent/unreadable.

    Adds ``age_s`` (seconds since the writer's last beat) and ``alive``
    (whether the recorded pid still exists).  A missing or foreign-schema
    file reads as ``None`` — the caller reports "no heartbeat".
    """
    path = Path(path).expanduser()
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != HEARTBEAT_SCHEMA:
        return None
    doc["age_s"] = max(0.0, time.time() - float(doc.get("time_s", 0.0)))  # wall-clock-ok: staleness vs real time by design
    pid = doc.get("pid")
    doc["alive"] = bool(pid) and _pid_alive(int(pid))
    return doc
