"""Tier-1 metadata: a compact append-only columnar index of the store.

The sharded blob directory scales to millions of entries, but walking
it to answer "how many entries, how big, which are oldest" is O(tree)
per question.  The index keeps one JSON line per mutation in
``index.jsonl`` at the store root — a ``put`` line carrying the
*columns* of the entry (selected spec fields, headline metrics, blob
size, mtime, schema tag) or a ``del`` line — and is replayed once into
an in-memory key -> row table with O(1) aggregate counters, so
existence probes, ``stats()``, prune-victim selection, and ``repro
query`` never touch the blob tree.

Crash and concurrency discipline:

* the file is a :class:`~repro.durable.JsonLinesLog`, the job journal's
  format: appends are a single ``write(2)`` on an ``O_APPEND``
  descriptor, so two processes putting concurrently interleave whole
  lines, never torn ones; a half-written final line (power loss
  mid-append) is dropped on replay instead of poisoning the load;
* replay is last-write-wins per key, so two processes racing the same
  key converge on one row (the blobs are content-addressed — both
  wrote the same payload);
* the index is *derived* state: it can always be rebuilt from the
  blobs (``ResultCache.verify(repair=True)``, ``repro cache verify
  --repair``), which is also how a pre-index store is adopted;
* compaction (durably rewriting dead lines away) happens only inside
  management operations — prune, rebuild, repair — never on the read
  or put path, so it cannot race a concurrent writer's appends.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator

from ..durable import JsonLinesLog, LogRead

__all__ = [
    "INDEX_SCHEMA",
    "INDEX_COLUMNS",
    "ColumnarIndex",
    "entry_columns",
]

#: schema tag of the index file (bump on breaking layout change)
INDEX_SCHEMA = "repro.cache_index/1"

#: the spec/metric columns one put line carries (beyond key/size/mtime);
#: everything here is answerable from the index alone, without a blob
INDEX_COLUMNS = (
    "app",
    "mode",
    "preset",
    "steps",
    "nodes_per_solver",
    "seed",
    "total_runtime",
    "fields_time",
    "particles_time",
    "comm_overhead_fraction",
    "network_bytes",
    "sim_events",
)


def entry_columns(entry: dict, size: int, mtime: float) -> dict:
    """The index row of one stored cache entry dict.

    Pulls the selected spec fields and headline metrics out of the
    entry payload; tolerant of absent sections (foreign or minimal
    entries index as null columns rather than failing the put).
    """
    spec = entry.get("spec") or {}
    report = entry.get("report") or {}
    result = report.get("result") or {}
    row = {
        "app": spec.get("app"),
        "mode": result.get("mode", spec.get("mode")),
        "preset": spec.get("preset"),
        "steps": result.get("steps", spec.get("steps")),
        "nodes_per_solver": result.get(
            "nodes_per_solver", spec.get("nodes_per_solver")
        ),
        "seed": spec.get("seed"),
        "total_runtime": result.get("total_runtime"),
        "fields_time": result.get("fields_time"),
        "particles_time": result.get("particles_time"),
        "comm_overhead_fraction": result.get("comm_overhead_fraction"),
        "network_bytes": (report.get("network") or {}).get("total_bytes"),
        "sim_events": (report.get("sim") or {}).get("events_processed"),
        "schema": entry.get("schema"),
        "size": int(size),
        "mtime": float(mtime),
    }
    return row


class ColumnarIndex:
    """Replayed view of ``index.jsonl``: key -> columns, O(1) counters.

    ``rows`` maps each live cache key to its column dict (including
    ``size``/``mtime``/``schema``); ``stored_bytes`` and ``len()`` are
    maintained incrementally so aggregate questions never rescan
    anything.  ``stale`` reports whether the file carried a foreign
    schema header — the caller's cue to rebuild from the blob tree.
    The index is salt-neutral: it records *which blobs exist*; salting
    happens in key derivation, so caches opened under different code
    versions share one index the way they share one blob tree.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.path = self.root / "index.jsonl"
        self._log = JsonLinesLog(self.path, INDEX_SCHEMA)
        self.rows: Dict[str, dict] = {}
        self.stored_bytes = 0
        self.stale = False
        #: put/del lines replayed beyond the live rows (compaction cue)
        self.dead_lines = 0
        #: malformed/torn lines dropped during replay
        self.dropped_lines = 0
        self._offset = 0
        self.load()

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, key: str) -> bool:
        return key in self.rows

    # -- replay --------------------------------------------------------------
    def load(self) -> None:
        """Replay the whole index file into memory (last write wins)."""
        self.rows = {}
        self.stored_bytes = 0
        self.dead_lines = 0
        self.dropped_lines = 0
        got = self._log.read()
        self._offset = got.end
        # an index written under another layout: unusable as-is,
        # rebuildable from the blobs
        self.stale = got.foreign
        self._fold(got)

    def refresh(self) -> int:
        """Replay lines appended since the last load; returns how many
        new live rows appeared.  A shrunken file (compacted by another
        process) triggers a full reload."""
        got = self._log.read(self._offset)
        before = len(self.rows)
        if got.end < self._offset:
            self.load()
        else:
            self._offset = got.end
            self._fold(got)
        return max(0, len(self.rows) - before)

    def _fold(self, got: LogRead) -> None:
        self.dropped_lines += got.dropped
        for rec in got.records:
            op = rec["op"]
            key = rec.get("key")
            if not key:
                self.dropped_lines += 1
                continue
            if op == "put":
                old = self.rows.get(key)
                if old is not None:
                    self.stored_bytes -= old.get("size", 0)
                    self.dead_lines += 1
                row = {k: v for k, v in rec.items() if k not in ("op", "key")}
                self.rows[key] = row
                self.stored_bytes += row.get("size", 0)
            elif op == "del":
                old = self.rows.pop(key, None)
                self.dead_lines += 1
                if old is not None:
                    self.stored_bytes -= old.get("size", 0)
            else:
                self.dropped_lines += 1

    # -- mutation ------------------------------------------------------------
    def record_put(self, key: str, columns: dict) -> None:
        """Append one put line and fold it into the live table."""
        old = self.rows.get(key)
        if old is not None:
            self.stored_bytes -= old.get("size", 0)
            self.dead_lines += 1
        self.rows[key] = dict(columns)
        self.stored_bytes += columns.get("size", 0)
        self._append({"op": "put", "key": key, **columns})

    def record_del(self, key: str) -> None:
        """Append one del line and drop the live row."""
        old = self.rows.pop(key, None)
        if old is not None:
            self.stored_bytes -= old.get("size", 0)
        self.dead_lines += 1
        self._append({"op": "del", "key": key})

    def _append(self, rec: dict) -> None:
        """Append one line; move the read offset past it only when it
        landed right at the offset.  Otherwise lines other processes
        appended since the last :meth:`refresh` sit before it, and the
        next refresh folds theirs and this one again, in file order
        (rows and ``stored_bytes`` stay exact; the own line re-folded
        counts as one more dead line)."""
        start, end = self._log.append(rec)
        if start == self._offset:
            self._offset = end

    # -- maintenance ---------------------------------------------------------
    def rebuild(self, rows: Dict[str, dict]) -> None:
        """Replace the index wholesale (atomic rewrite) from a freshly
        derived key -> columns table — the blob tree is the source of
        truth here."""
        self.rows = {k: dict(v) for k, v in rows.items()}
        self.stored_bytes = sum(r.get("size", 0) for r in self.rows.values())
        self.stale = False
        self.compact()

    def compact(self) -> None:
        """Rewrite the file with only the live rows (drops dead lines).

        Management-path only: must not race concurrent appenders (a
        writer appending to the replaced file would lose its line).
        """
        self._offset = self._log.rewrite(
            {"op": "put", "key": key, **self.rows[key]}
            for key in sorted(self.rows)
        )
        self.dead_lines = 0
        self.dropped_lines = 0

    # -- queries over rows ---------------------------------------------------
    def iter_rows(self) -> Iterator[tuple]:
        """(key, columns) pairs of every live entry, key-sorted for
        deterministic iteration."""
        for key in sorted(self.rows):
            yield key, self.rows[key]

    def stats(self) -> dict:
        """O(1) index counters (no filesystem traffic)."""
        return {
            "entries": len(self.rows),
            "stored_bytes": self.stored_bytes,
            "dead_lines": self.dead_lines,
            "dropped_lines": self.dropped_lines,
            "stale": self.stale,
        }
