"""The tiered result store: LRU tier 0 over an indexed disk tier 1.

:class:`ResultCache` keeps the exact interface PR 4 introduced —
``get``/``put``/``stats``/``prune``/``verify`` keyed by
content-addressed spec hashes — so the engine, the autotuner, the
experiment service, and :class:`~repro.api.Session` adopt the tiers
without semantic change, while the hot paths stop touching the
filesystem:

* **tier 0** — a bounded in-memory LRU of parsed report payloads
  (:mod:`repro.store.lru`): a warm hit is one dict lookup, no file
  open, no ``json.loads``;
* **tier 1** — the sharded blob directory, fronted by an append-only
  columnar index (:mod:`repro.store.index`): existence probes,
  ``stats()``, prune-victim selection, and ``repro query`` are served
  from memory; blobs are opened only to materialize a report the LRU
  does not hold.

Cached reports remain bit-identical through every tier: the LRU holds
the JSON-normalized payload the blob write produced, so a hit served
from memory equals one served from disk byte for byte.

On top of the index the store grows management surface the flat
directory could not support at scale: eviction policies
(``prune(policy="age"|"size"|"hit-rate")``), portable
``export_bundle``/``import_bundle`` exchange files for fleet shards,
and index-only ``query``/``aggregate`` used by ``repro query``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterator, Optional

from ..durable import atomic_write
from ..engine import ExperimentSpec, RunReport
from .index import ColumnarIndex, entry_columns
from .keys import cache_key, code_salt
from .lru import ReportLRU

__all__ = [
    "BUNDLE_SCHEMA",
    "CACHE_ENTRY_SCHEMA",
    "PRUNE_POLICIES",
    "ResultCache",
    "render_cache_stats",
]

#: schema tag of one stored cache entry (bump on breaking change)
CACHE_ENTRY_SCHEMA = "repro.cache_entry/1"

#: schema tag of an export/import bundle file
BUNDLE_SCHEMA = "repro.cache_bundle/1"

#: prune victim orderings (first victim evicted first)
PRUNE_POLICIES = ("age", "size", "hit-rate")


class ResultCache:
    """Content-addressed store of run reports under one directory.

    Entries live at ``root/<key[:2]>/<key>.json`` (sharded by the
    leading key byte so huge stores do not pile one directory high);
    blob writes are atomic (:func:`repro.durable.atomic_write`) and
    index appends are single whole-line ``O_APPEND`` writes, so
    concurrent writers and crashed runs never leave a torn entry or a
    corrupt index line behind.  Session counters — ``hits``,
    ``misses``, ``bytes_read``, ``bytes_written``, per-tier
    ``lru_hits``/``disk_hits``/``blob_loads`` — feed the
    :class:`~repro.instrument.MetricsHub` cache section and the CLI
    tables.

    ``lru_entries`` bounds tier 0 (0 disables it); pass
    ``lru_entries=0`` to benchmark or exercise the disk tier alone.
    """

    def __init__(self, root, salt: Optional[str] = None,
                 lru_entries: int = 128):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.salt = code_salt() if salt is None else salt
        self.hits = 0
        self.misses = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: tier counters: hits answered from memory vs disk, and how
        #: many blob files were opened for any reason (query/export
        #: included) — the "index-only" assertions watch this one
        self.lru_hits = 0
        self.disk_hits = 0
        self.blob_loads = 0
        self._lru = ReportLRU(capacity=lru_entries)
        self._index = ColumnarIndex(self.root)
        #: per-key session hit counts (feeds the hit-rate prune policy)
        self._hit_counts: dict = {}
        if self._index.stale or (
            len(self._index) == 0 and self._has_blobs()
        ):
            # foreign-layout index, or a pre-index store being adopted:
            # derive the index from the blob tree once, then never walk
            # the tree again on the hot paths
            self.rebuild_index()

    # -- keys and paths -----------------------------------------------------
    def key_for(self, spec) -> str:
        """The content-addressed key of one spec under this cache's salt."""
        return cache_key(spec, salt=self.salt)

    def path_for(self, key: str) -> Path:
        """Where an entry with ``key`` is (or would be) stored."""
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        """Whether an entry with ``key`` is stored (as of the last load
        or :meth:`refresh`); counts no hit or miss."""
        return key in self._index

    def _entry_paths(self) -> Iterator[Path]:
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                yield from sorted(shard.glob("*.json"))

    def _has_blobs(self) -> bool:
        for shard in self.root.iterdir():
            if shard.is_dir() and len(shard.name) == 2:
                try:
                    next(shard.glob("*.json"))
                    return True
                except StopIteration:
                    continue
        return False

    # -- store / load -------------------------------------------------------
    def _load_entry(self, key: str) -> Optional[dict]:
        """Parse one blob into its entry dict (counts the blob open);
        None when absent/corrupt."""
        self.blob_loads += 1
        try:
            raw = self.path_for(key).read_bytes()
            entry = json.loads(raw)
            entry["_raw_len"] = len(raw)
            return entry
        except (OSError, ValueError):
            return None

    def get(self, spec) -> Optional[RunReport]:
        """The memoized report of ``spec``, or None (counts hit/miss).

        Resolution order: LRU payload (no filesystem traffic) ->
        index membership (an absent key misses without a disk probe)
        -> blob load (parsed payload promoted into the LRU).
        """
        key = self.key_for(spec)
        payload = self._lru.get(key)
        if payload is not None:
            self.hits += 1
            self.lru_hits += 1
            self._hit_counts[key] = self._hit_counts.get(key, 0) + 1
            return RunReport.from_dict(payload)
        if key not in self._index:
            self.misses += 1
            return None
        entry = self._load_entry(key)
        report = None
        if entry is not None:
            try:
                report = RunReport.from_dict(entry["report"])
            except (ValueError, KeyError, TypeError):
                report = None
        if report is None:
            # indexed but unreadable (deleted or corrupted behind our
            # back): drop the dead row from memory and miss; verify()
            # repairs the persisted index
            self._index.rows.pop(key, None)
            self.misses += 1
            return None
        self.hits += 1
        self.disk_hits += 1
        self.bytes_read += entry["_raw_len"]
        self._hit_counts[key] = self._hit_counts.get(key, 0) + 1
        self._lru.put(key, entry["report"])
        return report

    def put(self, spec, report: RunReport) -> str:
        """Store one report under its spec's key; returns the key.

        Writes the blob atomically, appends the index row, and primes
        the LRU with the JSON-normalized payload so the very next
        probe is a tier-0 hit.
        """
        key = self.key_for(spec)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_ENTRY_SCHEMA,
            "key": key,
            "salt": self.salt,
            "spec": spec.to_dict() if isinstance(spec, ExperimentSpec) else spec,
            "report": report.to_dict(),
        }
        raw = json.dumps(entry, sort_keys=True).encode("utf-8")
        atomic_write(path, raw)
        self.bytes_written += len(raw)
        mtime = time.time()  # wall-clock-ok: store mtime metadata only
        self._index.record_put(
            key, entry_columns(entry, size=len(raw), mtime=mtime)
        )
        # round-trip through the serialized bytes so the LRU payload
        # carries the exact JSON normalization a disk hit would
        self._lru.put(key, json.loads(raw)["report"])
        return key

    def refresh(self) -> int:
        """Fold in index rows appended by other processes since this
        cache was opened; returns the number of newly visible entries.
        Probes in between see the store as of the last load — a
        concurrent writer's fresh entry misses (and is harmlessly
        recomputed) until refreshed."""
        return self._index.refresh()

    # -- management ---------------------------------------------------------
    def stats(self) -> dict:
        """Store size plus this session's hit/miss/byte counters.

        Served entirely from the index's O(1) counters and the session
        tallies — no directory walk, no ``stat`` storm, regardless of
        store size.
        """
        idx = self._index.stats()
        lru = self._lru.stats()
        return {
            "root": str(self.root),
            "entries": idx["entries"],
            "stored_bytes": idx["stored_bytes"],
            "hits": self.hits,
            "misses": self.misses,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "lru_hits": self.lru_hits,
            "disk_hits": self.disk_hits,
            "blob_loads": self.blob_loads,
            "lru_entries": lru["entries"],
            "lru_capacity": lru["capacity"],
            "lru_evictions": lru["evictions"],
            "index_dead_lines": idx["dead_lines"],
        }

    def _victims(self, policy: str) -> list:
        """(key, row) pairs in eviction order under one policy."""
        if policy not in PRUNE_POLICIES:
            raise ValueError(
                f"unknown prune policy {policy!r} "
                f"(available: {', '.join(PRUNE_POLICIES)})"
            )
        rows = list(self._index.rows.items())
        if policy == "age":
            # oldest first; key as tie-break keeps eviction deterministic
            rows.sort(key=lambda kv: (kv[1].get("mtime", 0.0), kv[0]))
        elif policy == "size":
            rows.sort(
                key=lambda kv: (
                    -kv[1].get("size", 0),
                    kv[1].get("mtime", 0.0),
                    kv[0],
                )
            )
        else:  # hit-rate: coldest (fewest session hits) first
            rows.sort(
                key=lambda kv: (
                    self._hit_counts.get(kv[0], 0),
                    kv[1].get("mtime", 0.0),
                    kv[0],
                )
            )
        return rows

    def prune(
        self,
        max_bytes: Optional[int] = None,
        policy: str = "age",
        max_age_s: Optional[float] = None,
    ) -> dict:
        """Evict entries until the store fits the given bounds.

        ``policy`` orders the victims: ``"age"`` (oldest first, the
        default and the pre-tier behaviour), ``"size"`` (largest
        first), or ``"hit-rate"`` (fewest session hits first, oldest
        as tie-break).  ``max_age_s`` first drops everything whose
        index mtime is older than that many seconds, regardless of
        budget.  ``max_bytes=None`` with no ``max_age_s`` (or 0)
        empties the store outright — an explicit clear, never a
        byte-budget underflow.  A negative budget is a caller bug and
        raises ``ValueError``.  Eviction streams from the index
        (victim selection never walks the blob tree) and keeps
        blobs, index, and LRU consistent.  Returns ``{"removed": n,
        "freed_bytes": b, "kept": m, "policy": p}``.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(
                f"max_bytes cannot be negative (got {max_bytes}); "
                "use max_bytes=0 (or None) to clear the store"
            )
        victims = self._victims(policy)
        total = len(victims)
        removed = 0
        freed = 0
        if max_age_s is not None:
            now = time.time()  # wall-clock-ok: store mtime metadata only
            cutoff = now - max_age_s
            for key, row in [
                kv for kv in victims if kv[1].get("mtime", 0.0) < cutoff
            ]:
                freed += row.get("size", 0)
                removed += 1
                self._evict(key)
            victims = self._victims(policy)
        if max_age_s is None or max_bytes is not None:
            budget = 0 if not max_bytes else int(max_bytes)
            for key, row in victims:
                if self._index.stored_bytes <= budget:
                    break
                freed += row.get("size", 0)
                removed += 1
                self._evict(key)
        self._index.compact()
        return {
            "removed": removed,
            "freed_bytes": freed,
            "kept": total - removed,
            "policy": policy,
        }

    def _evict(self, key: str) -> None:
        """Remove one entry from every tier (blob, index, LRU)."""
        try:
            self.path_for(key).unlink()
        except OSError:
            pass
        self._index.record_del(key)
        self._lru.discard(key)
        self._hit_counts.pop(key, None)

    def rebuild_index(self) -> int:
        """Derive the index from the blob tree (the source of truth)
        and rewrite it atomically; returns the number of indexed
        entries.  Unparseable blobs are skipped here — ``verify``
        reports and repairs those."""
        rows = {}
        for path in self._entry_paths():
            try:
                raw = path.read_bytes()
                entry = json.loads(raw)
            except (OSError, ValueError):
                continue
            st = path.stat()
            rows[path.stem] = entry_columns(
                entry, size=len(raw), mtime=st.st_mtime
            )
        self._index.rebuild(rows)
        return len(rows)

    def verify(self, repair: bool = False) -> dict:
        """Audit every entry *and* the index over the blob tree.

        An entry is *corrupt* when it fails to parse (or lacks the
        entry schema) and *mismatched* when its stored spec no longer
        hashes to its filename under this cache's salt (edited file, or
        a store written by a different code version).  The index is
        flagged stale when it disagrees with the blob tree: rows for
        missing blobs, blobs it never saw (a writer crashed between
        blob write and index append), dropped/torn lines, or a foreign
        header.  Orphaned ``*.tmp`` blob files (a writer killed between
        temp write and rename) are reported as ``tmp_orphans``.
        ``repair=True`` deletes bad blobs *and* the tmp orphans, then
        rebuilds the index from the survivors.  Returns ``{"ok": n,
        "corrupt": [...], "mismatched": [...], "tmp_orphans": [...],
        "removed": n, "index": {...}}``.
        """
        ok = 0
        corrupt = []
        mismatched = []
        blob_keys = set()
        tmp_orphans = [
            str(p)
            for shard in sorted(self.root.iterdir())
            if shard.is_dir() and len(shard.name) == 2
            for p in sorted(shard.glob("*.tmp"))
        ]
        for path in self._entry_paths():
            blob_keys.add(path.stem)
            try:
                entry = json.loads(path.read_bytes())
                if entry.get("schema") != CACHE_ENTRY_SCHEMA:
                    raise ValueError("bad entry schema")
                RunReport.from_dict(entry["report"])
            except (OSError, ValueError, KeyError, TypeError):
                corrupt.append(str(path))
                continue
            if cache_key(entry.get("spec", {}), salt=self.salt) != path.stem:
                mismatched.append(str(path))
                continue
            ok += 1
        index_keys = set(self._index.rows)
        index_report = {
            "unindexed_blobs": sorted(blob_keys - index_keys),
            "dangling_rows": sorted(index_keys - blob_keys),
            "dropped_lines": self._index.dropped_lines,
            "stale": bool(
                self._index.stale
                or self._index.dropped_lines
                or blob_keys != index_keys
            ),
            "rebuilt": False,
        }
        removed = 0
        if repair:
            for name in corrupt + mismatched + tmp_orphans:
                Path(name).unlink(missing_ok=True)
                removed += 1
            self._lru.clear()
            self.rebuild_index()
            index_report["rebuilt"] = True
        return {
            "ok": ok,
            "corrupt": corrupt,
            "mismatched": mismatched,
            "tmp_orphans": tmp_orphans,
            "removed": removed,
            "index": index_report,
        }

    # -- export / import -----------------------------------------------------
    def export_bundle(self, path, where=None) -> dict:
        """Write selected entries into one portable bundle file.

        ``where`` filters on index columns (see
        :func:`repro.store.query.parse_predicates`); None exports the
        whole store.  The bundle carries the full entry payloads, so
        an import round trip is bit-identical.  The file appears
        atomically and durably (``atomic_write(durable=True)``) — a
        reader never sees a half bundle and a crash right after return
        cannot lose it.  Returns
        ``{"exported": n, "bytes": b, "path": p}``.
        """
        from .query import matches, parse_predicates

        preds = parse_predicates(where)
        entries = []
        for key, row in self._index.iter_rows():
            if preds and not matches(row, key, preds):
                continue
            entry = self._load_entry(key)
            if entry is None:
                continue
            entry.pop("_raw_len", None)
            entries.append(entry)
        bundle = {
            "schema": BUNDLE_SCHEMA,
            "salt": self.salt,
            "entries": entries,
        }
        raw = json.dumps(bundle, sort_keys=True).encode("utf-8")
        out = Path(path).expanduser()
        out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(out, raw, durable=True)
        return {"exported": len(entries), "bytes": len(raw), "path": str(out)}

    def import_bundle(self, path) -> dict:
        """Fold a bundle's entries into this store.

        Entries already present coalesce (content-addressed keys make
        duplicates detectable without reading the existing blob);
        entries exported under a *different* salt are skipped — their
        keys could never be derived by this cache, so importing them
        would only create unreachable blobs.  Returns ``{"imported":
        n, "coalesced": n, "skipped_salt": n}``.
        """
        doc = json.loads(Path(path).expanduser().read_bytes())
        if doc.get("schema") != BUNDLE_SCHEMA:
            raise ValueError(
                f"not a {BUNDLE_SCHEMA} document "
                f"(schema={doc.get('schema')!r})"
            )
        imported = coalesced = skipped = 0
        for entry in doc.get("entries", []):
            key = entry.get("key")
            if not key or entry.get("salt") != self.salt:
                skipped += 1
                continue
            if key in self._index:
                coalesced += 1
                continue
            raw = json.dumps(entry, sort_keys=True).encode("utf-8")
            blob = self.path_for(key)
            blob.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(blob, raw)
            self.bytes_written += len(raw)
            mtime = time.time()  # wall-clock-ok: store mtime metadata only
            self._index.record_put(
                key, entry_columns(entry, size=len(raw), mtime=mtime)
            )
            imported += 1
        return {
            "imported": imported,
            "coalesced": coalesced,
            "skipped_salt": skipped,
        }

    # -- query ---------------------------------------------------------------
    def query(self, where=None, fields=None, limit: Optional[int] = None):
        """Filter stored runs from the index alone; see
        :func:`repro.store.query.run_query`."""
        from .query import run_query

        return run_query(self, where=where, fields=fields, limit=limit)

    def aggregate(
        self, field: str, where=None, group_by: Optional[str] = None
    ) -> dict:
        """Aggregate one column over the filtered runs, optionally
        split per distinct value of another column; see
        :func:`repro.store.query.run_aggregate`."""
        from .query import run_aggregate

        return run_aggregate(self, field, where=where, group_by=group_by)


def render_cache_stats(stats: dict, title: str = "Result cache") -> str:
    """Human-readable table of one :meth:`ResultCache.stats` dict: the
    store's size plus the session's tier counters."""
    from ..bench.tables import render_table

    rows = [
        ("store", stats.get("root", "-")),
        ("entries", str(stats.get("entries", 0))),
        ("stored bytes", f"{stats.get('stored_bytes', 0):,}"),
        ("hits (memory / disk)",
         f"{stats.get('hits', 0)} ({stats.get('lru_hits', 0)} / "
         f"{stats.get('disk_hits', 0)})"),
        ("misses", str(stats.get("misses", 0))),
        ("LRU tier (held / capacity)",
         f"{stats.get('lru_entries', 0)} / {stats.get('lru_capacity', 0)}"),
        ("bytes read", f"{stats.get('bytes_read', 0):,}"),
        ("bytes written", f"{stats.get('bytes_written', 0):,}"),
    ]
    return render_table(["Metric", "Value"], rows, title=title)
