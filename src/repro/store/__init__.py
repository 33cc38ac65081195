"""repro.store — the tiered, content-addressed experiment result store.

The DEEP-ER argument for a storage *hierarchy* (fast cache layer over
the scalable parallel store) applied to experiment reuse: every layer
built on :class:`~repro.engine.Engine` — autotune evaluations,
service-side coalescing and cache-hit resolution at submit time,
pooled sweeps — bottoms out in this store, so its hot paths must not
touch the filesystem.

* :mod:`repro.store.keys`   — canonical spec hashing (salted, memoized)
* :mod:`repro.store.lru`    — tier 0: bounded in-memory LRU of payloads
* :mod:`repro.store.index`  — tier 1 metadata: append-only columnar index
* :mod:`repro.store.tiered` — :class:`ResultCache`, the store itself
* :mod:`repro.store.query`  — index-only filter/aggregate (``repro query``)

:class:`ResultCache` keeps the exact PR-4 interface, so
``Engine.run(cache=...)``, ``Session(cache=...)``, the autotuner, and
the experiment service adopt the tiers without change::

    from repro.store import ResultCache

    cache = ResultCache("~/.cache/repro")
    Session(cache=cache).run(mode="cb", steps=100)
    cache.query(where=["mode=C+B", "nodes_per_solver=8"])
    cache.aggregate("total_runtime", where="mode=C+B")
"""

from .._lazy import lazy_exports

# each name loads its module on first use: the serving path needs the
# keys and the tiers, only a query (``repro query``,
# ``ResultCache.query``) the query engine
lazy_exports(__name__, {
    ".index": [
        "INDEX_COLUMNS", "INDEX_SCHEMA", "ColumnarIndex", "entry_columns",
    ],
    ".keys": ["cache_key", "canonical_spec_json", "code_salt"],
    ".lru": ["ReportLRU"],
    ".query": ["parse_predicates", "percentile", "run_aggregate", "run_query"],
    ".tiered": [
        "BUNDLE_SCHEMA", "CACHE_ENTRY_SCHEMA", "PRUNE_POLICIES", "ResultCache",
    ],
})

__all__ = [
    "BUNDLE_SCHEMA",
    "CACHE_ENTRY_SCHEMA",
    "INDEX_COLUMNS",
    "INDEX_SCHEMA",
    "PRUNE_POLICIES",
    "ColumnarIndex",
    "ReportLRU",
    "ResultCache",
    "cache_key",
    "canonical_spec_json",
    "code_salt",
    "entry_columns",
    "parse_predicates",
    "percentile",
    "run_aggregate",
    "run_query",
]
