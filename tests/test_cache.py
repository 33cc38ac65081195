"""Tests for the content-addressed experiment result cache."""

import concurrent.futures
import json

import pytest

from repro.engine import Engine, ExperimentSpec
from repro.store import (
    CACHE_ENTRY_SCHEMA,
    ResultCache,
    cache_key,
    canonical_spec_json,
    code_salt,
)


PLAN = {
    "schema": "repro.fault_plan/1",
    "seed": 1,
    "mtbf_s": None,
    "events": [
        {"time_s": 1.0, "kind": "node_crash", "target": "bn00"},
    ],
}


def _reordered(d: dict) -> dict:
    """The same mapping with reversed key insertion order (recursively)."""
    out = {}
    for k in reversed(list(d)):
        v = d[k]
        if isinstance(v, dict):
            v = _reordered(v)
        elif isinstance(v, list):
            v = [_reordered(x) if isinstance(x, dict) else x for x in v]
        out[k] = v
    return out


# -- canonicalization determinism (the cache-key contract) -----------------

def test_spec_key_invariant_under_kwarg_and_dict_order():
    a = ExperimentSpec(
        mode="cb",
        steps=7,
        preset="deep-er",
        machine_overrides={"cluster_nodes": 2, "booster_nodes": 2},
        fault_plan=dict(PLAN),
    )
    b = ExperimentSpec(
        fault_plan=_reordered(PLAN),
        machine_overrides={"booster_nodes": 2, "cluster_nodes": 2},
        preset="deep-er",
        steps=7,
        mode="cb",
    )
    assert canonical_spec_json(a) == canonical_spec_json(b)
    assert cache_key(a) == cache_key(b)


def test_spec_key_sensitive_to_fault_plan_and_preset():
    base = ExperimentSpec(mode="cb", steps=7)
    with_plan = ExperimentSpec(mode="cb", steps=7, fault_plan=dict(PLAN))
    other_preset = ExperimentSpec(mode="cb", steps=7, preset="jureca")
    keys = {cache_key(base), cache_key(with_plan), cache_key(other_preset)}
    assert len(keys) == 3

    two_events = dict(PLAN)
    two_events["events"] = PLAN["events"] + [
        {"time_s": 2.0, "kind": "node_crash", "target": "bn01"}
    ]
    assert cache_key(
        ExperimentSpec(mode="cb", steps=7, fault_plan=two_events)
    ) != cache_key(with_plan)


def test_key_includes_code_version_salt(tmp_path):
    spec = ExperimentSpec(mode="cb", steps=7)
    assert cache_key(spec) != cache_key(spec, salt="other-release")
    # a store written by another code version never resurfaces results
    old = ResultCache(tmp_path, salt="other-release")
    new = ResultCache(tmp_path)
    assert new.salt == code_salt()
    assert old.key_for(spec) != new.key_for(spec)


def test_default_salt_is_derived_once(monkeypatch):
    """A key without a salt takes the one derived at import, not a
    ``code_salt()`` call per key."""
    spec = ExperimentSpec(mode="cb", steps=7)
    key = cache_key(spec, salt=code_salt())

    def per_key_salt():
        raise AssertionError("code_salt() called for a key")

    monkeypatch.setattr("repro.store.keys.code_salt", per_key_salt)
    assert cache_key(spec) == key
    assert cache_key(spec.to_dict()) == key  # unmemoized: hashed afresh


@pytest.mark.parametrize(
    "fields,key",
    [
        ({}, "9b9406c5077bbfb1d1d4bc0a8893d9b5fa1a9fc22f79df0e4f42a256eaf4c60f"),
        (
            {"mode": "cb", "steps": 7},
            "1c35b0ee59824408923a606289c327152bd3743f9b197497bd8e83b358cba226",
        ),
    ],
    ids=["default", "cb-7-steps"],
)
def test_spec_key_is_pinned_under_a_fixed_salt(fields, key):
    # values computed by 1.8.0, whose spec still had a sim_backend field
    # (filtered out of the key): under one salt, keys must not move, so
    # only a version bump invalidates stored reports
    assert cache_key(ExperimentSpec(**fields), salt="pin") == key


# -- store round trip -------------------------------------------------------

@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "store")


def test_put_get_round_trip_is_bit_identical(cache):
    spec = ExperimentSpec(mode="cb", steps=3)
    fresh = Engine().run(spec)
    cache.put(spec, fresh)
    # warm path: the put primed tier 0, so the hit never opens the blob
    loaded = cache.get(spec)
    assert loaded is not None
    assert loaded.to_dict() == fresh.to_dict()
    assert cache.hits == 1 and cache.misses == 0
    assert cache.lru_hits == 1 and cache.bytes_read == 0
    assert cache.bytes_written > 0
    # cold path: a fresh instance (empty LRU) loads the blob from disk
    # and the report is still bit-identical
    reopened = ResultCache(cache.root)
    again = reopened.get(spec)
    assert again is not None
    assert again.to_dict() == fresh.to_dict()
    assert reopened.disk_hits == 1 and reopened.bytes_read > 0
    # ...and the disk hit promoted the entry into tier 0
    assert reopened.get(spec).to_dict() == fresh.to_dict()
    assert reopened.lru_hits == 1


def test_get_miss_counts_and_returns_none(cache):
    assert cache.get(ExperimentSpec(mode="cluster", steps=2)) is None
    assert cache.misses == 1 and cache.hits == 0


def test_engine_run_hits_after_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = ExperimentSpec(mode="cb", steps=3)
    first = Engine().run(spec, cache=cache)
    second = Engine().run(spec, cache=cache)
    assert first.to_dict() == second.to_dict()
    assert cache.hits == 1 and cache.misses == 1
    # engine also accepts a plain directory path
    third = Engine().run(spec, cache=str(tmp_path))
    assert third.to_dict() == first.to_dict()


def test_stats_prune_verify(cache):
    for steps in (2, 3, 4):
        spec = ExperimentSpec(mode="cluster", steps=steps)
        cache.put(spec, Engine().run(spec))
    stats = cache.stats()
    assert stats["entries"] == 3 and stats["stored_bytes"] > 0

    audit = cache.verify()
    assert audit["ok"] == 3 and not audit["corrupt"] and not audit["mismatched"]

    # corrupt one entry, rewrite another under a wrong key
    paths = [p for p in cache.root.rglob("*.json")]
    paths[0].write_text("{ truncated")
    entry = json.loads(paths[1].read_text())
    entry["spec"]["steps"] = 99  # stored spec no longer matches filename
    paths[1].write_text(json.dumps(entry))
    audit = cache.verify(repair=True)
    assert len(audit["corrupt"]) == 1 and len(audit["mismatched"]) == 1
    assert audit["removed"] == 2
    assert cache.stats()["entries"] == 1

    assert cache.prune()["removed"] == 1
    assert cache.stats()["entries"] == 0


def test_corrupt_entry_reads_as_miss(cache):
    spec = ExperimentSpec(mode="cluster", steps=2)
    cache.put(spec, Engine().run(spec))
    cache.path_for(cache.key_for(spec)).write_text("not json")
    # corruption across sessions: a reopened store (cold tier 0) finds
    # the key indexed but the blob unreadable -> a miss, not an error
    reopened = ResultCache(cache.root)
    assert reopened.get(spec) is None
    assert reopened.misses == 1


def test_entry_schema_tag(cache):
    spec = ExperimentSpec(mode="cluster", steps=2)
    key = cache.put(spec, Engine().run(spec))
    entry = json.loads(cache.path_for(key).read_text())
    assert entry["schema"] == CACHE_ENTRY_SCHEMA
    assert entry["key"] == key == cache.key_for(spec)


# -- run_many: hits resolve in the parent, only misses are pooled ----------

class _RecordingPool:
    """Stands in for ProcessPoolExecutor; applies work in-process and
    records every payload that would have gone to a worker."""

    submitted = []

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads, chunksize=1):
        payloads = list(payloads)
        _RecordingPool.submitted.extend(payloads)
        return [fn(p) for p in payloads]


class _ForbiddenPool:
    def __init__(self, max_workers=None):  # pragma: no cover - guard
        raise AssertionError("pool must not be created for cache hits")


def test_run_many_submits_only_misses(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    specs = [
        ExperimentSpec(mode="cluster", steps=2),
        ExperimentSpec(mode="booster", steps=2),
        ExperimentSpec(mode="cb", steps=2),
        ExperimentSpec(mode="cb", steps=3),
    ]
    # pre-populate two of the four
    originals = {}
    for spec in specs[:2]:
        originals[cache.key_for(spec)] = Engine().run(spec, cache=cache)

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _RecordingPool
    )
    _RecordingPool.submitted = []
    sweep = Engine().run_many(specs, workers=4, cache=cache)
    assert len(sweep.reports) == 4
    # exactly the two misses crossed the pool boundary
    assert [p["mode"] for p in _RecordingPool.submitted] == ["C+B", "C+B"]
    # hits came back bit-identical, in spec order
    for spec, report in zip(specs[:2], sweep.reports[:2]):
        assert report.to_dict() == originals[cache.key_for(spec)].to_dict()


def test_run_many_all_hits_never_creates_a_pool(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    specs = [
        ExperimentSpec(mode="cluster", steps=2),
        ExperimentSpec(mode="booster", steps=2),
    ]
    fresh = Engine().run_many(specs, cache=cache)
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _ForbiddenPool
    )
    again = Engine().run_many(specs, workers=8, cache=cache)
    assert again.workers == 1
    for a, b in zip(fresh.reports, again.reports):
        assert a.to_dict() == b.to_dict()


def test_run_many_cached_vs_fresh_bit_identity(tmp_path):
    specs = [
        ExperimentSpec(mode="cluster", steps=3),
        ExperimentSpec(mode="cb", steps=3),
    ]
    cache = ResultCache(tmp_path)
    first = Engine().run_many(specs, cache=cache)
    second = Engine().run_many(specs, cache=cache)
    assert [r.to_dict() for r in first.reports] == [
        r.to_dict() for r in second.reports
    ]
    assert cache.hits == len(specs)
