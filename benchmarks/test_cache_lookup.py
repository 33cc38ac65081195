"""Microbenchmark — result-store throughput across every tier.

The result cache only pays off if a hit costs a vanishing fraction of
the run it memoizes, and the store only scales if probes stay off the
filesystem.  This bench measures each tier of the store on a
populated root:

* ``keys_per_sec``       — repeated key probe of one spec (memoized path)
* ``cold_keys_per_sec``  — full derivation: build spec + canonicalize + hash
* ``hits_per_sec``       — warm hit (tier 0, the in-memory LRU)
* ``disk_hits_per_sec``  — cold hit (tier 1, blob load + parse; LRU off)
* ``misses_per_sec``     — absent-key probe (index membership, no disk stat)

and contrasts them with the simulation time of the small run a hit
short-circuits.  Archives a table and a machine-readable JSON under
``benchmarks/_results``; the ``check_regression`` gate holds
``keys/hits/misses/disk_hits`` to the ``baseline.json`` floors.
"""

import json
import pathlib
import time

from repro.bench import render_table
from repro.engine import Engine, ExperimentSpec
from repro.store import ResultCache

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"

N_KEYS = 20000
N_COLD_KEYS = 2000
N_LOOKUPS = 20000
N_DISK_LOOKUPS = 2000
N_ENTRIES = 64  # stored entries backing the probes
ROUNDS = 3


def _archive_json(name: str, payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=2))


def _bench(fn, n: int) -> float:
    """Best-of-ROUNDS operations/second for one store path."""
    best = 0.0
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = max(best, n / (time.perf_counter() - t0))
    return best


def run_bench(tmp_root) -> dict:
    cache = ResultCache(tmp_root)
    spec = ExperimentSpec(mode="cb", steps=5)

    t0 = time.perf_counter()
    report = Engine().run(spec)
    run_s = time.perf_counter() - t0
    cache.put(spec, report)
    # a realistically non-empty store behind the probes
    for steps in range(6, 6 + N_ENTRIES):
        cache.put(ExperimentSpec(mode="cluster", steps=steps), report)

    keys_per_sec = _bench(lambda: cache.key_for(spec), N_KEYS)
    cold_keys_per_sec = _bench(
        lambda: cache.key_for(ExperimentSpec(mode="cb", steps=5)),
        N_COLD_KEYS,
    )
    hits_per_sec = _bench(lambda: cache.get(spec), N_LOOKUPS)

    disk = ResultCache(tmp_root, lru_entries=0)  # tier 1 alone
    disk_hits_per_sec = _bench(lambda: disk.get(spec), N_DISK_LOOKUPS)

    miss_spec = ExperimentSpec(mode="cluster", steps=5)
    misses_per_sec = _bench(lambda: cache.get(miss_spec), N_LOOKUPS)
    return {
        "keys_per_sec": keys_per_sec,
        "cold_keys_per_sec": cold_keys_per_sec,
        "hits_per_sec": hits_per_sec,
        "disk_hits_per_sec": disk_hits_per_sec,
        "misses_per_sec": misses_per_sec,
        "hit_amortization": run_s * hits_per_sec,
        "_run_s": run_s,
        "_entries": N_ENTRIES + 1,
    }


def test_cache_lookup_per_sec(benchmark, report, tmp_path):
    r = benchmark.pedantic(
        lambda: run_bench(tmp_path), rounds=1, iterations=1
    )
    rows = [
        ("spec -> content key (memoized)", f"{r['keys_per_sec']:,.0f}"),
        ("spec -> content key (cold)", f"{r['cold_keys_per_sec']:,.0f}"),
        ("warm hit (tier 0: LRU)", f"{r['hits_per_sec']:,.0f}"),
        ("cold hit (tier 1: blob load)", f"{r['disk_hits_per_sec']:,.0f}"),
        ("miss (index probe, no disk)", f"{r['misses_per_sec']:,.0f}"),
        (
            "5-step C+B runs amortized per hit",
            f"{r['hit_amortization']:,.0f}",
        ),
    ]
    text = render_table(
        ["Store path", "Ops/sec"],
        rows,
        title="Result-store lookup throughput (tiered)",
    )
    report("cache_lookup_per_sec", text)
    _archive_json("cache_lookup_per_sec", r)
    # a hit must beat re-simulating even this tiny run outright
    assert r["hit_amortization"] > 1.0
    # the tiers must keep their ordering: memory >= disk, and an index
    # miss must never cost more than a disk hit path
    assert r["hits_per_sec"] > r["disk_hits_per_sec"]
    assert r["misses_per_sec"] > r["disk_hits_per_sec"]
