"""Microbenchmark — fleet router round-trip throughput.

The fleet front end only pays for itself if routing a submission —
cache-key hash, ring lookup, shard dispatch, resolution — stays cheap
next to the work it schedules.  Three figures on a 4-shard local
fleet:

* ``frame_round_trips_per_sec``  — protocol serialization cost: one
  submit-sized document encoded to a length-prefixed frame and decoded
  back, the per-message floor every remote client pays twice
* ``router_round_trips_per_sec`` — submit -> resolved result through
  the full router machinery (sticky map, hash ring, shard service) on
  warm keys, pipelined the way a busy front end drives it
* ``router_closed_loop_per_sec`` — warm requests with 32 kept open, a
  new one sent as the oldest resolves: the shape of the end-to-end
  benchmark's warm fleet pass, where a request that waits for a timer
  (a poll every 4 ms caps it at 8,000/s) shows at once.  A 2-CPU VM
  measures 18k-37k/s; the floor sits about half under that, and 30%
  under the floor still clears the 8,000/s cap

Archives a table and machine-readable JSON under
``benchmarks/_results``; the ``check_regression`` gate holds each
figure to its ``baseline.json`` floor.
"""

import collections
import json
import pathlib
import time

from repro.bench import render_table
from repro.engine import ExperimentSpec
from repro.fleet import FleetRouter, LocalShard
from repro.fleet.protocol import decode_payload, encode_frame

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"

N_FRAMES = 2000
N_TRIPS = 400
N_KEYS = 8
ROUNDS = 3
#: requests of one closed-loop round, and how many it keeps open
N_LOOP = 1000
WINDOW = 32


def _archive_json(name: str, payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=2))


def _bench_frames() -> float:
    doc = {
        "schema": "repro.fleet_msg/1",
        "op": "submit",
        "spec": ExperimentSpec(mode="cb", steps=5).to_dict(),
        "priority": 0,
        "client": "bench",
        "wait": True,
    }
    best = 0.0
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(N_FRAMES):
            raw = encode_frame(doc)
            decode_payload(raw[4:])  # strip the length header
        best = max(best, N_FRAMES / (time.perf_counter() - t0))
    return best


def _bench_router(tmp_root) -> dict:
    root = pathlib.Path(tmp_root)
    shards = [
        LocalShard(f"b{i}", root / f"b{i}", workers=1, max_queue=2 * N_TRIPS)
        for i in range(4)
    ]
    router = FleetRouter(shards, steal_threshold=None)
    router.start()
    try:
        specs = [ExperimentSpec(mode="cb", steps=3 + i)
                 for i in range(N_KEYS)]
        # warm every key once so the measured trips are pure routing +
        # cache-hit resolution, not engine time
        for job in [router.submit(s) for s in specs]:
            job.result(timeout=120)
        best = 0.0
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            jobs = [
                router.submit(specs[i % N_KEYS]) for i in range(N_TRIPS)
            ]
            for job in jobs:
                job.result(timeout=120)
            best = max(best, N_TRIPS / (time.perf_counter() - t0))
        loop_best = max(_closed_loop(router, specs) for _ in range(ROUNDS))
        snap = router.metrics_snapshot()
        assert snap["fleet"]["executed"] == N_KEYS, "trips must be warm"
        return {
            "router_round_trips_per_sec": best,
            "router_closed_loop_per_sec": loop_best,
        }
    finally:
        router.shutdown(drain=False)


def _closed_loop(router, specs) -> float:
    """Requests per second through :data:`N_LOOP` warm requests with
    :data:`WINDOW` open: each time the oldest resolves, one more goes."""
    open_jobs: collections.deque = collections.deque()
    sent = 0
    t0 = time.perf_counter()
    while sent < N_LOOP or open_jobs:
        while sent < N_LOOP and len(open_jobs) < WINDOW:
            open_jobs.append(router.submit(specs[sent % N_KEYS]))
            sent += 1
        open_jobs.popleft().result(timeout=120)
    return N_LOOP / (time.perf_counter() - t0)


def run_bench(tmp_root) -> dict:
    out = {"frame_round_trips_per_sec": _bench_frames()}
    out.update(_bench_router(tmp_root))
    out["_trips"] = N_TRIPS
    out["_shards"] = 4
    return out


def test_fleet_router_round_trips_per_sec(benchmark, report, tmp_path):
    r = benchmark.pedantic(
        lambda: run_bench(tmp_path), rounds=1, iterations=1
    )
    rows = [
        (
            "frame encode+decode (submit doc)",
            f"{r['frame_round_trips_per_sec']:,.0f}",
        ),
        (
            "router submit -> result (warm, 4 shards)",
            f"{r['router_round_trips_per_sec']:,.0f}",
        ),
        (
            f"router closed loop ({WINDOW} open, warm, 4 shards)",
            f"{r['router_closed_loop_per_sec']:,.0f}",
        ),
    ]
    text = render_table(
        ["Fleet path", "Ops/sec"],
        rows,
        title="Fleet router round-trip throughput",
    )
    report("fleet_router_round_trips_per_sec", text)
    _archive_json("fleet_router_round_trips_per_sec", r)
    # a warm round trip must never cost an engine run
    assert r["router_round_trips_per_sec"] > 0
    assert r["router_closed_loop_per_sec"] > 0
