"""Fleet chaos tests over real ``repro serve`` subprocesses: SIGKILL
one shard of a 3-shard fleet mid-run and assert the supervision path —
heartbeat-judged death, restart with journal recovery, persistent
request handles — loses no jobs and keeps reports bit-identical to a
serial baseline."""

import json
import time

import pytest

from repro.engine import Engine, ExperimentSpec
from repro.fleet import FleetRouter, ProcessShard, invariant_holds
from repro.store.keys import cache_key


def spec(steps=3, mode="cb", seed=20180521, **kw):
    return ExperimentSpec(mode=mode, steps=steps, seed=seed, **kw)


def canon(report):
    d = report.to_dict()
    for key in ("wall_time_s", "events_per_sec", "host_wall_s"):
        d["sim"].pop(key, None)
    return json.dumps(d, sort_keys=True)


def test_process_shard_round_trip_and_status_layout(tmp_path):
    shard = ProcessShard("p0", tmp_path / "p0", poll_s=0.02)
    shard.start()
    try:
        handle = shard.submit(spec(steps=4))
        deadline = time.monotonic() + 60
        outcome = None
        while outcome is None and time.monotonic() < deadline:
            outcome = shard.poll(handle)
            time.sleep(0.02)
        assert outcome is not None, "shard never produced a result"
        status, report, info = outcome
        assert status == "done"
        assert canon(report) == canon(Engine().run(spec(steps=4)))
        assert shard.alive()
        # the shard directory is a plain `repro serve` job directory
        assert (shard.root / "journal.jsonl").exists()
        assert (shard.root / "heartbeat.json").exists()
        assert shard.store_root.is_dir()
    finally:
        shard.stop()
    assert not shard.alive()


def test_fleet_sigkill_one_shard_recovers_without_loss(tmp_path):
    shards = [
        ProcessShard(f"p{i}", tmp_path / f"p{i}", poll_s=0.02)
        for i in range(3)
    ]
    router = FleetRouter(
        shards,
        steal_threshold=None,
        restart_limit=1,
        stale_after_s=2.0,
        monitor_interval_s=0.1,
    )
    router.start()
    try:
        # ~0.1s of work per spec: a wide window to land the kill in
        uniques = [spec(steps=1000 + i) for i in range(8)]
        workload = uniques + uniques[:4]  # duplicate-heavy tail
        jobs = [router.submit(s) for s in workload]
        victim_name = jobs[0].shard
        victim = router.shard(victim_name)
        assert sum(1 for j in jobs if j.shard == victim_name) >= 1
        # wait for the victim to journal its first dispatch, then kill
        needle = '"op":"dispatched"'
        deadline = time.monotonic() + 120
        while True:
            try:
                text = victim.journal_path.read_text()
            except OSError:
                text = ""
            if needle in text:
                break
            assert time.monotonic() < deadline, "victim never dispatched"
            time.sleep(0.005)
        victim.kill()
        # every job still resolves: the monitor restarts the shard and
        # journal recovery rewrites the pending result files
        reports = [j.result(timeout=180) for j in jobs]
        assert router.drain(timeout=60)
        serial = Engine()
        baselines = {cache_key(s): canon(serial.run(s)) for s in uniques}
        for job, report in zip(jobs, reports):
            assert canon(report) == baselines[job.key]
        snap = router.metrics_snapshot()
        assert snap["router"]["shard_deaths"] >= 1
        assert snap["router"]["restarts"] >= 1
        assert snap["router"]["shards_live"] == 3  # restarted, not lost
        assert victim.restarts >= 1
        assert invariant_holds(snap["fleet"])
        # exactly one result file per request fleet-wide: no duplicates
        result_files = [
            p
            for shard in shards
            for p in (shard.root / "results").glob("*.json")
        ]
        assert len(result_files) == len(workload)
    finally:
        router.shutdown(drain=False)
