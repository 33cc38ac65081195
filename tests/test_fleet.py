"""Tests for repro.fleet: the hash ring, the wire protocol, histogram
and snapshot merging, the router (routing / sticky coalescing / bounded
stealing / shard-loss rerouting), the TCP front end + client, the
Session(fleet=...) path — and the fleet acceptance demo (4 shards vs 1
on a duplicate-heavy workload)."""

import json
import socket
import struct
import sys
import threading
import time

import pytest

from repro.api import Session
from repro.engine import Engine, ExperimentSpec
from repro.fleet import (
    FleetClient,
    FleetClientError,
    FleetFrontEnd,
    FleetRouter,
    FrameError,
    HashRing,
    LocalShard,
    encode_frame,
    invariant_holds,
    merge_histogram_snapshots,
    merge_service_snapshots,
    recv_frame,
    send_frame,
)
from repro.fleet.protocol import decode_payload
from repro.serve.metrics import LatencyHistogram
from repro.store.keys import cache_key


def spec(steps=3, mode="cb", seed=20180521, **kw):
    return ExperimentSpec(mode=mode, steps=steps, seed=seed, **kw)


def canon(report):
    d = report.to_dict()
    for key in ("wall_time_s", "events_per_sec", "host_wall_s"):
        d["sim"].pop(key, None)
    return json.dumps(d, sort_keys=True)


class _SleepEngine(Engine):
    """Engine that bills fixed wall time per spec and records every
    spec it actually executed (the duplicate-execution probe)."""

    def __init__(self, delay_s=0.02):
        super().__init__()
        self.delay_s = delay_s
        self.executed = []

    def run_many(self, specs, workers=1, cache=None, pool=None):
        time.sleep(self.delay_s * len(specs))
        self.executed.extend(specs)
        return super().run_many(specs, workers=1, cache=cache)


# -- hash ring ---------------------------------------------------------------


def test_ring_routing_is_deterministic_across_instances():
    a = HashRing(["s0", "s1", "s2"])
    b = HashRing(["s2", "s0", "s1"])  # insertion order must not matter
    keys = [f"key-{i}" for i in range(200)]
    assert [a.route(k) for k in keys] == [b.route(k) for k in keys]


def test_ring_balances_and_shares_sum_to_one():
    ring = HashRing(["s0", "s1", "s2", "s3"])
    shares = ring.shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert max(shares.values()) / min(shares.values()) < 2.5
    counts = {}
    for i in range(2000):
        counts[ring.route(f"key-{i}")] = counts.get(ring.route(f"key-{i}"), 0) + 1
    assert set(counts) == {"s0", "s1", "s2", "s3"}


def test_ring_removal_disrupts_only_the_lost_shards_keys():
    ring = HashRing(["s0", "s1", "s2", "s3"])
    keys = [f"key-{i}" for i in range(500)]
    before = {k: ring.route(k) for k in keys}
    ring.remove("s2")
    moved = [k for k in keys if ring.route(k) != before[k]]
    # only keys that lived on the removed shard change home
    assert all(before[k] == "s2" for k in moved)
    assert all(ring.route(k) != "s2" for k in keys)


def test_ring_edge_cases():
    empty = HashRing()
    with pytest.raises(LookupError):
        empty.route("k")
    assert empty.shares() == {}
    one = HashRing(["only"], replicas=1)
    assert one.shares() == {"only": 1.0}
    assert one.route("anything") == "only"
    ring = HashRing(["a", "b", "c"])
    pref = ring.preference("some-key")
    assert pref[0] == ring.route("some-key")
    assert sorted(pref) == ["a", "b", "c"]
    assert ring.preference("some-key", n=2) == pref[:2]


# -- wire protocol -----------------------------------------------------------


def test_frame_encode_decode_round_trip():
    doc = {"op": "submit", "spec": {"steps": 7}, "n": [1, 2, 3]}
    raw = encode_frame(doc)
    (length,) = struct.unpack(">I", raw[:4])
    assert length == len(raw) - 4
    assert decode_payload(raw[4:]) == doc


def test_frame_errors_are_typed():
    with pytest.raises(FrameError):
        decode_payload(b"not json at all {{{")
    with pytest.raises(FrameError):
        decode_payload(b"[1, 2, 3]")  # not an object
    assert issubclass(FrameError, ValueError)


def test_socket_frames_round_trip_and_clean_eof():
    left, right = socket.socketpair()
    try:
        send_frame(left, {"op": "ping", "x": 1})
        assert recv_frame(right) == {"op": "ping", "x": 1}
        left.close()
        assert recv_frame(right) is None  # clean EOF at a boundary
    finally:
        right.close()


def test_truncated_frame_raises_instead_of_hanging():
    left, right = socket.socketpair()
    try:
        raw = encode_frame({"op": "submit", "payload": "x" * 100})
        left.sendall(raw[: len(raw) - 20])  # cut mid-frame
        left.close()
        with pytest.raises(FrameError, match="mid-frame"):
            recv_frame(right)
    finally:
        right.close()


# -- histogram + snapshot merging --------------------------------------------


def test_histogram_merge_matches_single_histogram():
    one = LatencyHistogram()
    a, b = LatencyHistogram(), LatencyHistogram()
    for i, ms in enumerate((1, 2, 4, 8, 40, 200, 1000)):
        one.record(ms / 1000.0)
        (a if i % 2 else b).record(ms / 1000.0)
    merged = merge_histogram_snapshots([a.snapshot(), b.snapshot()])
    expect = one.snapshot()
    for field in ("count", "p50_s", "p90_s", "p99_s", "min_s", "max_s"):
        assert merged[field] == pytest.approx(expect[field])


def test_merge_service_snapshots_sums_counters_and_keeps_invariant():
    def snap(**kw):
        base = {
            "submitted": 0, "accepted": 0, "rejected": 0, "coalesced": 0,
            "cache_hits": 0, "executed": 0, "completed": 0, "failed": 0,
            "requeued": 0, "batches": 0, "recovered": 0, "quarantined": 0,
            "quarantine_hits": 0, "deadline_misses": 0, "batch_timeouts": 0,
            "journal_replays": 0, "queue_depth": 0, "in_flight": 0,
            "workers": 1, "peak_queue_depth": 0, "peak_in_flight": 0,
            "wait": {}, "run": {},
        }
        base.update(kw)
        return base

    merged = merge_service_snapshots(
        [
            snap(submitted=5, accepted=3, coalesced=1, cache_hits=1,
                 peak_queue_depth=4),
            snap(submitted=4, accepted=2, coalesced=0, cache_hits=1,
                 rejected=1, peak_queue_depth=7),
        ]
    )
    assert merged["submitted"] == 9
    assert merged["accepted"] == 5
    assert merged["peak_queue_depth"] == 7  # peaks max, not sum
    assert merged["shards"] == 2
    assert invariant_holds(merged)
    merged["submitted"] += 1
    assert not invariant_holds(merged)


# -- router ------------------------------------------------------------------


def test_router_routes_one_key_to_one_shard_and_coalesces(tmp_path):
    engine = _SleepEngine(delay_s=0.05)
    shards = [
        LocalShard(f"s{i}", tmp_path / f"s{i}", engine=engine)
        for i in range(3)
    ]
    with FleetRouter(shards, steal_threshold=None) as router:
        dup = spec(steps=4)
        jobs = [router.submit(dup, client=f"c{i}") for i in range(4)]
        assert len({j.shard for j in jobs}) == 1  # all on one shard
        assert jobs[0].shard == router._ring.route(cache_key(dup))
        assert sum(1 for j in jobs if j.coalesced) == 3
        reports = [j.result(timeout=30) for j in jobs]
        assert len({canon(r) for r in reports}) == 1
        snap = router.metrics_snapshot()
        assert snap["fleet"]["executed"] == 1  # one engine run, fleet-wide
        assert snap["router"]["sticky_routed"] == 3
        assert invariant_holds(snap["fleet"])
    assert len(engine.executed) == 1


def test_router_second_pass_is_all_cache_hits(tmp_path):
    shards = [LocalShard(f"s{i}", tmp_path / f"s{i}") for i in range(2)]
    with FleetRouter(shards, steal_threshold=None) as router:
        specs = [spec(steps=3 + i) for i in range(4)]
        for s in specs:
            router.submit(s).result(timeout=30)
        again = [router.submit(s) for s in specs]
        for job in again:
            job.result(timeout=30)
        assert all(j.cache_hit for j in again)
        snap = router.metrics_snapshot()
        assert snap["fleet"]["cache_hits"] == 4
        assert snap["fleet"]["executed"] == 4
        assert invariant_holds(snap["fleet"])


def test_bounded_stealing_overflows_and_syncs_home(tmp_path):
    engine = _SleepEngine(delay_s=0.15)
    shards = [
        LocalShard(f"s{i}", tmp_path / f"s{i}", engine=engine)
        for i in range(2)
    ]
    with FleetRouter(shards, steal_threshold=2, steal_margin=2) as router:
        # find specs that all hash to the same home shard
        ring = router._ring
        home = ring.route(cache_key(spec(steps=10)))
        skewed, step = [], 10
        while len(skewed) < 6:
            s = spec(steps=step)
            if ring.route(cache_key(s)) == home:
                skewed.append(s)
            step += 1
        jobs = [router.submit(s) for s in skewed]
        stolen = [j for j in jobs if j.stolen]
        assert stolen, "deep home backlog should overflow to the light shard"
        for j in jobs:
            j.result(timeout=60)
        assert router.drain(timeout=30)
        snap = router.metrics_snapshot()
        assert snap["router"]["stolen"] == len(stolen)
        assert snap["router"]["synced"] >= 1
        # the stolen key's result was bundle-synced home: resubmitting
        # it routes home and cache-hits there, no new execution
        executed_before = len(engine.executed)
        redo = router.submit(stolen[0].spec)
        redo.result(timeout=30)
        assert redo.shard == home
        assert redo.cache_hit
        assert len(engine.executed) == executed_before
        assert invariant_holds(snap["fleet"])


def test_shard_loss_reroutes_without_losing_jobs(tmp_path):
    engine = _SleepEngine(delay_s=0.1)
    shards = [
        LocalShard(f"s{i}", tmp_path / f"s{i}", engine=engine)
        for i in range(3)
    ]
    router = FleetRouter(
        shards,
        steal_threshold=None,
        restart_limit=0,  # no second chances: straight to ring removal
        monitor_interval_s=0.05,
    )
    with router:
        jobs = [router.submit(spec(steps=3 + i)) for i in range(9)]
        victim = jobs[0].shard
        router.shard(victim).fail()
        reports = [j.result(timeout=60) for j in jobs]
        assert len(reports) == 9
        # bit-identical to a serial baseline despite the mid-run loss
        serial = Engine()
        for job, report in zip(jobs, reports):
            assert canon(report) == canon(serial.run(job.spec))
        snap = router.metrics_snapshot()
        assert snap["router"]["shard_deaths"] >= 1
        assert snap["router"]["rebalanced"] == 1
        assert snap["router"]["shards_lost"] == [victim]
        assert victim not in snap["router"]["ring_shares"]
        assert snap["router"]["shards_live"] == 2
        # new submissions route around the lost shard
        fresh = router.submit(spec(steps=99))
        assert fresh.shard != victim
        fresh.result(timeout=30)


def test_cached_key_resolves_when_submit_returns(tmp_path):
    shards = [LocalShard(f"s{i}", tmp_path / f"s{i}") for i in range(2)]
    with FleetRouter(shards, steal_threshold=None) as router:
        first = router.submit(spec(steps=4))
        first.result(timeout=30)
        again = router.submit(spec(steps=4))
        # a store hit needs no collector: submit itself resolves it
        assert again.done() and again.cache_hit
        assert canon(again.result(timeout=0)) == canon(first.result())
        assert router.outstanding() == 0


def test_local_shards_resolve_without_a_timer_scan(tmp_path, monkeypatch):
    polls = []
    real_poll = LocalShard.poll

    def counting_poll(self, handle):
        polls.append(handle)
        return real_poll(self, handle)

    monkeypatch.setattr(LocalShard, "poll", counting_poll)
    engine = _SleepEngine(delay_s=0.01)
    shards = [
        LocalShard(f"s{i}", tmp_path / f"s{i}", engine=engine)
        for i in range(2)
    ]
    with FleetRouter(shards, steal_threshold=None) as router:
        jobs = [router.submit(spec(steps=3 + i)) for i in range(20)]
        for job in jobs:
            job.result(timeout=60)
        assert router.drain(timeout=30)
        # each shard job is polled once, when it has resolved: a timer
        # scan would poll every pending job on every tick
        assert len(polls) == 20
        assert {id(h) for h in polls} == {id(j.inner) for j in jobs}
    assert len(engine.executed) == 20


def test_threaded_clients_new_duplicate_and_cached_specs(tmp_path):
    engine = _SleepEngine(delay_s=0.002)
    shards = [
        LocalShard(f"s{i}", tmp_path / f"s{i}", engine=engine)
        for i in range(3)
    ]
    cached = [spec(steps=3 + i) for i in range(10)]
    new = [spec(steps=20 + i) for i in range(40)]
    with FleetRouter(shards, steal_threshold=2) as router:
        for job in [router.submit(s) for s in cached]:
            job.result(timeout=60)
        jobs, errors, lock = [], [], threading.Lock()

        def client(c):
            try:
                for i in range(50):
                    # every fifth a cached spec; the new ones overlap
                    # across clients, so most of them are duplicates
                    s = cached[(i + c) % 10] if i % 5 == 4 else (
                        new[(3 * i + 7 * c) % 40]
                    )
                    job = router.submit(s, client=f"c{c}")
                    with lock:
                        jobs.append(job)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        clients = [
            threading.Thread(target=client, args=(c,)) for c in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        # a lock-order deadlock between router and service would hang
        assert not any(t.is_alive() for t in clients)
        assert not errors and len(jobs) == 200
        for job in jobs:
            job.result(timeout=60)
        assert router.drain(timeout=60)
        snap = router.metrics_snapshot()
    executed = [cache_key(s) for s in engine.executed]
    assert sorted(executed) == sorted(cache_key(s) for s in cached + new)
    assert invariant_holds(snap["fleet"])
    assert all(invariant_holds(s) for s in snap["shards"].values())
    assert snap["fleet"]["submitted"] == 210


def test_completion_for_a_detached_handle_is_ignored(tmp_path):
    # both services start stopped, so a job waits until its shard's
    # scheduler is started; the monitor is too slow to interfere
    shards = [
        LocalShard(f"s{i}", tmp_path / f"s{i}", autostart=False)
        for i in range(2)
    ]
    router = FleetRouter(
        shards, steal_threshold=None, restart_limit=0,
        monitor_interval_s=60.0,
    ).start()
    try:
        job = router.submit(spec(steps=5))
        settled = []
        settle = job._settle
        job._settle = lambda report, error: (
            settled.append(error), settle(report, error)
        )
        old_name, old_inner = job.shard, job.inner
        old = router.shard(old_name)
        # what the monitor does when it judges the shard dead
        router._handle_death(old_name, old)
        assert job.shard != old_name and job.reroutes == 1
        stale_done = threading.Event()
        finish = router._finish

        def spy(fleet_job, shard, inner):
            finish(fleet_job, shard, inner)
            if inner is old_inner:
                stale_done.set()

        router._finish = spy
        # the detached handle resolves late, while the rerouted job is
        # still queued: its completion must not resolve the fleet job
        old.service.start()
        old_inner.result(timeout=30)
        assert stale_done.wait(timeout=30)
        assert not job.done() and settled == []
        router.shard(job.shard).service.start()
        assert job.result(timeout=30).total_runtime > 0
        assert settled == [None]
        assert router.drain(timeout=30)
        assert router.metrics_snapshot()["router"]["rerouted_jobs"] == 1
    finally:
        router.shutdown(drain=False)


def test_a_job_no_shard_can_take_fails_and_the_fleet_drains(tmp_path):
    shards = [LocalShard("s0", tmp_path / "s0", autostart=False)]
    router = FleetRouter(
        shards, restart_limit=0, monitor_interval_s=60.0
    ).start()
    try:
        job = router.submit(spec(steps=5))
        # the only shard dies for good: the reroute finds no shard
        router._handle_death("s0", router.shard("s0"))
        with pytest.raises(RuntimeError, match="no live shards"):
            job.result(timeout=30)
        assert router.drain(timeout=5)
        assert router.outstanding() == 0
    finally:
        router.shutdown(drain=False)


def test_an_unreadable_result_fails_its_job(tmp_path):
    class _UnreadableShard(LocalShard):
        def poll(self, handle):
            raise ValueError("unreadable result")

    with FleetRouter([_UnreadableShard("s0", tmp_path / "s0")]) as router:
        job = router.submit(spec(steps=3))
        # no later look would read it: the job fails instead of hanging
        with pytest.raises(ValueError, match="unreadable result"):
            job.result(timeout=30)
        assert router.drain(timeout=5)


def test_local_shard_refuses_a_keyword_it_sets_itself(tmp_path):
    for kw in ("cache", "journal", "heartbeat", "heartbeat_interval_s"):
        with pytest.raises(TypeError, match=kw):
            LocalShard("s", tmp_path / "s", **{kw: None})
    assert not (tmp_path / "s").exists()


def test_local_shard_refuses_a_keyword_the_service_does_not_take(tmp_path):
    with pytest.raises(TypeError, match="max_batch"):
        LocalShard("s", tmp_path / "s", max_batch=8)
    # keywords the service takes still reach it
    shard = LocalShard("s", tmp_path / "s", max_retries=0, autostart=False)
    shard.start()
    try:
        assert not shard.service.started
    finally:
        shard.stop(drain=False)


def test_router_rejects_duplicate_shard_names(tmp_path):
    with pytest.raises(ValueError, match="duplicate"):
        FleetRouter(
            [
                LocalShard("same", tmp_path / "a"),
                LocalShard("same", tmp_path / "b"),
            ]
        )
    with pytest.raises(ValueError, match="at least one"):
        FleetRouter([])


# -- front end + client ------------------------------------------------------


def test_front_end_round_trip_over_tcp(tmp_path):
    shards = [LocalShard(f"s{i}", tmp_path / f"s{i}") for i in range(2)]
    with FleetRouter(shards, steal_threshold=None) as router:
        with FleetFrontEnd(router) as front:
            assert front.port != 0
            with FleetClient(front.address) as client:
                assert client.ping()
                job = client.submit(spec(steps=4))
                assert job.done()
                report = job.result()
                assert canon(report) == canon(Engine().run(spec(steps=4)))
                # duplicate resolves from the shard store
                again = client.submit(spec(steps=4))
                assert again.cache_hit
                assert again.shard == job.shard
                status = client.status()
                assert status["fleet"]["submitted"] == 2
                assert invariant_holds(status["fleet"])
                assert status["router"]["shards_live"] == 2


def test_front_end_two_phase_submit_and_errors(tmp_path):
    shards = [LocalShard("s0", tmp_path / "s0")]
    with FleetRouter(shards) as router:
        with FleetFrontEnd(router) as front:
            sock = socket.create_connection(("127.0.0.1", front.port), 5)
            sock.settimeout(10)
            try:
                send_frame(
                    sock,
                    {"op": "submit", "spec": spec(steps=5).to_dict(),
                     "wait": False},
                )
                ack = recv_frame(sock)
                assert ack["ok"] and ack["op"] == "submitted"
                send_frame(sock, {"op": "wait", "id": ack["id"]})
                result = recv_frame(sock)
                assert result["ok"] and result["status"] == "done"
                send_frame(sock, {"op": "wait", "id": 999999})
                assert not recv_frame(sock)["ok"]
                send_frame(sock, {"op": "nope"})
                reply = recv_frame(sock)
                assert not reply["ok"] and "unknown op" in reply["error"]
                send_frame(sock, {"op": "submit", "spec": {"steps": "bad"}})
                assert "bad spec" in recv_frame(sock)["error"]
            finally:
                sock.close()


def test_front_end_warm_submit_and_wait_timeout(tmp_path):
    engine = _SleepEngine(delay_s=0.5)
    shards = [LocalShard("s0", tmp_path / "s0", engine=engine)]
    with FleetRouter(shards) as router:
        with FleetFrontEnd(router) as front:
            sock = socket.create_connection(("127.0.0.1", front.port), 5)
            sock.settimeout(30)
            try:
                warm = {"op": "submit", "spec": spec(steps=4).to_dict()}
                send_frame(sock, warm)
                assert recv_frame(sock)["status"] == "done"
                send_frame(sock, warm)
                again = recv_frame(sock)
                assert again["status"] == "done" and again["cache_hit"]
                send_frame(
                    sock,
                    {"op": "submit", "spec": spec(steps=5).to_dict(),
                     "wait": False},
                )
                ack = recv_frame(sock)
                send_frame(
                    sock, {"op": "wait", "id": ack["id"], "timeout_s": 0.05}
                )
                late = recv_frame(sock)
                assert not late["ok"] and late["error"] == "timeout"
                assert late["id"] == ack["id"]
                # the job is still known: a second wait gets the result
                send_frame(sock, {"op": "wait", "id": ack["id"]})
                result = recv_frame(sock)
                assert result["ok"] and result["status"] == "done"
                assert not result["cache_hit"]
            finally:
                sock.close()


def test_front_end_answers_a_malformed_field_with_an_error_document(tmp_path):
    shards = [LocalShard("s0", tmp_path / "s0")]
    submit = {"op": "submit", "spec": spec(steps=4).to_dict()}
    bad = [
        ({**submit, "priority": "high"}, "priority"),
        ({**submit, "priority": True}, "priority"),
        ({**submit, "priority": 1.5}, "priority"),
        ({**submit, "deadline_s": -1}, "deadline_s"),
        ({**submit, "deadline_s": "soon"}, "deadline_s"),
        ({**submit, "timeout_s": float("nan")}, "timeout_s"),
        ({**submit, "deadline_s": 10**400}, "deadline_s"),
        ({"op": "wait", "id": 1, "timeout_s": -0.5}, "timeout_s"),
        ({"op": "wait", "id": 1, "timeout_s": [1]}, "timeout_s"),
    ]
    with FleetRouter(shards) as router:
        with FleetFrontEnd(router) as front:
            sock = socket.create_connection(("127.0.0.1", front.port), 5)
            sock.settimeout(10)
            try:
                for msg, field in bad:
                    send_frame(sock, msg)
                    reply = recv_frame(sock)
                    assert reply["ok"] is False, msg
                    assert reply["error"].startswith(f"bad field: {field} ")
                send_frame(sock, {"op": "wait", "id": [1]})
                assert "unknown job id" in recv_frame(sock)["error"]
                send_frame(sock, {"op": "ping"})
                assert recv_frame(sock)["op"] == "pong"
                # null and in-range values still pass
                send_frame(sock, {**submit, "priority": 2,
                                  "deadline_s": None, "timeout_s": 30})
                assert recv_frame(sock)["status"] == "done"
            finally:
                sock.close()
        assert router.metrics_snapshot()["fleet"]["submitted"] == 1


def test_unwaited_jobs_leave_with_their_connection(tmp_path):
    shards = [LocalShard("s0", tmp_path / "s0")]
    with FleetRouter(shards) as router:
        with FleetFrontEnd(router) as front:
            sock = socket.create_connection(("127.0.0.1", front.port), 5)
            sock.settimeout(10)
            try:
                for steps in range(3, 8):
                    send_frame(sock, {"op": "submit", "wait": False,
                                      "spec": spec(steps=steps).to_dict()})
                    assert recv_frame(sock)["op"] == "submitted"
                assert len(front._jobs) == 5
            finally:
                sock.close()
            deadline = time.monotonic() + 10
            while front._jobs and time.monotonic() < deadline:
                time.sleep(0.01)
            assert front._jobs == {}
        assert router.drain(timeout=60)


def test_client_backs_off_on_queue_full(tmp_path):
    from repro.backoff import ExponentialBackoff

    # a shard whose scheduler is not running: its queue fills and stays
    # full, so admission rejects deterministically
    shards = [
        LocalShard("tiny", tmp_path / "tiny", max_queue=2, autostart=False)
    ]
    router = FleetRouter(shards, monitor_interval_s=60.0).start()
    try:
        held = [router.submit(spec(steps=11)), router.submit(spec(steps=12))]
        with FleetFrontEnd(router) as front:
            client = FleetClient(
                front.address,
                max_attempts=3,
                backoff=ExponentialBackoff(
                    base_s=0.01, cap_s=0.02, decorrelated=True, seed=0
                ),
            )
            with client:
                with pytest.raises(FleetClientError, match="queue_full"):
                    client.submit(spec(steps=13))
        snap = router.metrics_snapshot()
        assert snap["router"]["rejected_full"] == 3  # one per attempt
        # the shard drains once its scheduler starts; held jobs resolve
        router.shard("tiny").service.start()
        for job in held:
            assert job.result(timeout=30).total_runtime > 0
        assert invariant_holds(router.metrics_snapshot()["fleet"])
    finally:
        router.shutdown(drain=False)


def test_client_error_paths():
    with pytest.raises(ValueError, match="HOST:PORT"):
        FleetClient("no-port-here")
    # nothing listening: ping is False, submit raises after retries
    dead = FleetClient("127.0.0.1:1", timeout_s=0.2, max_attempts=2)
    assert not dead.ping()
    with pytest.raises(OSError):
        dead.submit(spec(steps=3))


# -- Session(fleet=...) ------------------------------------------------------


def test_session_submits_through_fleet_router(tmp_path):
    shards = [LocalShard(f"s{i}", tmp_path / f"s{i}") for i in range(2)]
    with FleetRouter(shards, steal_threshold=None) as router:
        session = Session(fleet=router)
        job = session.submit(steps=4)
        assert canon(job.result(timeout=30)) == canon(
            Engine().run(spec(steps=4))
        )
        assert router.metrics_snapshot()["fleet"]["submitted"] == 1


def test_session_fleet_address_builds_owned_client(tmp_path):
    shards = [LocalShard("s0", tmp_path / "s0")]
    with FleetRouter(shards) as router:
        with FleetFrontEnd(router) as front:
            with Session(fleet=front.address) as session:
                job = session.submit(steps=3)
                assert job.result().total_runtime > 0
                assert session._owned_fleet_client is not None
            assert session._owned_fleet_client is None  # closed


# -- the acceptance demo -----------------------------------------------------


def _run_workload(router, specs):
    """Submit every spec from 4 threads, wait for all; elapsed seconds."""
    jobs, lock = [], threading.Lock()

    def feed(chunk):
        for s in chunk:
            job = router.submit(s)
            with lock:
                jobs.append(job)

    start = time.monotonic()
    feeders = [
        threading.Thread(target=feed, args=(specs[i::4],)) for i in range(4)
    ]
    for t in feeders:
        t.start()
    for t in feeders:
        t.join()
    for job in jobs:
        job.result(timeout=120)
    assert router.drain(timeout=60)
    return time.monotonic() - start, jobs


def _demo_once(tmp_path, tag, delay, uniques, workload):
    """One single-vs-4-shard comparison in fresh directories; checks
    every deterministic invariant and returns the measured speedup."""
    single_engine = _SleepEngine(delay_s=delay)
    single = FleetRouter(
        [LocalShard(f"solo{tag}", tmp_path / f"solo{tag}",
                    engine=single_engine)]
    )
    with single:
        t_single, _ = _run_workload(single, workload)
        snap_single = single.metrics_snapshot()

    fleet_engine = _SleepEngine(delay_s=delay)
    fleet = FleetRouter(
        [
            LocalShard(f"f{tag}-{i}", tmp_path / f"f{tag}-{i}",
                       engine=fleet_engine)
            for i in range(4)
        ],
        steal_threshold=2,
        steal_margin=2,
    )
    with fleet:
        t_fleet, jobs = _run_workload(fleet, workload)
        snap_fleet = fleet.metrics_snapshot()
        # second pass: everything answers from the shard stores
        executed_before = len(fleet_engine.executed)
        for s in uniques:
            assert fleet.submit(s).result(timeout=30).total_runtime > 0
        assert len(fleet_engine.executed) == executed_before

    # fleet-wide dedup equals single-shard dedup: every duplicate was
    # coalesced or cache-hit, none crossed shards into a second run
    dedup_single = (
        snap_single["fleet"]["coalesced"] + snap_single["fleet"]["cache_hits"]
    )
    dedup_fleet = (
        snap_fleet["fleet"]["coalesced"] + snap_fleet["fleet"]["cache_hits"]
    )
    assert dedup_single == dedup_fleet == len(uniques)
    # zero duplicate engine executions, fleet-wide
    executed_keys = [cache_key(s) for s in fleet_engine.executed]
    assert len(executed_keys) == len(set(executed_keys)) == len(uniques)
    # the aggregated ledger balances in both runs
    assert invariant_holds(snap_single["fleet"])
    assert invariant_holds(snap_fleet["fleet"])
    assert snap_fleet["fleet"]["submitted"] == len(workload)
    return t_single, t_fleet


def test_fleet_demo_4_shards_vs_1_on_duplicate_heavy_workload(tmp_path):
    delay = 0.08
    uniques = [spec(steps=10 + i) for i in range(40)]
    workload = uniques + list(uniques)  # 50% duplicates

    # the dedup/ledger invariants are deterministic and must hold on
    # every attempt; the wall-clock speedup is best-of-3 so a noisy
    # scheduler hiccup on a loaded machine cannot flake the gate
    best, timings = 0.0, []
    for attempt in range(3):
        t_single, t_fleet = _demo_once(
            tmp_path, attempt, delay, uniques, workload
        )
        timings.append((t_single, t_fleet))
        best = max(best, t_single / t_fleet)
        if best >= 3.0:
            break
    # >= 3x the single-shard throughput on the same workload
    assert best >= 3.0, (
        f"fleet speedup {best:.2f}x < 3x across {len(timings)} "
        f"attempt(s): {timings}"
    )


# -- metrics hub integration -------------------------------------------------


def test_metrics_hub_exposes_fleet_section(tmp_path):
    from repro.instrument import MetricsHub

    shards = [LocalShard("s0", tmp_path / "s0")]
    with FleetRouter(shards) as router:
        router.submit(spec(steps=3)).result(timeout=30)
        hub = MetricsHub(fleet=router)
        snap = hub.snapshot()
        assert snap["fleet"]["fleet"]["completed"] == 1
        assert snap["fleet"]["schema"].startswith("repro.fleet_metrics/")
    assert MetricsHub().snapshot()["fleet"] == {}
