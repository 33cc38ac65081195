"""Pinned digests of the text every report renderer prints.

Each digest is the sha256 of one renderer's output for a fixed
document: run reports of small seeded runs (host timings removed, as
``tests/test_report_pins.py`` does), and hand-built sweep, tune, fault
plan, cache-stats, service, fleet and job-directory documents.  The
figure commands are pinned through ``repro fig7`` / ``repro fig8``.

Moving a renderer keeps every digest; a change to what one prints
moves its pin, and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from repro.autotune import TuneReport
from repro.cli import main
from repro.engine import Engine, ExperimentSpec, RunReport, SweepReport
from repro.fleet import merge_service_snapshots
from repro.partition import Partition
from repro.resiliency import FaultEvent, FaultPlan
from repro.serve import JobJournal, ServiceMetrics

HOST_TIMINGS = ("wall_time_s", "events_per_sec", "host_wall_s")

RENDER_PINS = {
    "run-cb-2": "96f04393e7073b6725bcd21ff5317e199be1209bcdb2c546533a1f3a7a1a06a4",
    "run-seismic-split-2": "c25eaa494117ff5aff53ac9f38bc051bf0fddf0e3c7f8ffe61fbd3c32ab2f938",
    "run-cb-8-malleable": "4ccc282f15024124a20f90d582c1f60cf292f98ffb43775d7f82384848397df9",
    "sweep": "fa64510ce59e242e74aae793d7bd5aa1658174a06e4bb575e588fb5512d3486b",
    "sweep-titled": "5c0887a8af40a45944895e9c5fa249f39dc5e2578902650eb333f7933c2cc10d",
    "tune": "51574e8720e1c04a62f45f399650ee8d542f4b50a872ff10eafad0c89b66a51b",
    "fault-plan": "b851cda9ce6bae5c5369db6673af1d2e70eef2907831f7d294b14b9aab80d4de",
    "fault-plan-poisson": "674f97d09edc5118c7ece2c4289949c96bfa1f8f9b1689c4d6101d9bcc1d26e1",
    "cache-stats": "6e6fa7eb13c1556a63f7ac159dbd63df075338b4540d1aa29d55c4c2e0da3124",
    "cache-stats-titled": "762915b0d24cadb865f848280593208f66be904a01445e4d8337766ac6d2c86a",
    "service": "982d16aa2ec0bfef3811d5fbe1dd523b63dbe41811625a75c8a56727adf986f3",
    "service-titled": "204994c2e25f059119ca30f61d58e21f7b27bc2fa5aa68531eb6efb986ee2fa6",
    "fleet-holds": "c1d34ff8f24309f5815be570d0381f754260d0f33a9f36746ef4418a08fbc602",
    "fleet-fails": "261938e11226b1a93735e054450373ed63494812fbc36469b3eda04fcbefa5a8",
    "serve-status": "966180cc6f8cc1948bd91368f970a7fa62aca930c4a9cde26c4b499339bc0047",
    "fig7": "08f4a9692a71f62656618c71295d1ffe7be22b951d0458d9d54dd7a5c20be43e",
    "fig8": "b1c143dff6a926e23be389d9f3815edfd52e05f299c9cb0cf1e9e5f70c7734e5",
}

RUN_SPECS = {
    "run-cb-2": ExperimentSpec(mode="C+B", nodes_per_solver=2, steps=5),
    "run-seismic-split-2": ExperimentSpec(
        app="seismic", mode="Split", nodes_per_solver=2, steps=5
    ),
    # CI's malleable smoke run: two Booster crashes, re-tuned
    "run-cb-8-malleable": ExperimentSpec(
        mode="C+B", nodes_per_solver=8, steps=60, ckpt_interval_s=0.5,
        fault_plan=FaultPlan([
            FaultEvent(time_s=0.3, kind="node_crash", target="bn00"),
            FaultEvent(time_s=0.3, kind="node_crash", target="bn01"),
        ], seed=1).to_dict(),
        malleability={"enabled": True},
    ),
}


def check(name, text):
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == RENDER_PINS[name], (
        f"{name}: the rendered text's sha256 is now {digest}"
    )


def canonical(report):
    """The report without its host timings."""
    d = report.to_dict()
    d["sim"] = {k: v for k, v in d["sim"].items() if k not in HOST_TIMINGS}
    return RunReport.from_dict(d)


@pytest.fixture(scope="module")
def runs():
    return {
        name: canonical(Engine().run(spec))
        for name, spec in RUN_SPECS.items()
    }


def service_snapshot(submitted=9):
    metrics = ServiceMetrics()
    for field, value in dict(
        submitted=submitted, accepted=5, coalesced=2, cache_hits=1,
        rejected=1, executed=5, completed=4, failed=1, requeued=1,
        batches=3, recovered=2, journal_replays=1, quarantined=1,
        quarantine_hits=0, deadline_misses=1, batch_timeouts=1,
        peak_queue_depth=4, peak_in_flight=2,
    ).items():
        setattr(metrics, field, value)
    for s in (0.002, 0.004, 0.03, 0.5):
        metrics.wait.record(s)
    for s in (0.1, 0.25, 1.5):
        metrics.run.record(s)
    snap = metrics.snapshot(queue_depth=1, in_flight=2)
    snap["heartbeat_age_s"] = 0.75
    return snap


CACHE_STATS = {
    "root": "/srv/store", "entries": 12, "stored_bytes": 1234567,
    "hits": 7, "misses": 5, "lru_hits": 4, "disk_hits": 3,
    "lru_entries": 6, "lru_capacity": 128, "bytes_read": 45678,
    "bytes_written": 987654,
}


@pytest.mark.parametrize("name", sorted(RUN_SPECS))
def test_run_report_text(runs, name):
    check(name, runs[name].render())


def test_sweep_report_text(runs):
    sweep = SweepReport(
        reports=[runs["run-cb-2"], runs["run-seismic-split-2"]],
        workers=2,
        host_wall_s=1.25,
    )
    check("sweep", sweep.render())
    title = "Sweep: two runs"
    check("sweep-titled", sweep.render(title=title))


def test_tune_report_text():
    def evaluated(*cands):
        return [
            {"label": p.label(), "predicted_s": pred, "measured_s": meas}
            for p, pred, meas in cands
        ]

    report = TuneReport.from_dict({
        "schema": "repro.tune_report/1",
        "preset": "deep-er",
        "steps": 12,
        "best": Partition(2, 2).to_dict(),
        "best_runtime_s": 0.5125,
        "baseline": {"label": "C+B 1+1", "measured_s": 0.8},
        "generations": [
            {"steps": 4, "evaluated": evaluated(
                (Partition(2, 2), 0.16, 0.17),
                (Partition(1, 1), 0.27, 0.26),
                (Partition(2, 0), 0.31, 0.35),
            )},
            {"steps": 12, "evaluated": evaluated(
                (Partition(2, 2), 0.5, 0.5125),
            )},
        ],
        "model": {"mean_abs_rel_err": 0.0244},
        "candidates_considered": 9,
        "evaluations": 4,
        "cache": CACHE_STATS,
        "host_wall_s": 3.5,
    })
    check("tune", report.render())


def test_fault_plan_text():
    plan = FaultPlan([
        FaultEvent(time_s=0.25, kind="node_crash", target="bn03"),
        FaultEvent(
            time_s=0.5, kind="link_down", target=("sw.booster", "sw.cluster"),
            duration_s=0.125,
        ),
        FaultEvent(
            time_s=1.0, kind="link_degrade", target=("cn00", "sw.cluster"),
            duration_s=2.0, factor=0.25,
        ),
    ], seed=11)
    check("fault-plan", plan.render())
    poisson = FaultPlan.poisson(
        mtbf_s=3600.0, horizon_s=7200.0, targets=["bn00", "bn01", "bn02"],
        seed=5,
    )
    check("fault-plan-poisson", poisson.render())


def test_cache_stats_text():
    from repro.store.tiered import render_cache_stats

    check("cache-stats", render_cache_stats(CACHE_STATS))
    stats = CACHE_STATS
    check("cache-stats-titled", render_cache_stats(stats, title="Store"))


def test_service_metrics_text():
    from repro.serve.metrics import render_service_metrics

    snap = service_snapshot()
    title = "Experiment service (jobs)"
    check("service", render_service_metrics(snap))
    check("service-titled", render_service_metrics(snap, title=title))


@pytest.mark.parametrize(
    "name, submitted, code", [("fleet-holds", 9, 0), ("fleet-fails", 10, 1)]
)
def test_fleet_status_text(name, submitted, code):
    from repro.fleet.metrics import render_fleet_status

    shards = {
        "shard-00": service_snapshot(submitted),
        "shard-01": service_snapshot(),
    }
    doc = {
        "schema": "repro.fleet_metrics/1",
        "fleet": merge_service_snapshots(list(shards.values())),
        "shards": shards,
        "router": {
            "routed": 18, "sticky_routed": 16, "stolen": 2, "synced": 2,
            "rejected_full": 1, "shard_deaths": 1, "restarts": 1,
            "rebalanced": 1, "rerouted_jobs": 3, "outstanding": 0,
            "inflight_keys": 0, "shards_live": 2, "shards_total": 3,
            "shards_lost": ["shard-02"],
            "ring_shares": {"shard-00": 0.5123, "shard-01": 0.4877},
        },
    }
    text, exit_code = render_fleet_status(doc)
    assert exit_code == code
    check(name, text)


def test_serve_status_text(tmp_path):
    from repro.serve.filejob import render_serve_status

    jobdir = tmp_path / "jobs"
    jobdir.mkdir()
    (jobdir / "metrics.json").write_text(json.dumps(
        {"schema": "repro.service_metrics/1", **service_snapshot()}
    ))
    journal = JobJournal(jobdir / "journal.jsonl")
    journal.record_accepted(1, "k1", {"steps": 3}, meta={"request_id": "a"})
    journal.record_accepted(2, "k2", {"steps": 4}, meta={"request_id": "b"})
    journal.record_completed(1)
    journal.record_quarantined(2, "k2", "poison")
    text, exit_code = render_serve_status(jobdir)
    assert exit_code == 0
    check("serve-status", text.replace(str(jobdir), "<jobdir>"))


@pytest.mark.parametrize("name, steps", [("fig7", "5"), ("fig8", "3")])
def test_figure_command_text(capsys, name, steps):
    assert main([name, "--steps", steps]) == 0
    check(name, capsys.readouterr().out)
