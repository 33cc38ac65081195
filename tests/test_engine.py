"""Tests for the experiment engine: specs, runs, and run reports."""

import json

import pytest

from repro.engine import (
    REPORT_SCHEMA,
    SWEEP_SCHEMA,
    Engine,
    ExperimentSpec,
    RunReport,
    SweepReport,
    normalize_mode,
    preset_machine,
)
from repro.apps.xpic import Mode, XpicConfig
from repro.partition import Partition


# -- ExperimentSpec ---------------------------------------------------------

def test_spec_defaults_and_mode_normalization():
    spec = ExperimentSpec(mode="cb")
    assert spec.mode == "C+B"
    assert ExperimentSpec(mode="Cluster").mode == "Cluster"
    assert ExperimentSpec(mode="booster").mode == "Booster"
    assert ExperimentSpec(app="seismic", mode="split").mode == "Split"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"preset": "nonexistent"},
        {"app": "weather"},
        {"mode": "hybrid"},
        {"steps": -1},
        {"nodes_per_solver": 0},
        {"app": "seismic", "mode": "C+B"},
    ],
)
def test_spec_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        ExperimentSpec(**kwargs)


def test_normalize_mode_aliases():
    assert normalize_mode("c+b") is Mode.CB
    assert normalize_mode(Mode.CLUSTER) is Mode.CLUSTER
    assert normalize_mode("Booster") is Mode.BOOSTER
    with pytest.raises(ValueError):
        normalize_mode("gpu")


def test_spec_dict_round_trip_with_config():
    cfg = XpicConfig(nx=32, ny=32, steps=7)
    spec = ExperimentSpec(
        mode="cb",
        steps=7,
        config=cfg,
        machine_overrides={"cluster_nodes": 2, "booster_nodes": 2},
    )
    back = ExperimentSpec.from_dict(spec.to_dict())
    assert back == spec
    assert back.config == cfg


def test_preset_machine_builds_through_spec_path():
    m = preset_machine(cluster_nodes=2, booster_nodes=2)
    assert len(m.cluster) == 2 and len(m.booster) == 2
    with pytest.raises(ValueError):
        preset_machine("nonexistent")


def test_build_machine_applies_overrides():
    spec = ExperimentSpec(machine_overrides={"cluster_nodes": 3})
    assert len(Engine().build_machine(spec).cluster) == 3


# -- engine runs ------------------------------------------------------------

@pytest.fixture(scope="module")
def cb_report():
    """One traced 5-step C+B run shared by the inspection tests."""
    return Engine().run(ExperimentSpec(mode="cb", steps=5, trace=True))


def test_cb_run_reports_all_layers(cb_report):
    r = cb_report
    # app result
    assert r.total_runtime > 0
    assert r.fields_time > 0 and r.particles_time > 0
    # simulator counters
    assert r.sim["events_processed"] > 0
    assert r.sim["fast_wakeups"] > 0
    assert r.sim["sim_time_s"] >= r.total_runtime
    # fabric: the C<->B exchange crossed real links
    assert r.network["total_bytes"] > 0
    assert r.network["links"], "expected per-link traffic"
    for stats in r.network["links"].values():
        assert stats["bytes"] > 0 and stats["messages"] > 0
    # MPI: the spawn inter-communicator carried the exchange
    inter = r.comm_stats("world<->xpic-field-solver")
    assert inter["p2p_messages"] > 0 and inter["p2p_bytes"] > 0
    # traced phases rolled up per actor
    assert r.phases["CN0"]["fields"] > 0
    assert r.phases["BN0"]["particles"] > 0


def test_run_report_json_round_trip(cb_report):
    text = cb_report.to_json()
    back = RunReport.from_json(text)
    assert back.to_dict() == cb_report.to_dict()
    d = json.loads(text)
    assert d["schema"] == REPORT_SCHEMA
    assert set(d) == {
        "schema", "spec", "result", "sim", "network", "mpi",
        "phases", "intervals", "resiliency", "malleability",
    }


def test_run_report_save_load(tmp_path, cb_report):
    path = tmp_path / "report.json"
    cb_report.save(path)
    loaded = RunReport.load(path)
    assert loaded.total_runtime == cb_report.total_runtime
    assert loaded.network == cb_report.network


def test_chrome_trace_export(tmp_path, cb_report):
    events = cb_report.to_chrome_trace()
    assert events, "expected trace events"
    phs = {e["ph"] for e in events}
    assert {"M", "X", "C"} <= phs
    for e in events:
        if e["ph"] == "X":
            assert e["dur"] >= 0 and e["ts"] >= 0
    # one process per actor, named by a process_name metadata event
    names = {e["pid"]: e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    pid_of = {}
    for iv, e in zip(cb_report.intervals,
                     (e for e in events if e["ph"] == "X")):
        assert pid_of.setdefault(iv["actor"], e["pid"]) == e["pid"]
        assert names[e["pid"]] == iv["actor"]
    assert len(set(pid_of.values())) == len(pid_of) > 1
    path = tmp_path / "run.trace.json"
    cb_report.save_chrome_trace(path)
    assert json.loads(path.read_text()) == events


def test_deterministic_across_identical_runs():
    spec = ExperimentSpec(mode="cb", steps=5, trace=True, seed=7)
    a = Engine().run(spec)
    b = Engine().run(spec)
    # everything but host-side timing must match exactly
    for key in ("spec", "result", "network", "mpi", "phases", "intervals"):
        assert a.to_dict()[key] == b.to_dict()[key], key
    for key in ("events_processed", "fast_wakeups", "sim_time_s"):
        assert a.sim[key] == b.sim[key], key


def test_seed_changes_the_workload():
    base = Engine().run(ExperimentSpec(mode="cb", steps=5))
    other = Engine().run(ExperimentSpec(mode="cb", steps=5, seed=99))
    assert base.spec["seed"] != other.spec["seed"]


def test_custom_config_wins_over_steps():
    cfg = XpicConfig(nx=32, ny=32, steps=3)
    r = Engine().run(ExperimentSpec(mode="cluster", steps=100, config=cfg))
    assert r.result["steps"] == 3


def test_seismic_run_through_engine():
    r = Engine().run(ExperimentSpec(app="seismic", mode="Booster", steps=20))
    assert r.result["app"] == "seismic"
    assert r.total_runtime > 0
    # monolithic single-node run: no fabric traffic, but the sim ran
    assert r.sim["events_processed"] > 0


def test_seismic_split_reports_fabric_traffic():
    r = Engine().run(ExperimentSpec(app="seismic", mode="Split", steps=5))
    assert r.network["total_bytes"] > 0
    assert r.comm_overhead_fraction > 0


def test_untraced_run_has_no_intervals():
    r = Engine().run(ExperimentSpec(mode="cb", steps=3))
    assert r.intervals == []
    assert r.phases == {}
    # the chrome trace degrades gracefully to counters only
    assert all(e["ph"] in ("M", "C") for e in r.to_chrome_trace())


# -- run_many / SweepReport -------------------------------------------------

SWEEP_SPECS = [ExperimentSpec(mode="cb", steps=s) for s in (2, 3, 4)]


def test_run_many_parallel_matches_serial_in_spec_order():
    serial = Engine().run_many(SWEEP_SPECS, workers=1)
    parallel = Engine().run_many(SWEEP_SPECS, workers=2)
    assert serial.workers == 1 and parallel.workers == 2
    # spec order regardless of worker completion order (the pool got
    # them longest first: 4, 3, 2 steps)
    assert [r.result["steps"] for r in parallel.reports] == [2, 3, 4]
    # parallel payloads are bit-identical to a serial sweep
    for a, b in zip(serial.reports, parallel.reports):
        assert a.result == b.result
        assert a.network == b.network
        assert a.mpi == b.mpi
    # pooled reports lose the in-memory handle but keep attribute access
    assert parallel.reports[0].run_result is None
    assert serial.reports[0].run_result is not None
    for sweep in (serial, parallel):
        assert sweep.reports[0].result_view.total_runtime > 0


#: a sweep whose longest run comes last in spec order; steps x ranks:
#: 6, 24, 12, 12, 8 (nested: 8 ranks), 8 (Split: 2 + 2), 32 (the
#: config's 4 steps on 4 + 4 ranks)
LONGEST_LAST_SPECS = [
    ExperimentSpec(mode="C+B", nodes_per_solver=1, steps=3),
    ExperimentSpec(mode="Cluster", nodes_per_solver=4, steps=6),
    ExperimentSpec(mode="C+B", nodes_per_solver=2, steps=3),
    ExperimentSpec(mode="Booster", nodes_per_solver=4, steps=3),
    Partition(8, 0, cluster_arm=Partition(4, 4)).to_spec(steps=1),
    ExperimentSpec(app="seismic", mode="Split", nodes_per_solver=2, steps=2),
    ExperimentSpec(mode="C+B", nodes_per_solver=4, steps=2, config=XpicConfig(
        nx=32, ny=32, steps=4,
    )),
]


class _RecordingPool:
    """An external pool that runs every payload in-process and records
    the order they were submitted in."""

    def __init__(self):
        self.submitted = []

    def map(self, fn, payloads, chunksize=1):
        payloads = list(payloads)
        self.submitted.extend(payloads)
        return [fn(p) for p in payloads]


def _physics(report):
    d = report.to_dict()
    del d["sim"]
    return json.dumps(d, sort_keys=True)


def test_run_many_submits_longest_first_and_reports_in_spec_order():
    """The pool gets the uncached specs by descending steps x ranks
    (the config's steps win, C+B and Split count both sides, a nested
    partition all its nodes; ties keep spec order), and the sweep
    still reports in spec order, equal to a serial sweep."""
    pool = _RecordingPool()
    pooled = Engine().run_many(LONGEST_LAST_SPECS, pool=pool)
    order = [
        LONGEST_LAST_SPECS.index(ExperimentSpec.from_dict(d))
        for d in pool.submitted
    ]
    assert order == [6, 1, 2, 3, 4, 5, 0]
    serial = Engine().run_many(LONGEST_LAST_SPECS, workers=1)
    assert [_physics(r) for r in pooled.reports] == [
        _physics(r) for r in serial.reports
    ]


def test_run_many_serial_fallback_for_unpicklable_spec():
    class _N(int):  # local class: runnable, but its pickle fails
        pass

    specs = [
        ExperimentSpec(mode="cb", steps=2, machine_overrides={"cluster_nodes": _N(1)}),
        ExperimentSpec(mode="cb", steps=2),
    ]
    sweep = Engine().run_many(specs, workers=4)
    assert sweep.workers == 1  # fell back to serial
    assert all(r.run_result is not None for r in sweep.reports)
    assert all(r.total_runtime > 0 for r in sweep.reports)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_many_worker_failure_surfaces_original_exception(workers):
    specs = [
        ExperimentSpec(mode="cb", steps=2),
        ExperimentSpec(mode="cb", steps=2, machine_overrides={"bogus_kw": 1}),
    ]
    with pytest.raises(TypeError, match="bogus_kw"):
        Engine().run_many(specs, workers=workers)


def test_run_many_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        Engine().run_many(SWEEP_SPECS, workers=0)


def test_sweep_report_merged_metrics_and_json_round_trip(tmp_path):
    sweep = Engine().run_many(SWEEP_SPECS, workers=1)
    merged = sweep.merged_metrics()
    assert merged["runs"] == len(sweep) == 3
    assert merged["sim_events"] == sum(r.sim["events_processed"] for r in sweep)
    assert merged["network_bytes"] == sum(r.network["total_bytes"] for r in sweep)
    assert merged["fast_transfers"] > 0
    assert merged["sim_time_s"] > 0
    path = tmp_path / "sweep.json"
    sweep.save(path)
    loaded = SweepReport.load(path)
    assert loaded.schema == SWEEP_SCHEMA
    assert loaded.workers == sweep.workers
    assert loaded.to_dict() == sweep.to_dict()
    assert [r.result for r in loaded] == sweep.results
    with pytest.raises(ValueError):
        SweepReport.from_dict({"schema": SWEEP_SCHEMA})


# -- run teardown -------------------------------------------------------------

#: CI's malleability plan: a quarter of the Booster crashes at 0.3 s
_TWO_BOOSTER_CRASHES = {
    "schema": "repro.fault_plan/1",
    "seed": 1,
    "mtbf_s": None,
    "events": [
        {"time_s": 0.3, "kind": "node_crash", "target": "bn00"},
        {"time_s": 0.3, "kind": "node_crash", "target": "bn01"},
    ],
}


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec(mode="C+B", nodes_per_solver=8, steps=10),
        ExperimentSpec(mode="Cluster", nodes_per_solver=4, steps=10),
        ExperimentSpec(app="seismic", mode="Split", nodes_per_solver=4, steps=10),
        ExperimentSpec(
            mode="C+B",
            nodes_per_solver=8,
            steps=60,
            fault_plan=_TWO_BOOSTER_CRASHES,
            ckpt_interval_s=0.5,
        ),
        ExperimentSpec(
            mode="C+B",
            nodes_per_solver=8,
            steps=60,
            fault_plan=_TWO_BOOSTER_CRASHES,
            ckpt_interval_s=0.5,
            malleability={"enabled": True},
        ),
    ],
    ids=["cb-8", "cluster-4", "seismic-split-4", "cb-8-heal", "cb-8-malleable"],
)
def test_run_leaves_no_cyclic_garbage(spec):
    """A finished run's object graph (simulator, queue, processes,
    mailboxes) is freed by reference counting alone: nothing is left
    for the cyclic collector, also after a crash and its recovery
    (an aborted rank keeps its exception, not the traceback's frames)."""
    import gc

    Engine().run(ExperimentSpec(mode="C+B", nodes_per_solver=1, steps=2))
    gc.collect()
    gc.disable()
    try:
        report = Engine().run(spec)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert report.result["total_runtime"] > 0
    if spec.fault_plan is not None:
        assert report.resiliency["restarts"] == 1
    assert unreachable == 0
