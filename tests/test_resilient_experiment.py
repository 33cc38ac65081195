"""End-to-end tests of the resilient xPic supervisor and engine wiring.

The headline scenarios of the fault-injection stack: a partitioned C+B
run losing a Booster node mid-flight and completing through an SCR
restart, graceful degradation to a Cluster-only run when the Booster
partition stays down, the zero-fault guarantee (an empty plan perturbs
nothing), and the Daly model validated against the simulator.
"""

import statistics
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.apps.xpic import XpicConfig, run_experiment
from repro.apps.xpic.resilient_driver import run_resilient_experiment
from repro.engine import Engine, ExperimentSpec
from repro.hardware import build_deep_er_prototype
from repro.mpi import MPIRuntime
from repro.resiliency import (
    SCR,
    FaultEvent,
    FaultPlan,
    MalleabilityPolicy,
    expected_runtime,
)

CFG = XpicConfig(steps=120)


def _spec(**kwargs):
    """A C+B 1+1 run of ``CFG`` with ``kwargs`` set."""
    return ExperimentSpec(mode="cb", config=CFG, **kwargs)


def _plain_runtime():
    m = build_deep_er_prototype()
    return run_experiment(m, _spec()).total_runtime


# ------------------------------------------------------- crash + restart
def test_booster_crash_recovers_via_scr_restart():
    base = _plain_runtime()
    plan = FaultPlan(
        [FaultEvent(time_s=0.6 * base, kind="node_crash", target="bn00")]
    )
    m = build_deep_er_prototype()
    rr, res, _ = run_resilient_experiment(
        m, _spec(fault_plan=plan, ckpt_interval_s=0.8)
    )
    assert res["restarts"] >= 1
    assert res["lost_work_s"] > 0
    assert res["restored_steps"] and res["restored_steps"][0] > 0
    assert res["checkpoints"]["buddy"] > 0
    assert res["node_replacements"] >= 1
    assert not res["degraded_mode"]
    # the run completed all its steps, and the crash + rework shows up
    # in the wall clock
    assert rr.steps == CFG.steps
    assert rr.total_runtime > base


def test_crash_without_checkpoints_restarts_from_scratch():
    plan = FaultPlan(
        [FaultEvent(time_s=0.5, kind="node_crash", target="bn00")]
    )
    m = build_deep_er_prototype()
    rr, res, _ = run_resilient_experiment(m, _spec(fault_plan=plan))
    # no cadence configured: nothing to restart from, the whole prefix
    # is lost work
    assert res["restarts"] == 1
    assert res["restored_steps"] == []
    assert res["lost_work_s"] == pytest.approx(0.5, abs=0.2)
    assert rr.steps == CFG.steps


def _crashes(*events):
    return FaultPlan(
        [FaultEvent(time_s=t, kind="node_crash", target=n) for t, n in events]
    )


def test_crash_of_the_replacement_spare_is_a_job_crash():
    # bn00 dies and bn02 takes its place; the job now runs on bn02, so
    # bn02's crash must abort and restart it, not starve its transfers
    m = build_deep_er_prototype()
    rr, res, _ = run_resilient_experiment(
        m,
        _spec(
            fault_plan=_crashes((1.0, "bn00"), (3.0, "bn02")),
            ckpt_interval_s=0.8,
        ),
    )
    assert res["restarts"] == 2 and res["epochs"] == 3
    assert res["node_replacements"] == 2
    assert res["transport"]["failures"] == 0
    assert res["transport"]["retries"] == 0
    assert rr.steps == CFG.steps


@pytest.mark.parametrize(
    "nodes, events, policy",
    [
        (2, ((1.0, "bn00"),), None),
        (8, ((0.3, "bn00"), (0.3, "bn01")), MalleabilityPolicy()),
    ],
    ids=["heal", "re-tune"],
)
def test_no_checkpoint_starts_within_an_interval_of_a_relaunch(
    monkeypatch, nodes, events, policy
):
    interval = 0.5
    starts, launches = [], []
    checkpoint, launch = SCR.checkpoint, MPIRuntime.launch

    def recording_checkpoint(self, *args, **kwargs):
        starts.append(self.sim.now)
        return checkpoint(self, *args, **kwargs)

    def recording_launch(self, app, nodes, *args, **kwargs):
        if kwargs.get("name", "world") == "world":  # not a spawn
            launches.append(self.sim.now)
        return launch(self, app, nodes, *args, **kwargs)

    monkeypatch.setattr(SCR, "checkpoint", recording_checkpoint)
    monkeypatch.setattr(MPIRuntime, "launch", recording_launch)
    m = build_deep_er_prototype()
    _, res, _ = run_resilient_experiment(
        m,
        _spec(
            nodes_per_solver=nodes, fault_plan=_crashes(*events),
            ckpt_interval_s=interval, malleability=policy,
        ),
    )
    assert res["restarts"] == 1 and len(launches) == 2
    relaunch = launches[1]
    assert any(t >= relaunch for t in starts)  # the cadence resumed
    assert not [t for t in starts if relaunch <= t < relaunch + interval]


def test_readme_mtbf_run_clock_ends_with_the_job():
    # a zero-crash MTBF run: the stopped injector's next fault must not
    # drag the clock (and the post-fault window) along with it
    report = Engine().run(ExperimentSpec(mode="cb", steps=100, mtbf_s=3600))
    res = report.resiliency
    assert res["restarts"] == 0
    total = report.result["total_runtime"]
    assert report.sim["sim_time_s"] == pytest.approx(total, rel=0.02)
    assert res["post_fault"]["steps_per_s"] > 1


# ------------------------------------------------------- degradation
def test_booster_loss_degrades_to_cluster_run():
    m = build_deep_er_prototype()
    events = [
        FaultEvent(time_s=1.0, kind="node_crash", target=n.node_id)
        for n in m.booster
    ]
    rr, res, _ = run_resilient_experiment(
        m,
        _spec(fault_plan=FaultPlan(events), ckpt_interval_s=0.8),
        allow_reboot=False,
    )
    assert res["degraded_mode"]
    assert res["restarts"] >= 1
    assert rr.steps == CFG.steps


# ------------------------------------------------------- zero-fault path
def test_zero_fault_plan_is_bit_identical_to_plain_run():
    m_plain = build_deep_er_prototype()
    plain = run_experiment(m_plain, _spec())
    m_chaos = build_deep_er_prototype()
    rr, res, _ = run_resilient_experiment(
        m_chaos, _spec(fault_plan=FaultPlan())
    )
    assert rr.total_runtime == plain.total_runtime
    assert rr.fields_time == plain.fields_time
    assert rr.particles_time == plain.particles_time
    assert m_chaos.sim.now == m_plain.sim.now
    assert res["restarts"] == 0 and res["epochs"] == 1
    assert res["faults"]["injected"]["node_crash"] == 0


def test_engine_zero_event_plan_uses_plain_driver():
    plan = FaultPlan()
    spec = ExperimentSpec(mode="cb", steps=10, fault_plan=plan)
    assert not spec.wants_resiliency
    report = Engine().run(spec)
    assert report.resiliency == {}
    base = Engine().run(ExperimentSpec(mode="cb", steps=10))
    assert report.result == base.result


# ------------------------------------------------------- engine + sweeps
@pytest.fixture(scope="module")
def chaos_spec():
    """A small engine-level chaos spec shared by the sweep tests."""
    plan = FaultPlan(
        [FaultEvent(time_s=1.0, kind="node_crash", target="bn00")]
    )
    return ExperimentSpec(
        mode="cb", steps=60, fault_plan=plan, ckpt_interval_s=0.5
    )


def test_engine_reports_resiliency_section(chaos_spec):
    report = Engine().run(chaos_spec)
    res = report.resiliency
    assert res["enabled"]
    assert res["restarts"] >= 1
    assert res["lost_work_s"] > 0
    assert report.mpi["transport"]["failures"] >= 0
    # the section round-trips through JSON with the rest of the report
    from repro.engine import RunReport

    back = RunReport.from_json(report.to_json())
    assert back.resiliency == res


HOST_TIMING_KEYS = ("wall_time_s", "host_wall_s", "events_per_sec")


def _comparable(report):
    d = report.to_dict()
    for k in HOST_TIMING_KEYS:
        d["sim"].pop(k, None)
    return d


def test_chaos_run_deterministic_serial_and_pooled(chaos_spec):
    serial = Engine().run_many([chaos_spec, chaos_spec], workers=1)
    pooled = Engine().run_many([chaos_spec, chaos_spec], workers=2)
    dicts = [
        _comparable(r) for r in (*serial.reports, *pooled.reports)
    ]
    assert dicts[0] == dicts[1] == dicts[2] == dicts[3]


def test_run_many_broken_pool_falls_back_to_serial(chaos_spec, monkeypatch):
    import concurrent.futures

    class _DyingPool:
        def __init__(self, *a, **kw):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, *a, **kw):
            raise BrokenProcessPool("worker died")

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _DyingPool
    )
    specs = [ExperimentSpec(mode="cb", steps=2), ExperimentSpec(mode="cb", steps=3)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep = Engine().run_many(specs, workers=2)
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    assert sweep.workers == 1
    assert [r.result["steps"] for r in sweep.reports] == [2, 3]


# ------------------------------------------------------- Daly validation
def test_poisson_failures_match_daly_expected_runtime():
    """Mean wall time over 10 seeded MTBF runs tracks the Daly model."""
    work = _plain_runtime()
    mtbf = 5.0
    walls, intervals, ccosts, rcosts, crashes = [], [], [], [], []
    for seed in range(10):
        m = build_deep_er_prototype()
        rr, res, _ = run_resilient_experiment(
            m, _spec(mtbf_s=mtbf, seed=seed)
        )
        crashes.append(res["faults"]["injected"]["node_crash"])
        walls.append(rr.total_runtime)
        intervals.append(res["ckpt_interval_s"])
        if res["checkpoint_cost_s"]:
            ccosts.append(res["checkpoint_cost_s"])
        if res["restart_cost_s"]:
            rcosts.append(res["restart_cost_s"])
    c = statistics.mean(ccosts)
    r = statistics.mean(rcosts) if rcosts else c
    model = expected_runtime(
        work, statistics.mean(intervals), c, r, mtbf
    )
    mean_wall = statistics.mean(walls)
    assert mean_wall == pytest.approx(model, rel=0.15)
    # the stream follows the job onto its spares: a run can crash twice
    assert max(crashes) >= 2
