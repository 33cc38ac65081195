"""Tests of the partitioned xPic drivers on the simulated machine.

These check the *structure* of the paper's evaluation results (who
wins, orderings, overhead bands) on short runs; the full-length runs
live in benchmarks/.
"""

import dataclasses

import pytest

from repro.apps.xpic import Mode, XpicConfig, run_experiment, table2_setup
from repro.apps.xpic.resilient_driver import run_resilient_experiment
from repro.apps.xpic.workload import build_workload
from repro.engine import Engine, ExperimentSpec
from repro.hardware import build_deep_er_prototype
from repro.partition import Partition
from repro.perfmodel import parallel_efficiency
from repro.resiliency import FaultEvent, FaultPlan


def short_cfg(steps=50):
    return table2_setup(steps=steps)


def run(mode, n=1, steps=50):
    machine = build_deep_er_prototype()
    spec = ExperimentSpec(mode=mode, nodes_per_solver=n, steps=steps)
    return run_experiment(machine, spec)


@pytest.fixture(scope="module")
def single_node():
    return {mode: run(mode) for mode in Mode}


def test_modes_complete_and_time_positive(single_node):
    for mode, r in single_node.items():
        assert r.total_runtime > 0
        assert r.fields_time > 0
        assert r.particles_time > 0


def test_fig7_cb_wins_single_node(single_node):
    """Fig 7: the C+B mode beats both homogeneous modes."""
    assert single_node[Mode.CB].total_runtime < single_node[Mode.CLUSTER].total_runtime
    assert single_node[Mode.CB].total_runtime < single_node[Mode.BOOSTER].total_runtime


def test_fig7_gain_bands(single_node):
    """Paper: 1.28x vs Cluster, 1.21x vs Booster — we accept a band
    around those (our overlap model is idealized)."""
    cb = single_node[Mode.CB].total_runtime
    gain_c = single_node[Mode.CLUSTER].total_runtime / cb
    gain_b = single_node[Mode.BOOSTER].total_runtime / cb
    assert 1.15 < gain_c < 1.5
    assert 1.10 < gain_b < 1.45
    assert gain_c > gain_b  # Cluster-only is the slower baseline


def test_fig7_field_solver_placement(single_node):
    """Fields run ~6x faster on the Cluster (section IV-C)."""
    ratio = (
        single_node[Mode.BOOSTER].fields_time
        / single_node[Mode.CLUSTER].fields_time
    )
    assert 5.0 < ratio < 7.0


def test_fig7_particle_solver_placement(single_node):
    """Particles run ~1.35x faster on the Booster (section IV-C)."""
    ratio = (
        single_node[Mode.CLUSTER].particles_time
        / single_node[Mode.BOOSTER].particles_time
    )
    assert 1.2 < ratio < 1.5


def test_cb_total_close_to_sum_of_parts(single_node):
    """C+B total ~ field part + particle part + small overhead."""
    r = single_node[Mode.CB]
    parts = r.fields_time + r.particles_time
    assert parts <= r.total_runtime < 1.1 * parts


def test_cb_comm_overhead_small_fraction(single_node):
    """The interface exchange is a small fraction of the run (sec IV-C)."""
    assert single_node[Mode.CB].comm_overhead_fraction < 0.08


def test_fig8_runtime_decreases_with_nodes():
    for mode in Mode:
        times = [run(mode, n=n, steps=30).total_runtime for n in (1, 2, 4)]
        assert times[0] > times[1] > times[2]


def test_fig8_gain_grows_with_nodes():
    """Fig 8: 'the performance gain of the C+B mode increases with the
    number of nodes'."""
    gain = {}
    for n in (1, 8):
        rc = run(Mode.CLUSTER, n=n, steps=50)
        rcb = run(Mode.CB, n=n, steps=50)
        gain[n] = rc.total_runtime / rcb.total_runtime
    assert gain[8] > gain[1]


def test_fig8_efficiency_ordering_at_8_nodes():
    """Fig 8: parallel efficiency C+B > Cluster > Booster at 8 nodes."""
    eff = {}
    for mode in Mode:
        t1 = run(mode, n=1, steps=50).total_runtime
        t8 = run(mode, n=8, steps=50).total_runtime
        eff[mode] = parallel_efficiency(t1, t8, 8)
    assert eff[Mode.CB] > eff[Mode.CLUSTER] > eff[Mode.BOOSTER]
    # all parallel efficiencies in a plausible band around the paper's
    for mode in Mode:
        assert 0.65 < eff[mode] < 1.0


def test_workload_strong_scaling_divides_work():
    cfg = short_cfg()
    w1 = build_workload(cfg, 1)
    w4 = build_workload(cfg, 4)
    assert w4.cells_per_rank == w1.cells_per_rank // 4
    assert w4.particles_per_rank == w1.particles_per_rank // 4
    assert w1.field_halo_nbytes == 0  # no neighbours at n=1
    assert w4.field_halo_nbytes > 0


def test_workload_imbalance_mean_is_one():
    cfg = short_cfg()
    for n in (2, 4, 8):
        wl = build_workload(cfg, n)
        factors = [wl.imbalance_factor(r) for r in range(n)]
        assert sum(factors) / n == pytest.approx(1.0)
        assert max(factors) == factors[0] > 1.0


def test_workload_validation():
    cfg = short_cfg()
    with pytest.raises(ValueError):
        build_workload(cfg, 0)
    with pytest.raises(ValueError):
        build_workload(cfg, 5)  # 64 rows not divisible by 5


def test_io_snapshot_time_grows_with_ranks():
    cfg = short_cfg()
    t1 = build_workload(cfg, 1).io_snapshot_time()
    t8 = build_workload(cfg, 8).io_snapshot_time()
    assert t8 > t1  # task-local metadata cost grows with rank count


def test_insufficient_nodes_rejected():
    machine = build_deep_er_prototype(cluster_nodes=2, booster_nodes=2)
    for mode in (Mode.CLUSTER, Mode.CB):
        spec = ExperimentSpec(mode=mode, nodes_per_solver=4, steps=50)
        with pytest.raises(ValueError):
            run_experiment(machine, spec)


def test_mode_accepts_string():
    machine = build_deep_er_prototype()
    r = run_experiment(machine, ExperimentSpec(mode="Cluster", steps=5))
    assert r.mode is Mode.CLUSTER


def test_runtime_scales_with_steps():
    r10 = run(Mode.CLUSTER, steps=10)
    r20 = run(Mode.CLUSTER, steps=20)
    assert r20.total_runtime == pytest.approx(2 * r10.total_runtime, rel=0.05)


def _losing_bn00(**kwargs):
    """A 60-step C+B run of a small config that loses bn00 at 2 s,
    after its first checkpoint."""
    plan = FaultPlan(
        [FaultEvent(time_s=2.0, kind="node_crash", target="bn00")]
    )
    return ExperimentSpec(
        mode="cb", config=XpicConfig(steps=60), fault_plan=plan,
        ckpt_interval_s=0.5, **kwargs,
    )


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec(mode="cb", steps=20, nodes_per_solver=2),
        Partition(4, 0, cluster_arm=Partition(2, 2)).to_spec(20),
        _losing_bn00(),
        _losing_bn00(nodes_per_solver=2, malleability={"enabled": True}),
    ],
    ids=["flat-cb", "nested", "heal", "re-tune"],
)
def test_drivers_report_what_the_engine_reports_for_a_spec(spec):
    """Each driver reads every run input from its spec: called with one
    directly, it returns the result, resiliency and malleability
    sections the engine reports for the same spec."""
    report = Engine().run(spec)
    machine = spec.build_machine()
    if spec.wants_resiliency:
        rr, resiliency, malleability = run_resilient_experiment(machine, spec)
        assert resiliency["restored_steps"]  # the crash cost a restore
    else:
        rr, resiliency, malleability = run_experiment(machine, spec), {}, {}
    for key, value in dataclasses.asdict(rr).items():
        assert report.result[key] == value, key
    assert resiliency == report.resiliency
    assert malleability == report.malleability
    assert bool(malleability) == spec.wants_malleability
