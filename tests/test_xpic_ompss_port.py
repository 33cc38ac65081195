"""Tests of the OmpSs-offload xPic port (approach 2 of section IV-B)."""

import pytest

from repro.apps.xpic import run_experiment, table2_setup
from repro.apps.xpic.ompss_port import run_xpic_ompss
from repro.engine import ExperimentSpec
from repro.hardware import build_deep_er_prototype


def test_ompss_port_completes_all_tasks():
    cfg = table2_setup(steps=10)
    r = run_xpic_ompss(build_deep_er_prototype(), cfg)
    assert r.tasks_completed == 20
    assert r.total_runtime > 0


def test_ompss_port_transfers_interface_buffers():
    """Every step ships fields down and moments back across modules."""
    cfg = table2_setup(steps=10)
    from repro.apps.xpic.workload import build_workload

    wl = build_workload(cfg, 1)
    r = run_xpic_ompss(build_deep_er_prototype(), cfg)
    # fields cross every step; moments cross from step 2 on (the
    # initial buffer already lives on the Cluster, the home module)
    expected = 10 * wl.fields_exchange_nbytes + 9 * wl.moments_exchange_nbytes
    assert r.bytes_offloaded == expected


def test_ompss_port_matches_spawn_pipeline_regime():
    """Approaches (1) and (2) express the same partition; their
    runtimes must land in the same regime (section IV-B: the choice was
    developer familiarity, not performance)."""
    cfg = table2_setup(steps=25)
    t_spawn = run_experiment(
        build_deep_er_prototype(), ExperimentSpec(mode="cb", config=cfg)
    ).total_runtime
    t_ompss = run_xpic_ompss(build_deep_er_prototype(), cfg, steps=25).total_runtime
    assert 0.6 < t_ompss / t_spawn < 1.4


def test_ompss_port_scales_with_steps():
    cfg = table2_setup(steps=5)
    t5 = run_xpic_ompss(build_deep_er_prototype(), cfg, steps=5).total_runtime
    t10 = run_xpic_ompss(build_deep_er_prototype(), cfg, steps=10).total_runtime
    assert t10 == pytest.approx(2 * t5, rel=0.1)


def test_ompss_numeric_matches_reference():
    """Portability (section III): the OmpSs-offload execution computes
    exactly the reference physics."""
    from repro.apps.xpic import SpeciesConfig, XpicConfig, XpicSimulation
    from repro.apps.xpic.ompss_numeric import run_xpic_ompss_numeric

    cfg = XpicConfig(
        nx=16, ny=16, dt=0.05, steps=3,
        species=(
            SpeciesConfig("e", -1.0, 1.0, 8),
            SpeciesConfig("i", +1.0, 100.0, 8),
        ),
    )
    ref = XpicSimulation(cfg)
    ref.run()
    fp = run_xpic_ompss_numeric(build_deep_er_prototype(), cfg)
    for key, val in ref.state_fingerprint().items():
        assert fp[key] == pytest.approx(val, rel=1e-12), key


def test_ompss_numeric_charges_simulated_time():
    from repro.apps.xpic import SpeciesConfig, XpicConfig
    from repro.apps.xpic.ompss_numeric import run_xpic_ompss_numeric

    cfg = XpicConfig(
        nx=16, ny=16, dt=0.05, steps=2,
        species=(SpeciesConfig("e", -1.0, 1.0, 4),),
    )
    machine = build_deep_er_prototype()
    run_xpic_ompss_numeric(machine, cfg)
    assert machine.sim.now > 0  # kernels + transfers were charged
