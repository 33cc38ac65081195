"""Tests for the power/energy model."""

import pytest

from repro.apps.xpic import Mode, run_experiment
from repro.engine import ExperimentSpec
from repro.hardware import build_deep_er_prototype
from repro.hardware.node import NodeKind
from repro.perfmodel import PowerModel
from repro.perfmodel.power import NodePower


def test_node_power_validation():
    with pytest.raises(ValueError):
        NodePower(busy_w=100.0, idle_w=200.0)
    with pytest.raises(ValueError):
        NodePower(busy_w=100.0, idle_w=-1.0)


def test_energy_busy_idle_split():
    pm = PowerModel()
    e = pm.energy(NodeKind.CLUSTER, busy_s=10.0, idle_s=5.0)
    assert e == pytest.approx(320.0 * 10 + 110.0 * 5)


def test_energy_negative_time_rejected():
    pm = PowerModel()
    with pytest.raises(ValueError):
        pm.energy(NodeKind.CLUSTER, busy_s=-1.0)


def test_custom_power_table_override():
    pm = PowerModel({NodeKind.CLUSTER: NodePower(400.0, 100.0)})
    assert pm.node_power(NodeKind.CLUSTER, busy=True) == 400.0
    # other kinds keep defaults
    assert pm.node_power(NodeKind.BOOSTER, busy=True) == 280.0


def test_run_energy_report():
    pm = PowerModel()
    rep = pm.run_energy(
        10.0,
        {
            NodeKind.CLUSTER: {"cn00": 10.0},
            NodeKind.BOOSTER: {"bn00": 4.0},
        },
    )
    expected = 320.0 * 10 + (280.0 * 4 + 95.0 * 6)
    assert rep.energy_j == pytest.approx(expected)
    assert rep.node_count == 2
    assert rep.mean_power_w == pytest.approx(expected / 10.0)
    assert rep.energy_kwh == pytest.approx(expected / 3.6e6)


def test_booster_flops_per_watt_advantage():
    """Section I: many-core nodes give more flop/s per Watt."""
    pm = PowerModel()
    m = build_deep_er_prototype(cluster_nodes=2, booster_nodes=2)
    assert (
        pm.peak_flops_per_watt(m.booster[0])
        > 2.5 * pm.peak_flops_per_watt(m.cluster[0])
    )


def test_run_result_energy_modes():
    reports = {}
    for mode in Mode:
        r = run_experiment(
            build_deep_er_prototype(), ExperimentSpec(mode=mode, steps=20)
        )
        reports[mode] = (r, r.energy_report())
    # homogeneous modes: single node at full busy power
    rc, ec = reports[Mode.CLUSTER]
    assert ec.mean_power_w == pytest.approx(320.0)
    rb, eb = reports[Mode.BOOSTER]
    assert eb.mean_power_w == pytest.approx(280.0)
    # C+B occupies two nodes but the cluster one is mostly idle: mean
    # power is below the busy sum of both node types
    rcb, ecb = reports[Mode.CB]
    assert ecb.node_count == 2
    assert 280.0 < ecb.mean_power_w < 600.0
    # booster beats cluster on energy; C+B wins the energy-delay product
    assert eb.energy_j < ec.energy_j
    edp = {m: e.energy_j * r.total_runtime for m, (r, e) in reports.items()}
    assert edp[Mode.CB] == min(edp.values())
