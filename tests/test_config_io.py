"""Tests for declarative machine configuration round-trips."""

import pytest

from repro.hardware import (
    booster_module,
    build_deep_er_prototype,
    build_modular_system,
    cluster_module,
)
from repro.modular import (
    data_analytics_module,
    load_config,
    machine_from_config,
    machine_to_config,
    save_config,
)


@pytest.fixture()
def machine():
    return build_modular_system(
        [cluster_module(nodes=4), booster_module(nodes=2),
         data_analytics_module(nodes=2)],
        storage_nodes=2,
        nam_devices=1,
    )


def test_roundtrip_preserves_structure(machine):
    cfg = machine_to_config(machine)
    rebuilt = machine_from_config(cfg)
    assert rebuilt.module_names == machine.module_names
    for name in machine.module_names:
        a, b = machine.module(name), rebuilt.module(name)
        assert len(a) == len(b)
        assert a[0].processor == b[0].processor
        assert a[0].nic_sw_overhead_s == b[0].nic_sw_overhead_s
        assert a[0].memory.total_capacity == b[0].memory.total_capacity
    assert len(rebuilt.storage) == 2
    assert len(rebuilt.nams) == 1


def test_roundtrip_preserves_performance_model(machine):
    """The rebuilt machine must model identical latencies/kernels."""
    from repro.perfmodel import particle_kernel, time_on_node

    rebuilt = machine_from_config(machine_to_config(machine))
    k = particle_kernel(10**6)
    for name in machine.module_names:
        t_a = time_on_node(machine.module(name)[0], k)
        t_b = time_on_node(rebuilt.module(name)[0], k)
        assert t_a == pytest.approx(t_b)
    assert rebuilt.fabric.latency("cn00", "cn01") == pytest.approx(
        machine.fabric.latency("cn00", "cn01")
    )


def test_json_file_roundtrip(machine, tmp_path):
    cfg = machine_to_config(machine)
    path = tmp_path / "machine.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    rebuilt = machine_from_config(loaded)
    assert rebuilt.module_names == machine.module_names


def _structure(machine):
    """Everything a config round-trip must rebuild, as plain values."""
    topo = machine.fabric.topology
    nodes = [
        (
            n.node_id, n.kind, n.nic_sw_overhead_s, n.module,
            n.nvme is not None,
            [(lv.name, lv.capacity_bytes, lv.bandwidth_bps, lv.latency_s)
             for lv in n.memory.levels] if n.memory else None,
        )
        for n in machine.all_nodes
    ]
    links = [(link.u, link.v, link.spec) for link in topo.links]
    return nodes, links, topo.endpoints


def test_prototype_roundtrip_rebuilds_the_same_machine():
    """The DEEP-ER prototype is a modular machine: its config rebuilds
    the same links (in order), endpoints and nodes."""
    machine = build_deep_er_prototype()
    cfg = machine_to_config(machine)
    assert [m["name"] for m in cfg["modules"]] == ["cluster", "booster"]
    rebuilt = machine_from_config(cfg)
    assert rebuilt.module_names == ["cluster", "booster"]
    assert _structure(rebuilt) == _structure(machine)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        machine_from_config({"format": "something-else"})


def test_config_is_json_serializable(machine):
    import json

    json.dumps(machine_to_config(machine))


def test_custom_machine_from_scratch():
    """A user-authored config (not a round-trip) builds and works."""
    cfg = {
        "format": "repro-machine/1",
        "modules": [
            {
                "name": "gpu",
                "node_count": 3,
                "kind": "booster",
                "processor": {
                    "model": "Imaginary GPU node",
                    "microarchitecture": "Custom",
                    "sockets": 1,
                    "cores": 100,
                    "threads": 100,
                    "frequency_hz": 1.0e9,
                    "flops_per_cycle": 64,
                    "scalar_ipc": 0.5,
                },
                "memory": [
                    {
                        "name": "HBM",
                        "capacity_bytes": 32 * 10**9,
                        "bandwidth_bps": 900e9,
                        "latency_s": 2e-7,
                    }
                ],
                "nic_sw_overhead_s": 1e-6,
                "with_nvme": False,
                "node_prefix": "gp",
            }
        ],
        "storage_nodes": 2,
        "nam_devices": 0,
    }
    machine = machine_from_config(cfg)
    assert len(machine.module("gpu")) == 3
    node = machine.module("gpu")[0]
    assert node.nvme is None
    assert node.peak_flops == pytest.approx(100 * 1e9 * 64)
