"""Unit tests for processor, memory, NVMe, node and machine models."""

import pytest

from repro.hardware import (
    GB,
    HASWELL_E5_2680V3,
    KNL_7210,
    MemoryLevel,
    MemorySystem,
    NVMeDevice,
    Node,
    NodeKind,
    Processor,
    StorageFullError,
    build_deep_er_prototype,
    presets,
    table1_rows,
)
from repro.sim import Simulator


# ---------------------------------------------------------------- processor
def test_haswell_matches_table1():
    p = HASWELL_E5_2680V3
    assert p.sockets == 2
    assert p.cores == 24
    assert p.threads == 48
    assert p.frequency_hz == 2.5e9


def test_knl_matches_table1():
    p = KNL_7210
    assert p.sockets == 1
    assert p.cores == 64
    assert p.threads == 256
    assert p.frequency_hz == 1.3e9


def test_cluster_peak_performance_matches_table1():
    """16 Cluster nodes ~ 16 TFlop/s (Table I)."""
    total = 16 * HASWELL_E5_2680V3.peak_flops
    assert total == pytest.approx(16e12, rel=0.05)


def test_booster_peak_performance_matches_table1():
    """8 Booster nodes ~ 20 TFlop/s (Table I)."""
    total = 8 * KNL_7210.peak_flops
    assert total == pytest.approx(20e12, rel=0.1)


def test_single_thread_ratio_near_6x():
    """Haswell vs KNL single-thread performance drives the field-solver
    6x result; the architectural ratio must land near 6."""
    ratio = HASWELL_E5_2680V3.single_thread_perf / KNL_7210.single_thread_perf
    assert 5.0 < ratio < 7.0


def test_processor_validation():
    with pytest.raises(ValueError):
        Processor("x", "y", 1, 0, 0, 1e9, 8, 1.0)
    with pytest.raises(ValueError):
        Processor("x", "y", 1, 4, 8, -1e9, 8, 1.0)


# ------------------------------------------------------------------- memory
def test_memory_level_validation():
    with pytest.raises(ValueError):
        MemoryLevel("bad", 0, 1e9)


def test_memory_system_orders_fastest_first():
    ms = MemorySystem(
        [MemoryLevel("slow", 96 * GB, 90e9), MemoryLevel("fast", 16 * GB, 440e9)]
    )
    assert ms.levels[0].name == "fast"
    assert ms.peak_bandwidth == 440e9


def test_memory_spill_selects_level_by_working_set():
    ms = presets.booster_memory()
    assert ms.level_for(8 * GB).name == "MCDRAM"
    assert ms.level_for(40 * GB).name == "DDR4"


def test_memory_overflow_raises():
    ms = presets.booster_memory()
    with pytest.raises(MemoryError):
        ms.level_for(1000 * GB)


def test_booster_memory_capacity_matches_table1():
    ms = presets.booster_memory()
    assert ms.total_capacity == (16 + 96) * GB


# -------------------------------------------------------------------- nvme
def test_nvme_write_read_roundtrip():
    sim = Simulator()
    dev = NVMeDevice(sim)

    def proc(sim, dev):
        yield from dev.write("ckpt", 10**9, payload={"step": 5})
        data = yield from dev.read("ckpt")
        return (data, sim.now)

    data, t = sim.run_process(proc(sim, dev))
    assert data == {"step": 5}
    expected = dev.write_time(10**9) + dev.read_time(10**9)
    assert t == pytest.approx(expected)


def test_nvme_capacity_enforced():
    sim = Simulator()
    dev = NVMeDevice(sim, capacity_bytes=100)

    def proc(sim, dev):
        yield from dev.write("a", 80)
        yield from dev.write("b", 50)

    with pytest.raises(StorageFullError):
        sim.run_process(proc(sim, dev))


def test_nvme_overwrite_replaces_capacity():
    sim = Simulator()
    dev = NVMeDevice(sim, capacity_bytes=100)

    def proc(sim, dev):
        yield from dev.write("a", 80)
        yield from dev.write("a", 90)  # replaces, fits
        return dev.used_bytes

    assert sim.run_process(proc(sim, dev)) == 90


def test_nvme_concurrent_writes_serialize():
    sim = Simulator()
    dev = NVMeDevice(sim)
    done = []

    def writer(sim, dev, name):
        yield from dev.write(name, 10**9)
        done.append(sim.now)

    sim.process(writer(sim, dev, "a"))
    sim.process(writer(sim, dev, "b"))
    sim.run()
    one = dev.write_time(10**9)
    assert done[0] == pytest.approx(one)
    assert done[1] == pytest.approx(2 * one)


def test_nvme_read_missing_raises():
    sim = Simulator()
    dev = NVMeDevice(sim)
    with pytest.raises(KeyError):
        # generator raises on creation-time validation
        list(dev.read("missing"))


def test_nvme_wipe_on_node_failure():
    sim = Simulator()
    node = Node("n0", NodeKind.CLUSTER, nvme=NVMeDevice(sim))

    def proc(sim, node):
        yield from node.nvme.write("x", 100)

    sim.run_process(proc(sim, node))
    node.fail()
    assert node.failed
    assert not node.nvme.contains("x")
    node.recover()
    assert not node.failed


# ------------------------------------------------------------------ machine
@pytest.fixture(scope="module")
def machine():
    return build_deep_er_prototype()


def test_prototype_node_counts(machine):
    assert len(machine.cluster) == 16
    assert len(machine.booster) == 8
    assert len(machine.storage) == 3
    assert len(machine.nams) == 2


def test_prototype_modules_by_name(machine):
    assert machine.module("cluster") == machine.cluster
    assert machine.module("booster") == machine.booster
    assert machine.module_names == ["cluster", "booster"]
    assert machine.module_of("bn03") == "booster"


def test_empty_module_is_left_out():
    """A module given no nodes has no switch group: the Booster-only
    machine is the one-module mesh, and storage still sits 2 links
    from every Booster node."""
    machine = build_deep_er_prototype(cluster_nodes=0)
    assert machine.module_names == ["booster"]
    assert machine.cluster == []
    topo = machine.fabric.topology
    assert "sw.cluster" not in topo.kinds
    assert len(topo.links) == 8 + 3 + 2  # nodes, storage, NAMs
    assert machine.fabric.hops("bn00", "st0") == 2
    assert machine.fabric.latency("bn00", "bn01") == pytest.approx(
        presets.BOOSTER_MPI_LATENCY_S
    )


def test_prototype_peak_flops(machine):
    assert machine.peak_flops(NodeKind.CLUSTER) == pytest.approx(16e12, rel=0.05)
    assert machine.peak_flops(NodeKind.BOOSTER) == pytest.approx(20e12, rel=0.1)


def test_duplicate_node_rejected(machine):
    with pytest.raises(ValueError):
        machine.add_node(Node("cn00", NodeKind.CLUSTER))


def test_table1_rendering(machine):
    rows = {r[0]: (r[1], r[2]) for r in table1_rows(machine)}
    assert rows["Processor"] == ("Intel Xeon E5-2680 v3", "Intel Xeon Phi 7210")
    assert rows["Cores per node"] == ("24", "64")
    assert rows["Node count"] == ("16", "8")
    assert rows["MPI latency"] == ("1.0 us", "1.8 us")
    # Table I quotes rounded 16 / 20 TFlop/s; the computed architectural
    # peaks (15.4 / 21.3) must land within 10% of those.
    peak_cn = float(rows["Peak performance"][0].split()[0])
    peak_bn = float(rows["Peak performance"][1].split()[0])
    assert peak_cn == pytest.approx(16, rel=0.10)
    assert peak_bn == pytest.approx(20, rel=0.10)
    assert "MCDRAM" in rows["Memory (RAM)"][1]


def test_jureca_like_scales_node_counts():
    from repro.hardware import build_jureca_like

    m = build_jureca_like(cluster_nodes=64, booster_nodes=32)
    assert len(m.cluster) == 64
    assert len(m.booster) == 32
    # same Table I node models, same calibrated latencies
    assert m.cluster[0].processor is HASWELL_E5_2680V3
    assert m.fabric.latency("cn00", "cn01") == pytest.approx(1.0e-6)
    assert m.fabric.latency("bn00", "bn01") == pytest.approx(1.8e-6)
    # NVMe omitted to keep large machines cheap
    assert m.cluster[0].nvme is None
