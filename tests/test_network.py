"""Unit and property tests for the fabric model (topology, links, transfers)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import build_deep_er_prototype, presets
from repro.network import LinkSpec, Topology
from repro.sim import Simulator


@pytest.fixture()
def machine():
    return build_deep_er_prototype()


# ----------------------------------------------------------------- topology
def test_linkspec_validation():
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_bps=0, hop_latency_s=1e-9)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_bps=1e9, hop_latency_s=1e-9, channels=0)


def test_topology_connected(machine):
    assert machine.fabric.topology.is_connected()


def test_hop_counts(machine):
    fab = machine.fabric
    assert fab.hops("cn00", "cn01") == 2
    assert fab.hops("bn00", "bn01") == 2
    assert fab.hops("cn00", "bn00") == 3


def test_unknown_endpoint_link_rejected():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_endpoint("a")
    with pytest.raises(KeyError):
        topo.add_link("a", "ghost", LinkSpec(1e9, 1e-9))


def test_storage_reachable_from_both_sides(machine):
    fab = machine.fabric
    assert fab.hops("cn00", "st0") == 2
    assert fab.hops("bn00", "st0") == 2


# ------------------------------------------------------------ cost model
def test_intra_cluster_latency_matches_table1(machine):
    lat = machine.fabric.latency("cn00", "cn01")
    assert lat == pytest.approx(presets.CLUSTER_MPI_LATENCY_S, rel=1e-6)


def test_intra_booster_latency_matches_table1(machine):
    lat = machine.fabric.latency("bn00", "bn01")
    assert lat == pytest.approx(presets.BOOSTER_MPI_LATENCY_S, rel=1e-6)


def test_cross_module_latency_between_intra_latencies(machine):
    fab = machine.fabric
    cn = fab.latency("cn00", "cn01")
    bn = fab.latency("bn00", "bn01")
    cb = fab.latency("cn00", "bn00")
    assert cn < cb < bn


def test_large_message_bandwidth_near_fabric_limit(machine):
    """Fig 3: all pairs converge to ~10 GB/s on the 12.5 GB/s link."""
    fab = machine.fabric
    for a, b in [("cn00", "cn01"), ("bn00", "bn01"), ("cn00", "bn00")]:
        bw = fab.bandwidth(a, b, 64 * 2**20)
        assert 9e9 < bw < 12.5e9


def test_small_message_bandwidth_ordering(machine):
    """Fig 3: for small messages CN-CN > CN-BN > BN-BN bandwidth."""
    fab = machine.fabric
    n = 256
    assert (
        fab.bandwidth("cn00", "cn01", n)
        > fab.bandwidth("cn00", "bn00", n)
        > fab.bandwidth("bn00", "bn01", n)
    )


def test_rendezvous_adds_cost_above_threshold(machine):
    fab = machine.fabric
    below = fab.transfer_time("cn00", "cn01", fab.eager_threshold)
    above = fab.transfer_time("cn00", "cn01", fab.eager_threshold + 1)
    size_cost = 1 / (12.5e9 * fab.protocol_efficiency)
    assert above - below > size_cost  # jump is more than one byte's wire time


def test_rdma_skips_remote_overhead(machine):
    fab = machine.fabric
    normal = fab.transfer_time("cn00", "nam0", 4096)
    rdma = fab.transfer_time("cn00", "nam0", 4096, rdma=True)
    assert rdma < normal


def test_negative_size_rejected(machine):
    with pytest.raises(ValueError):
        machine.fabric.transfer_time("cn00", "cn01", -1)


# ----------------------------------------------------- simulated transfers
def test_simulated_transfer_matches_analytic(machine):
    fab = machine.fabric
    sim = machine.sim

    def proc(sim, fab):
        t0 = sim.now
        yield from fab.transfer("cn00", "bn00", 10**6)
        return sim.now - t0

    dur = sim.run_process(proc(sim, fab))
    assert dur == pytest.approx(fab.transfer_time("cn00", "bn00", 10**6))


def test_contention_on_shared_link():
    """Two simultaneous transfers into the same destination NIC serialize."""
    machine = build_deep_er_prototype()
    fab, sim = machine.fabric, machine.sim
    finish = {}

    def sender(sim, fab, src, dst, name):
        yield from fab.transfer(src, dst, 10 * 2**20)
        finish[name] = sim.now

    sim.process(sender(sim, fab, "cn01", "cn00", "a"))
    sim.process(sender(sim, fab, "cn02", "cn00", "b"))
    sim.run()
    solo = fab.transfer_time("cn01", "cn00", 10 * 2**20)
    assert finish["a"] == pytest.approx(solo, rel=0.01)
    assert finish["b"] > 1.8 * solo  # queued behind the first


def test_disjoint_paths_do_not_contend():
    machine = build_deep_er_prototype()
    fab, sim = machine.fabric, machine.sim
    finish = {}

    def sender(sim, fab, src, dst, name):
        yield from fab.transfer(src, dst, 10 * 2**20)
        finish[name] = sim.now

    sim.process(sender(sim, fab, "cn01", "cn00", "a"))
    sim.process(sender(sim, fab, "cn03", "cn02", "b"))
    sim.run()
    assert finish["a"] == pytest.approx(finish["b"], rel=0.01)


def test_intra_node_transfer_is_fast(machine):
    fab, sim = machine.fabric, machine.sim

    def proc(sim, fab):
        t0 = sim.now
        yield from fab.transfer("cn00", "cn00", 10**6)
        return sim.now - t0

    dur = sim.run_process(proc(sim, fab))
    assert dur < fab.transfer_time("cn00", "cn01", 10**6)


def test_transfer_accounting(machine):
    fab, sim = machine.fabric, machine.sim
    before = fab.messages_transferred

    def proc(sim, fab):
        yield from fab.transfer("cn00", "cn01", 500)

    sim.run_process(proc(sim, fab))
    assert fab.messages_transferred == before + 1


# -------------------------------------------------------------- properties
@given(st.integers(min_value=0, max_value=2**26))
@settings(max_examples=40, deadline=None)
def test_transfer_time_monotone_in_size(nbytes):
    machine = build_deep_er_prototype(cluster_nodes=2, booster_nodes=2)
    fab = machine.fabric
    t1 = fab.transfer_time("cn00", "bn00", nbytes)
    t2 = fab.transfer_time("cn00", "bn00", nbytes + 4096)
    assert t2 > t1
    assert t1 >= fab.latency("cn00", "bn00") - 1e-12


@given(
    st.sampled_from(["cn00", "cn01", "bn00", "bn01"]),
    st.sampled_from(["cn00", "cn01", "bn00", "bn01"]),
)
@settings(max_examples=20, deadline=None)
def test_transfer_time_symmetric(src, dst):
    """The modelled fabric is symmetric: t(a->b) == t(b->a)."""
    if src == dst:
        return
    machine = build_deep_er_prototype(cluster_nodes=2, booster_nodes=2)
    fab = machine.fabric
    assert fab.transfer_time(src, dst, 8192) == pytest.approx(
        fab.transfer_time(dst, src, 8192)
    )
