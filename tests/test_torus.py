"""Tests for the 3D-torus fabric variant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Node, NodeKind, build_deep_er_prototype, presets
from repro.network import Fabric, build_torus_topology
from repro.sim import Simulator


def make_torus_fabric(n_nodes=24, dims=None):
    sim = Simulator()
    ids = [f"n{i:02d}" for i in range(n_nodes)]
    topo = build_torus_topology(sim, ids, dims=dims)
    fabric = Fabric(sim, topo)
    for nid in ids:
        fabric.register_node(
            Node(nid, NodeKind.CLUSTER,
                 nic_sw_overhead_s=presets.CLUSTER_NIC_OVERHEAD_S)
        )
    return sim, fabric, ids


def test_torus_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_torus_topology(sim, ["a"])
    with pytest.raises(ValueError):
        build_torus_topology(sim, [f"n{i}" for i in range(30)], dims=(2, 2, 2))


def test_torus_is_connected():
    _, fabric, _ = make_torus_fabric(24)
    assert fabric.topology.is_connected()


def test_torus_degree_bounded_by_six():
    """A 3D torus NIC has at most six links."""
    _, fabric, ids = make_torus_fabric(27, dims=(3, 3, 3))
    for nid in ids:
        assert len(fabric.topology.adj[nid]) <= 6


def test_torus_neighbour_single_hop():
    _, fabric, ids = make_torus_fabric(24, dims=(2, 3, 4))
    # consecutive ids along the last axis are adjacent
    assert fabric.hops(ids[0], ids[1]) == 1


def test_torus_latency_varies_with_distance():
    """Unlike the two-level model, the torus has placement-dependent
    latency (more hops -> more time)."""
    _, fabric, ids = make_torus_fabric(27, dims=(3, 3, 3))
    near = fabric.latency(ids[0], ids[1])
    far_hops = max(fabric.hops(ids[0], other) for other in ids[1:])
    far_node = next(
        other for other in ids[1:] if fabric.hops(ids[0], other) == far_hops
    )
    far = fabric.latency(ids[0], far_node)
    assert far > near
    assert far_hops >= 3


def test_torus_diameter_is_small():
    """Torus diameter = sum of half-dimensions."""
    _, fabric, ids = make_torus_fabric(24, dims=(2, 3, 4))
    max_hops = max(
        fabric.hops(a, b) for a in ids[:6] for b in ids if a != b
    )
    assert max_hops <= 1 + 1 + 2  # floor(d/2) per axis


def test_torus_latency_comparable_to_two_level():
    """The two-level abstraction approximates the torus: same-module
    latencies agree within ~30% for nearby placements."""
    machine = build_deep_er_prototype()
    two_level = machine.fabric.latency("cn00", "cn01")
    _, torus, ids = make_torus_fabric(24)
    torus_near = torus.latency(ids[0], ids[1])
    assert torus_near == pytest.approx(two_level, rel=0.3)


def test_torus_transfer_with_contention():
    sim, fabric, ids = make_torus_fabric(8, dims=(2, 2, 2))
    done = []

    def sender(src, dst):
        yield from fabric.transfer(src, dst, 2**20)
        done.append(sim.now)

    sim.process(sender(ids[0], ids[1]))
    sim.process(sender(ids[2], ids[3]))
    sim.run()
    assert len(done) == 2


def test_spare_vertices_forward_but_are_not_endpoints():
    sim = Simulator()
    topo = build_torus_topology(sim, [f"n{i}" for i in range(5)], dims=(2, 2, 2))
    kinds = topo.kinds
    spares = [n for n, k in kinds.items() if k == "spare"]
    assert len(spares) == 3
    assert all(n not in topo.endpoints for n in spares)


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=15, deadline=None)
def test_torus_any_size_connected(n):
    """Property: the generated torus is connected for any node count."""
    sim = Simulator()
    topo = build_torus_topology(sim, [f"n{i}" for i in range(n)])
    assert topo.is_connected()
    assert len(topo.endpoints) == n
