"""The fabric's routing graph checked against networkx as an oracle.

``Topology`` keeps its own insertion-ordered adjacency and runs the
bidirectional breadth-first search of ``networkx.shortest_path``.  A
mirrored topology replays every graph change on a ``networkx.Graph``
exactly as the networkx-backed topology made it, so both must pick the
same route (or both find none) and agree on connectivity, through
random mesh and torus fabrics under random link and node faults.
"""

from unittest import mock

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import NoRouteError, topology
from repro.network.topology import build_mesh_topology, build_torus_topology
from repro.sim import Simulator


class MirroredTopology(topology.Topology):
    """A topology that repeats each change of its graph on ``oracle``."""

    def __init__(self, sim):
        super().__init__(sim)
        self.oracle = nx.Graph()

    def add_endpoint(self, node_id, kind="node"):
        super().add_endpoint(node_id, kind)
        self.oracle.add_node(node_id, kind=kind)

    def add_link(self, u, v, spec):
        link = super().add_link(u, v, spec)
        self.oracle.add_edge(u, v)
        return link

    def _sync_edge(self, key):
        super()._sync_edge(key)
        present = self.oracle.has_edge(*key)
        if self._edge_should_exist(key) and not present:
            self.oracle.add_edge(*key)
        elif not self._edge_should_exist(key) and present:
            self.oracle.remove_edge(*key)


def draw_fabric(data) -> MirroredTopology:
    sim = Simulator()
    with mock.patch.object(topology, "Topology", MirroredTopology):
        if data.draw(st.booleans(), label="torus"):
            dims = data.draw(st.tuples(*[st.integers(1, 4)] * 3), label="dims")
            slots = dims[0] * dims[1] * dims[2]
            if slots < 2:
                dims, slots = None, 30
            n = data.draw(st.integers(2, slots), label="nodes")
            return build_torus_topology(sim, [f"n{i}" for i in range(n)], dims)
        sizes = data.draw(
            st.lists(st.integers(0, 5), min_size=1, max_size=3), label="modules"
        )
        groups = {
            f"m{m}": [f"m{m}n{i}" for i in range(size)]
            for m, size in enumerate(sizes)
        }
        storage = [f"st{i}" for i in range(data.draw(st.integers(0, 2)))]
        nams = [f"nam{i}" for i in range(data.draw(st.integers(0, 2)))]
        return build_mesh_topology(sim, groups, storage, nams)


def route(search, *args):
    try:
        return search(*args)
    except (NoRouteError, nx.NetworkXNoPath):
        return None


def assert_agrees(topo: MirroredTopology, source: str) -> None:
    oracle = topo.oracle
    assert {v: list(nbrs) for v, nbrs in topo.adj.items()} == {
        v: list(oracle.adj[v]) for v in oracle
    }
    assert topo.is_connected() == nx.is_connected(oracle)
    assert topo.endpoints == [
        v for v, kind in oracle.nodes(data="kind") if kind == "node"
    ]
    for target in oracle:
        assert route(topo.shortest_path, source, target) == route(
            nx.shortest_path, oracle, source, target
        )


FAULTS = ("fail_link", "restore_link", "fail_node", "restore_node")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_routes_and_connectivity_match_networkx(data):
    topo = draw_fabric(data)
    vertices = list(topo.kinds)
    links = sorted(topo._links)
    assert_agrees(topo, data.draw(st.sampled_from(vertices)))
    faults = FAULTS if links else FAULTS[2:]
    for _ in range(data.draw(st.integers(1, 10), label="faults")):
        fault = data.draw(st.sampled_from(faults))
        try:
            if fault.endswith("link"):
                getattr(topo, fault)(*data.draw(st.sampled_from(links)))
            else:
                getattr(topo, fault)(data.draw(st.sampled_from(vertices)))
        except ValueError:
            pass  # already failed or down: the topology is left as it was
        assert_agrees(topo, data.draw(st.sampled_from(vertices)))
