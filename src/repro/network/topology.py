"""Fabric topology: the routing graph and its builders.

The DEEP-ER prototype runs one uniform EXTOLL Tourmalet fabric across
Cluster, Booster and storage.  We model it as a mesh of module switch
groups (:func:`build_mesh_topology`):

* every node of a module attaches to that module's switch group
  ``sw.<module>`` (``sw.cluster``, ``sw.booster``, ...);
* each pair of groups is joined by a multi-channel backbone trunk;
* the storage servers and NAM devices attach to every group.

Hop counts therefore come out as 2 links inside a module (CN-CN,
BN-BN) and 3 links across modules (CN-BN), which (together with the
per-node software overheads) reproduces the latency ordering of Fig 3.
The Cluster-Booster prototype is the two-module case; a DEEP-EST
system (section VI) adds modules to the same mesh.

Routes are fewest-link paths found by a bidirectional breadth-first
search that visits neighbours in the order their links (re)joined the
routing graph, so a route depends only on the fabric's history, never
on hashing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim import Simulator
from .link import Link, LinkSpec, TOURMALET_LINK

__all__ = [
    "NoRouteError",
    "Topology",
    "build_mesh_topology",
    "build_torus_topology",
]


class NoRouteError(Exception):
    """No surviving path connects two endpoints."""


#: Inter-module trunk: the prototype's torus offers several independent
#: paths between two module sub-fabrics.
_BACKBONE_LINK = LinkSpec(
    bandwidth_bps=TOURMALET_LINK.bandwidth_bps,
    hop_latency_s=TOURMALET_LINK.hop_latency_s,
    channels=8,
)


class Topology:
    """A fabric graph whose edges carry :class:`Link` objects.

    Links and vertices can be taken out of service (``fail_link`` /
    ``fail_node``) and brought back (``restore_link`` / ``restore_node``).
    An edge is present in the routing graph iff its link exists, is not
    itself failed, and neither endpoint vertex is down — so failing a
    node atomically detaches all of its links without forgetting which
    ones were independently failed.  A vertex stays in the graph while
    it is down, cut off from every neighbour.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: the routing graph: vertex -> its live neighbours, both in
        #: insertion order; an edge that leaves and rejoins moves to
        #: the end of its endpoints' neighbour orders
        self.adj: Dict[str, Dict[str, None]] = {}
        #: vertex -> kind ("node", "switch" or "spare")
        self.kinds: Dict[str, str] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        #: canonical (u, v) keys of links individually taken down
        self._failed_links: set = set()
        #: vertices currently down (node crash)
        self._failed_nodes: set = set()

    def add_endpoint(self, node_id: str, kind: str = "node") -> None:
        """Add a vertex (node or switch) to the fabric graph."""
        self.kinds[node_id] = kind
        self.adj.setdefault(node_id, {})

    def add_link(self, u: str, v: str, spec: LinkSpec) -> Link:
        """Connect two existing endpoints with a new link."""
        for n in (u, v):
            if n not in self.adj:
                raise KeyError(f"unknown endpoint {n!r}")
        link = Link(self.sim, u, v, spec)
        self._add_edge(u, v)
        self._links[tuple(sorted((u, v)))] = link
        return link

    def _add_edge(self, u: str, v: str) -> None:
        self.adj[u][v] = None
        self.adj[v][u] = None

    def link(self, u: str, v: str) -> Link:
        """The link object between two directly connected endpoints."""
        return self._links[tuple(sorted((u, v)))]

    def _edge_should_exist(self, key: Tuple[str, str]) -> bool:
        return (
            key in self._links
            and key not in self._failed_links
            and key[0] not in self._failed_nodes
            and key[1] not in self._failed_nodes
        )

    def _sync_edge(self, key: Tuple[str, str]) -> None:
        """Make the routing graph agree with the link/node failure sets."""
        u, v = key
        present = v in self.adj[u]
        if self._edge_should_exist(key) and not present:
            self._add_edge(u, v)
        elif not self._edge_should_exist(key) and present:
            del self.adj[u][v]
            self.adj[v].pop(u, None)

    def fail_link(self, u: str, v: str) -> None:
        """Take a link out of service (routing will avoid it).

        Raises a clear :class:`ValueError` naming the endpoints when no
        link connects them (non-adjacent pair) or the link is already
        failed, leaving the topology state untouched.
        """
        key = tuple(sorted((u, v)))
        if key not in self._links:
            raise ValueError(
                f"cannot fail link {u!r} <-> {v!r}: "
                "the endpoints are not directly connected"
            )
        if key in self._failed_links:
            raise ValueError(f"link {u!r} <-> {v!r} is already failed")
        self._failed_links.add(key)
        self._sync_edge(key)

    def restore_link(self, u: str, v: str) -> None:
        """Return a previously failed link to service."""
        key = tuple(sorted((u, v)))
        if key not in self._links:
            raise ValueError(
                f"cannot restore link {u!r} <-> {v!r}: "
                "the endpoints are not directly connected"
            )
        self._failed_links.discard(key)
        self._sync_edge(key)

    def fail_node(self, node_id: str) -> None:
        """Take a vertex down: all of its links leave the routing graph
        (traffic *through* the vertex reroutes or fails cleanly)."""
        if node_id not in self.adj:
            raise ValueError(f"unknown endpoint {node_id!r}")
        if node_id in self._failed_nodes:
            raise ValueError(f"node {node_id!r} is already down")
        self._failed_nodes.add(node_id)
        for key in self._links:
            if node_id in key:
                self._sync_edge(key)

    def restore_node(self, node_id: str) -> None:
        """Bring a vertex back up; its non-failed links rejoin the graph."""
        if node_id not in self.adj:
            raise ValueError(f"unknown endpoint {node_id!r}")
        self._failed_nodes.discard(node_id)
        for key in self._links:
            if node_id in key:
                self._sync_edge(key)

    @property
    def failed_links(self):
        """Canonical keys of the currently failed links."""
        return set(self._failed_links)

    @property
    def failed_nodes(self):
        """Ids of the currently down vertices."""
        return set(self._failed_nodes)

    def directed_links_on_path(self, path: Iterable[str]):
        """(link, forward) pairs along a vertex path; ``forward`` means
        the traversal runs link.u -> link.v."""
        path = list(path)
        out = []
        for a, b in zip(path, path[1:]):
            link = self.link(a, b)
            out.append((link, link.u == a))
        return out

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """A fewest-link vertex path from ``src`` to ``dst``.

        Bidirectional breadth-first search: each round grows the
        smaller frontier (the forward one on a tie) by one level,
        visiting neighbours in :attr:`adj` order, and stops at the
        first vertex both searches have reached.  Raises
        :class:`NoRouteError` when no live path connects the two.
        """
        adj = self.adj
        for n in (src, dst):
            if n not in adj:
                raise KeyError(f"unknown endpoint {n!r}")
        pred: Dict[str, Optional[str]] = {src: None}
        succ: Dict[str, Optional[str]] = {dst: None}
        forward, reverse = [src], [dst]
        meet = src if src == dst else None
        while meet is None and forward and reverse:
            if len(forward) <= len(reverse):
                forward, meet = _grow(adj, forward, pred, succ)
            else:
                reverse, meet = _grow(adj, reverse, succ, pred)
        if meet is None:
            raise NoRouteError(f"no surviving route {src!r} -> {dst!r}")
        path = []
        w = meet
        while w is not None:
            path.append(w)
            w = pred[w]
        path.reverse()
        w = succ[meet]
        while w is not None:
            path.append(w)
            w = succ[w]
        return path

    def is_connected(self) -> bool:
        """Whether every vertex can reach every other over live links."""
        if not self.adj:
            raise ValueError("connectivity is undefined for an empty fabric")
        start = next(iter(self.adj))
        seen = {start}
        stack = [start]
        while stack:
            for w in self.adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.adj)

    @property
    def links(self):
        """All link objects of the fabric (including failed ones)."""
        return list(self._links.values())

    @property
    def endpoints(self):
        """All node (non-switch) vertices."""
        return [n for n, kind in self.kinds.items() if kind == "node"]


def _grow(adj, fringe, reached, other):
    """Advance one search frontier of :meth:`Topology.shortest_path` by
    a level: record each newly reached vertex's parent in ``reached``.
    Returns the next frontier and the first vertex found in ``other``
    (the meeting point), or ``None`` when the searches have not met."""
    nxt = []
    for v in fringe:
        for w in adj[v]:
            if w not in reached:
                reached[w] = v
                nxt.append(w)
            if w in other:
                return nxt, w
    return nxt, None


def build_mesh_topology(
    sim: Simulator,
    module_groups: Dict[str, Sequence[str]],
    storage_ids: Iterable[str] = (),
    nam_ids: Iterable[str] = (),
) -> Topology:
    """Build the mesh of module switch groups.

    ``module_groups`` maps each module name to its node ids, in module
    order; links are added backbone first, then module by module, then
    storage and NAM devices (each to every group in module order).
    """
    topo = Topology(sim)
    switches = {name: f"sw.{name}" for name in module_groups}
    for sw in switches.values():
        topo.add_endpoint(sw, kind="switch")
    names = list(switches.values())
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            topo.add_link(a, b, _BACKBONE_LINK)
    for name, ids in module_groups.items():
        for nid in ids:
            topo.add_endpoint(nid)
            topo.add_link(nid, switches[name], TOURMALET_LINK)
    for sid in [*storage_ids, *nam_ids]:
        topo.add_endpoint(sid)
        for sw in names:
            topo.add_link(sid, sw, TOURMALET_LINK)
    return topo


def _torus_dims(n: int) -> tuple:
    """Smallest near-cubic 3D torus with at least ``n`` vertices."""
    side = max(2, round(n ** (1 / 3)))
    dims = [side, side, side]
    i = 0
    while dims[0] * dims[1] * dims[2] < n:
        dims[i % 3] += 1
        i += 1
    return tuple(dims)


def build_torus_topology(
    sim: Simulator,
    node_ids: Iterable[str],
    dims: Tuple[int, int, int] = None,
    link_spec: LinkSpec = TOURMALET_LINK,
) -> Topology:
    """A switchless 3D torus — EXTOLL Tourmalet's native topology.

    Every NIC has six links to its torus neighbours; messages hop
    through intermediate *nodes* (the Tourmalet chip forwards in
    hardware).  Node ids are laid out in order along the torus
    coordinates; unused torus slots become passive forwarding vertices
    (kind ``"spare"``).

    This is the physically faithful alternative to the module mesh
    (which matches the paper's uniform measured latencies); the fabric
    bench compares the two.
    """
    node_ids = list(node_ids)
    if len(node_ids) < 2:
        raise ValueError("a torus needs at least two endpoints")
    dims = dims or _torus_dims(len(node_ids))
    if dims[0] * dims[1] * dims[2] < len(node_ids):
        raise ValueError(f"dims {dims} too small for {len(node_ids)} nodes")
    topo = Topology(sim)

    def coord_name(c):
        return f"torus.{c[0]}.{c[1]}.{c[2]}"

    coords = [
        (x, y, z)
        for x in range(dims[0])
        for y in range(dims[1])
        for z in range(dims[2])
    ]
    names = {}
    for i, c in enumerate(coords):
        if i < len(node_ids):
            names[c] = node_ids[i]
            topo.add_endpoint(node_ids[i], kind="node")
        else:
            names[c] = coord_name(c)
            topo.add_endpoint(names[c], kind="spare")
    for c in coords:
        for axis in range(3):
            if dims[axis] == 1:
                continue
            nb = list(c)
            nb[axis] = (nb[axis] + 1) % dims[axis]
            nb = tuple(nb)
            if dims[axis] == 2 and nb < c:
                continue  # avoid double edge on 2-rings
            key = tuple(sorted((names[c], names[nb])))
            if key not in topo._links:
                topo.add_link(names[c], names[nb], link_spec)
    return topo
