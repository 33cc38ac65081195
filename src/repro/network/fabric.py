"""End-to-end message transport over the fabric.

The message cost model is LogGP-flavoured:

    t(msg) = o_send + o_recv            (per-side CPU software overhead)
           + hops * L                   (per-hop wire/switch latency)
           + n / (G_eff)                (serialization at bottleneck bw)
           + [rendezvous handshake]     (for messages above the eager
                                         threshold: one extra round trip)

The software overheads live on the *nodes* (KNL cores process the MPI
stack more slowly — footnote 1 of the paper); the wire terms live on
the links.  Contention is modelled by occupying every link of the route
for the serialization time.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..hardware.node import Node
from ..sim import Simulator
from ..sim.resources import Request, Resource
from .topology import NoRouteError, Topology

__all__ = [
    "Fabric",
    "NodeFailedError",
    "NoRouteError",
    "EAGER_THRESHOLD_BYTES",
    "PROTOCOL_EFFICIENCY",
]


class NodeFailedError(Exception):
    """A transfer was attempted to or from a failed node."""


#: ParaStation-MPI-like eager/rendezvous switch point.
EAGER_THRESHOLD_BYTES = 32 * 1024

#: Prices :meth:`Fabric.transfer_time` and :meth:`Fabric.begin_transfer`
#: remember before they start over; a run asks for a handful of
#: (pair, size) prices, so only a caller sweeping sizes ever reaches it.
TIME_CACHE_MAX = 4096

#: Fraction of raw link bandwidth achievable by the MPI payload
#: (headers, cells, flow control).  Calibrated so the large-message
#: plateau of Fig 3 sits near 10 GByte/s on a 12.5 GByte/s link.
PROTOCOL_EFFICIENCY = 0.82


class _RouteCost:
    """Precomputed per-route terms, cached by ``(src, dst)``.

    Holds the canonically-sorted directed links (the deadlock-free
    acquisition order), their per-direction channel pools, and the
    route's analytic cost terms, so the per-transfer work reduces to a
    multiply-add plus an occupancy check.
    """

    __slots__ = ("directed", "links", "resources", "hop_latency_s", "bw_eff", "rtt_s")

    def __init__(self, directed: list, protocol_efficiency: float):
        self.directed: Tuple = tuple(
            sorted(directed, key=lambda lf: lf[0].key)
        )
        self.links: Tuple = tuple(link for link, _fwd in self.directed)
        self.resources: Tuple[Resource, ...] = tuple(
            link.resource_for(fwd) for link, fwd in self.directed
        )
        self.hop_latency_s = sum(l.spec.hop_latency_s for l in self.links)
        self.bw_eff = (
            min(l.spec.bandwidth_bps for l in self.links) * protocol_efficiency
            if self.links
            else float("inf")
        )
        self.rtt_s = 2.0 * self.hop_latency_s


class Fabric:
    """Transfers bytes between endpoints of a :class:`Topology`.

    Endpoints are :class:`~repro.hardware.node.Node` objects registered
    under their ``node_id``.  The fabric caches routes, their cost
    terms and each message price it has computed, as ``(duration,
    route cost)`` per ``(src, dst, nbytes, rdma)``: one memo that
    :meth:`transfer_time` and :meth:`begin_transfer` share (the
    topology is static between faults).  The fault methods below are
    the only way to change a route or a link: each forgets whatever the
    change can make stale.

    Transfers take one of two paths:

    * **fast path** — when every link of the route is uncontended, link
      occupancy is bumped directly (no ``Request`` events) and the whole
      transfer is a single pooled bare-delay yield;
    * **slow path** — the moment any link is busy, the transfer falls
      back to per-link FIFO ``Resource.request()``/``release()`` (with
      ``Request`` objects recycled through a pool).

    Both paths produce identical simulated timestamps and per-link
    counters; ``fast_path_enabled`` (class or instance attribute) forces
    the slow path for verification, and with it the MPI runtime's
    process-per-message send path (see ``MPIRuntime.isend``).
    """

    #: set False (per class or instance) to force every transfer down
    #: the FIFO slow path — the two paths must agree exactly
    fast_path_enabled: bool = True

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        eager_threshold: int = EAGER_THRESHOLD_BYTES,
        protocol_efficiency: float = PROTOCOL_EFFICIENCY,
    ):
        if not 0 < protocol_efficiency <= 1:
            raise ValueError("protocol efficiency must be in (0, 1]")
        self.sim = sim
        self.topology = topology
        self.eager_threshold = eager_threshold
        self.protocol_efficiency = protocol_efficiency
        self._nodes: Dict[str, Node] = {}
        self._route_cache: Dict[Tuple[str, str], list] = {}
        self._cost_cache: Dict[Tuple[str, str], _RouteCost] = {}
        # (src, dst, nbytes, rdma) -> (duration, rc), up to TIME_CACHE_MAX
        self._time_cache: Dict[tuple, tuple] = {}
        self._request_pool: List[Request] = []
        self.bytes_transferred = 0
        self.messages_transferred = 0
        #: transfers that skipped the Request event machinery entirely
        self.fast_transfers = 0
        #: transfers that went through per-link FIFO queueing
        self.slow_transfers = 0
        #: optional :class:`~repro.sim.Tracer`: every transfer is
        #: recorded as an interval on a per-link actor ("cn00<->sw.…"),
        #: so fabric occupancy renders as a Gantt chart
        self.tracer = None

    # -- registration -----------------------------------------------------
    def register_node(self, node: Node) -> None:
        """Attach a node object to its topology endpoint."""
        if node.node_id not in self.topology.adj:
            raise KeyError(f"{node.node_id} not present in topology")
        self._nodes[node.node_id] = node

    def node(self, node_id: str) -> Node:
        """Look a registered node up by id."""
        return self._nodes[node_id]

    @property
    def nodes(self) -> Dict[str, Node]:
        """Copy of the registered node mapping."""
        return dict(self._nodes)

    # -- routing ------------------------------------------------------------
    def route(self, src: str, dst: str) -> list:
        """The (cached) list of links between two endpoints."""
        return [link for link, _fwd in self.directed_route(src, dst)]

    def directed_route(self, src: str, dst: str) -> list:
        """The (cached) (link, forward) pairs between two endpoints.

        Raises :class:`NoRouteError` when every path between the
        endpoints is down (failed links and/or failed nodes).
        """
        key = (src, dst)
        if key not in self._route_cache:
            path = self.topology.shortest_path(src, dst)
            self._route_cache[key] = self.topology.directed_links_on_path(path)
        return self._route_cache[key]

    def route_cost(self, src: str, dst: str) -> _RouteCost:
        """Cached cost terms + canonically-sorted links of one route."""
        key = (src, dst)
        rc = self._cost_cache.get(key)
        if rc is None:
            rc = _RouteCost(
                self.directed_route(src, dst), self.protocol_efficiency
            )
            self._cost_cache[key] = rc
        return rc

    def fail_link(self, u: str, v: str) -> None:
        """Fail a fabric link; subsequent traffic reroutes around it.

        A route that no longer exists raises :class:`NoRouteError` when
        it is next asked for.
        """
        self.topology.fail_link(u, v)
        self._forget(routes=True)

    def restore_link(self, u: str, v: str) -> None:
        """Return a previously failed link to service and re-route."""
        self.topology.restore_link(u, v)
        self._forget(routes=True)

    def fail_node(self, node_id: str) -> None:
        """Crash a node: its host stops responding and every incident
        link leaves the routing graph, so cached routes *through* it are
        invalidated too (not just routes ending at it)."""
        self.topology.fail_node(node_id)
        node = self._nodes.get(node_id)
        if node is not None and not node.failed:
            node.fail()
        self._forget(routes=True)

    def restore_node(self, node_id: str) -> None:
        """Bring a crashed node back (volatile NVMe state stays lost)."""
        self.topology.restore_node(node_id)
        node = self._nodes.get(node_id)
        if node is not None and node.failed:
            node.recover()
        self._forget(routes=True)

    def degrade_link(self, u: str, v: str, factor: float) -> None:
        """Run one link at ``factor`` of nominal bandwidth (flaky cable:
        the route survives but its bottleneck bandwidth drops)."""
        self.topology.link(u, v).degrade(factor)
        self._forget(routes=False)

    def restore_link_quality(self, u: str, v: str) -> None:
        """Return a degraded link to nominal bandwidth."""
        self.topology.link(u, v).restore_quality()
        self._forget(routes=False)

    def _forget(self, routes: bool) -> None:
        """Drop the cost terms and wire times a fault may have made
        stale, and the routes too when ``routes`` (the graph changed;
        a degraded link keeps its routes but not their bandwidth)."""
        if routes:
            self._route_cache.clear()
        self._cost_cache.clear()
        self._time_cache.clear()

    def hops(self, src: str, dst: str) -> int:
        """Number of links on the route between two endpoints."""
        return len(self.route(src, dst))

    # -- analytic cost model ----------------------------------------------
    def transfer_time(
        self, src: str, dst: str, nbytes: int, rdma: bool = False
    ) -> float:
        """No-contention end-to-end message time: what
        :meth:`begin_transfer` charges for the same message.

        Priced once per ``(src, dst, nbytes, rdma)`` and remembered
        until a fault method changes the fabric (at most
        :data:`TIME_CACHE_MAX` prices; a full table starts over).
        """
        key = (src, dst, nbytes, rdma)
        priced = self._time_cache.get(key)
        if priced is None:
            nodes = self._nodes
            priced = self._price(key, nodes.get(src), nodes.get(dst))
        return priced[0]

    def _price(
        self,
        key: tuple,
        src_node: Optional[Node],
        dst_node: Optional[Node],
    ) -> Tuple[float, Optional[_RouteCost]]:
        """Price the message ``key = (src, dst, nbytes, rdma)`` and
        remember the price: ``(duration, rc)`` of one uncontended
        message, the LogGP sum over the route ``rc``, or a memory copy
        with no route (``rc`` ``None``) when both ends are one node.
        Raises for a negative size, then an unregistered node, then a
        missing route, and remembers nothing then."""
        src, dst, nbytes, rdma = key
        if nbytes < 0:
            raise ValueError("negative message size")
        if src_node is None or dst_node is None:
            raise KeyError(src if src_node is None else dst)
        if src == dst:
            # Intra-node (shared memory) copy: model as memory-bandwidth
            # bounded with negligible latency.
            memory = src_node.memory
            bw = memory.peak_bandwidth if memory else 50e9
            priced = (200e-9 + nbytes / bw, None)
        else:
            rc = self.route_cost(src, dst)
            if rdma:
                # Remote DMA: no software processing on the remote side.
                t = (
                    src_node.nic_sw_overhead_s
                    + rc.hop_latency_s
                    + nbytes / rc.bw_eff
                )
            else:
                t = (
                    src_node.nic_sw_overhead_s
                    + dst_node.nic_sw_overhead_s
                    + rc.hop_latency_s
                    + nbytes / rc.bw_eff
                )
                if nbytes > self.eager_threshold:
                    # Rendezvous: request-to-send / clear-to-send round
                    # trip.
                    t += rc.rtt_s + dst_node.nic_sw_overhead_s
            priced = (t, rc)
        times = self._time_cache
        if len(times) >= TIME_CACHE_MAX:
            times.clear()
        times[key] = priced
        return priced

    # -- simulated transfer (with contention) -------------------------------
    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: int,
        rdma: bool = False,
    ) -> Generator:
        """Simulation process performing one message transfer.

        Acquires every link of the route (in canonical order, which
        prevents deadlock) for the serialization time, so concurrent
        messages crossing a shared link queue behind each other.  When
        the whole route is idle the acquisition skips the event
        machinery entirely (see the class docstring).

        Both paths suspend through pooled bare-delay yields (the
        simulator's allocation-free wakeup fast path), so co-temporal
        transfer completions land in one same-timestamp bucket and are
        dispatched as a single batch by the event core — many
        simultaneous barrier-style completions cost one queue pop.

        Transfers touching a failed node raise :class:`NodeFailedError`
        (the NIC stops responding with its host).

        The generator is a thin wrapper over the event-free halves
        :meth:`begin_transfer`, :meth:`release_route` and
        :meth:`end_transfer`, which callers without a process (the MPI
        send fast path) use directly.
        """
        duration, rc, claimed = self.begin_transfer(src, dst, nbytes, rdma)
        if claimed:
            t0 = self.sim.now
            try:
                yield duration
            finally:
                if rc is not None:
                    self.release_route(rc)
        else:
            t0 = yield from self.queue_transfer(rc, duration)
        self.end_transfer(src, dst, nbytes, rc, t0)

    def begin_transfer(
        self, src: str, dst: str, nbytes: int, rdma: bool = False
    ) -> Tuple[float, Optional[_RouteCost], bool]:
        """First half of a transfer: validate, cost, and claim the route.

        Returns ``(duration, rc, claimed)``.  ``rc`` is ``None`` for an
        intra-node copy, which occupies no link.  ``claimed`` is True
        when the route was idle and the caller now holds every link
        (fast path): after ``duration`` seconds it must call
        :meth:`release_route` (unless ``rc`` is ``None``) and then
        :meth:`end_transfer`.  ``claimed`` is False when a link is busy
        or the fast path is disabled: the caller must then queue through
        the :meth:`queue_transfer` generator.

        The check-and-bump has no yield in it, so it is atomic in
        simulated time: it cannot deadlock, and a same-time rival sees
        the links busy.  Raises :class:`NodeFailedError` when an
        endpoint has failed, then what :meth:`transfer_time` raises
        (negative size, unregistered node, no route), in that order.
        The price comes from the memo :meth:`transfer_time` fills, so a
        message priced before costs no route lookup and a new one costs
        one.
        """
        nodes = self._nodes
        src_node = nodes.get(src)
        dst_node = nodes.get(dst)
        if src_node is not None and src_node.failed:
            raise NodeFailedError(f"node {src} has failed")
        if dst_node is not None and dst_node.failed:
            raise NodeFailedError(f"node {dst} has failed")
        key = (src, dst, nbytes, rdma)
        priced = self._time_cache.get(key)
        if priced is None:
            priced = self._price(key, src_node, dst_node)
        duration, rc = priced
        if rc is None:
            return duration, None, True
        resources = rc.resources
        if self.fast_path_enabled:
            for r in resources:
                if r._in_use >= r.capacity or r._waiting:
                    break
            else:
                # Fast path: occupy every link without Request events.
                for r in resources:
                    r._in_use += 1
                self.fast_transfers += 1
                return duration, rc, True
        self.slow_transfers += 1
        return duration, rc, False

    def queue_transfer(self, rc: _RouteCost, duration: float) -> Generator:
        """Slow-path middle of a transfer :meth:`begin_transfer` could
        not claim: FIFO-fair queueing on every link in canonical order
        (``Request`` objects recycled through a pool), then ``duration``
        seconds on the wire.  Releases the links on the way out and
        returns the time the last link was granted."""
        pool = self._request_pool
        requests = []
        # acquisition sits inside the try: an interrupt (fault
        # injection) while queueing on link k must release the k
        # links already granted, or they stay occupied forever
        try:
            for (link, _fwd), resource in zip(rc.directed, rc.resources):
                t_wait = self.sim.now
                req = resource.request(pool.pop() if pool else None)
                yield req
                link.stall_time_s += self.sim.now - t_wait
                requests.append((resource, req))
            t0 = self.sim.now
            yield duration
        finally:
            for resource, req in requests:
                resource.release(req)
                if req.processed and not req.abandoned:
                    pool.append(req)
        return t0

    @staticmethod
    def release_route(rc: _RouteCost) -> None:
        """Give back every link a claimed (fast-path) transfer holds,
        waking the next live waiter on each."""
        for r in rc.resources:
            r.release_slot()

    def end_transfer(
        self,
        src: str,
        dst: str,
        nbytes: int,
        rc: Optional[_RouteCost],
        t0: float,
    ) -> None:
        """Last half of a transfer whose links are released: per-link
        and fabric counters plus the tracer interval from ``t0`` (the
        time the wire was acquired) to now."""
        self.messages_transferred += 1
        if rc is None:
            return  # intra-node copies carry no link bytes
        for link in rc.links:
            link.bytes_carried += nbytes
            link.messages_carried += 1
        if self.tracer is not None:
            self.trace_transfer(src, dst, rc, t0)
        self.bytes_transferred += nbytes

    def trace_transfer(
        self, src: str, dst: str, rc: _RouteCost, t0: float
    ) -> None:
        """Record a transfer that ends now on every link's tracer actor
        (the tracer must be set)."""
        for link in rc.links:
            self.tracer.record(
                f"{link.key[0]}<->{link.key[1]}",
                f"{src}->{dst}",
                t0,
                self.sim.now,
            )

    # -- convenience --------------------------------------------------------
    def latency(self, src: str, dst: str) -> float:
        """Zero-byte one-way MPI latency between two endpoints."""
        return self.transfer_time(src, dst, 0)

    def bandwidth(self, src: str, dst: str, nbytes: int) -> float:
        """Effective bandwidth (bytes/s) of a single message of size n."""
        if nbytes <= 0:
            raise ValueError("bandwidth needs a positive message size")
        return nbytes / self.transfer_time(src, dst, nbytes)
