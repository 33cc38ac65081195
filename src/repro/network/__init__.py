"""EXTOLL-like interconnect fabric model.

Topology (graph of nodes, switches and trunked links, with fewest-link
routing), LogGP message cost model, and contention-aware transfers
driven by the discrete-event simulator.
"""

from .fabric import (
    EAGER_THRESHOLD_BYTES,
    PROTOCOL_EFFICIENCY,
    Fabric,
    NodeFailedError,
)
from .link import Link, LinkSpec, TOURMALET_LINK
from .topology import (
    NoRouteError,
    Topology,
    build_mesh_topology,
    build_torus_topology,
)

__all__ = [
    "Fabric",
    "NodeFailedError",
    "NoRouteError",
    "Link",
    "LinkSpec",
    "TOURMALET_LINK",
    "Topology",
    "build_mesh_topology",
    "build_torus_topology",
    "EAGER_THRESHOLD_BYTES",
    "PROTOCOL_EFFICIENCY",
]
