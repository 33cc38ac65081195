"""Assembly of modular machines; DEEP-ER is the two-module case.

A :class:`Machine` owns the simulator, the fabric, and all nodes, and
exposes module-level views (``machine.cluster``, ``machine.booster``,
``machine.module(name)``).  :func:`build_modular_system` is the one
builder: it takes any number of :class:`ModuleSpec` compute modules
(section VI: DEEP-EST "combines any number of compute modules (Cluster
and Booster are two such modules)"), and the DEEP-ER prototype is its
two-module case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..network import Fabric, build_mesh_topology
from ..sim import Simulator
from . import presets
from .memory import MemorySystem
from .node import Node, NodeKind
from .nvme import NVMeDevice
from .processor import HASWELL_E5_2680V3, KNL_7210, Processor

__all__ = [
    "Machine",
    "ModuleSpec",
    "cluster_module",
    "booster_module",
    "build_modular_system",
    "build_deep_er_prototype",
    "table1_rows",
]

#: Node kinds that serve the compute modules rather than form one.
_SUPPORT_KINDS = (NodeKind.STORAGE, NodeKind.NAM, NodeKind.SERVICE)


class Machine:
    """The modelled system: nodes of several modules plus one fabric."""

    def __init__(self, sim: Simulator, fabric: Fabric):
        self.sim = sim
        self.fabric = fabric
        self._nodes: Dict[str, Node] = {}

    def add_node(self, node: Node) -> Node:
        """Register a node with the machine and its fabric."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        self.fabric.register_node(node)
        return node

    def node(self, node_id: str) -> Node:
        """Look a node up by id."""
        return self._nodes[node_id]

    def nodes_of_kind(self, kind: NodeKind) -> List[Node]:
        """All nodes of one kind (cluster, booster, storage, ...)."""
        return [n for n in self._nodes.values() if n.kind == kind]

    @property
    def cluster(self) -> List[Node]:
        """The Cluster nodes."""
        return self.nodes_of_kind(NodeKind.CLUSTER)

    @property
    def booster(self) -> List[Node]:
        """The Booster nodes."""
        return self.nodes_of_kind(NodeKind.BOOSTER)

    @property
    def storage(self) -> List[Node]:
        """The storage servers."""
        return self.nodes_of_kind(NodeKind.STORAGE)

    @property
    def nams(self) -> List[Node]:
        """The network-attached-memory devices."""
        return self.nodes_of_kind(NodeKind.NAM)

    @property
    def all_nodes(self) -> List[Node]:
        """Every node of the machine."""
        return list(self._nodes.values())

    @property
    def module_names(self) -> List[str]:
        """The compute modules, in build order (no storage or NAM)."""
        return list(dict.fromkeys(
            n.module for n in self._nodes.values() if n.kind not in _SUPPORT_KINDS
        ))

    def module(self, name: str) -> List[Node]:
        """Nodes of a module by name (``"cluster"``, ``"booster"``, ...)."""
        return [n for n in self._nodes.values() if n.module == name]

    def module_of(self, node_id: str) -> str:
        """Module name a node belongs to."""
        return self.node(node_id).module

    def peak_flops(self, kind: NodeKind) -> float:
        """Aggregate peak flop/s of all nodes of a kind."""
        return sum(n.peak_flops for n in self.nodes_of_kind(kind))

    def peak_flops_of_module(self, name: str) -> float:
        """Aggregate peak flop/s of one module."""
        return sum(n.peak_flops for n in self.module(name))


@dataclass(frozen=True)
class ModuleSpec:
    """One compute module: homogeneous nodes behind one switch group."""

    name: str
    node_count: int
    processor: Processor
    memory_factory: Callable[[], MemorySystem]
    kind: NodeKind
    nic_sw_overhead_s: float
    with_nvme: bool = True
    node_prefix: Optional[str] = None

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("a module needs at least one node")
        if not self.name.isidentifier():
            raise ValueError(f"module name {self.name!r} must be identifier-like")

    @property
    def prefix(self) -> str:
        """Node-id prefix used when instantiating the module."""
        return self.node_prefix or (self.name[:2] + "n")


def cluster_module(name: str = "cluster", nodes: int = 16) -> ModuleSpec:
    """General-purpose module (Haswell, as in the DEEP-ER prototype)."""
    return ModuleSpec(
        name=name,
        node_count=nodes,
        processor=HASWELL_E5_2680V3,
        memory_factory=presets.cluster_memory,
        kind=NodeKind.CLUSTER,
        nic_sw_overhead_s=presets.CLUSTER_NIC_OVERHEAD_S,
        node_prefix="cn",
    )


def booster_module(name: str = "booster", nodes: int = 8) -> ModuleSpec:
    """Many-core/accelerator module (KNL, as in the DEEP-ER prototype)."""
    return ModuleSpec(
        name=name,
        node_count=nodes,
        processor=KNL_7210,
        memory_factory=presets.booster_memory,
        kind=NodeKind.BOOSTER,
        nic_sw_overhead_s=presets.BOOSTER_NIC_OVERHEAD_S,
        node_prefix="bn",
    )


def build_modular_system(
    modules: Sequence[ModuleSpec],
    sim: Optional[Simulator] = None,
    storage_nodes: int = presets.STORAGE_SERVER_COUNT,
    nam_devices: int = presets.NAM_DEVICE_COUNT,
) -> Machine:
    """Build an N-module Modular Supercomputing system.

    Node ids are ``<prefix>00..`` per module, ``st0..`` storage servers
    and ``nam0..`` NAMs.  Example — the three-module DEEP-EST prototype
    shape::

        machine = build_modular_system(
            [cluster_module(), booster_module(), data_analytics_module()]
        )
        machine.module("dam")    # -> the DAM nodes
    """
    if not modules:
        raise ValueError("need at least one module")
    names = [m.name for m in modules]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate module names in {names}")
    prefixes = [spec.prefix for spec in modules]
    if len(set(prefixes)) != len(prefixes):
        raise ValueError(f"duplicate node prefixes {prefixes}; set node_prefix")
    # explicit None check: an idle Simulator is falsy (len() == 0)
    sim = Simulator() if sim is None else sim

    ids = {
        spec.name: [f"{spec.prefix}{i:02d}" for i in range(spec.node_count)]
        for spec in modules
    }
    st_ids = [f"st{i}" for i in range(storage_nodes)]
    nam_ids = [f"nam{i}" for i in range(nam_devices)]
    machine = Machine(sim, Fabric(sim, build_mesh_topology(sim, ids, st_ids, nam_ids)))

    for spec in modules:
        for nid in ids[spec.name]:
            machine.add_node(
                Node(
                    node_id=nid,
                    kind=spec.kind,
                    processor=spec.processor,
                    memory=spec.memory_factory(),
                    nvme=NVMeDevice(sim) if spec.with_nvme else None,
                    nic_sw_overhead_s=spec.nic_sw_overhead_s,
                    module=spec.name,
                )
            )
    for sid in st_ids:
        machine.add_node(
            Node(
                node_id=sid,
                kind=NodeKind.STORAGE,
                nic_sw_overhead_s=presets.CLUSTER_NIC_OVERHEAD_S,
            )
        )
    for nid in nam_ids:
        # The NAM has no CPU at all: all logic sits in the FPGA, so its
        # "software" overhead is a small fixed hardware pipeline cost.
        machine.add_node(
            Node(node_id=nid, kind=NodeKind.NAM, nic_sw_overhead_s=0.1e-6)
        )
    return machine


def build_deep_er_prototype(
    sim: Optional[Simulator] = None,
    cluster_nodes: int = presets.CLUSTER_NODE_COUNT,
    booster_nodes: int = presets.BOOSTER_NODE_COUNT,
    storage_nodes: int = presets.STORAGE_SERVER_COUNT,
    nam_devices: int = presets.NAM_DEVICE_COUNT,
    with_nvme: bool = True,
) -> Machine:
    """Instantiate the DEEP-ER prototype (Table I configuration).

    The two-module case of :func:`build_modular_system`: ``cn00..``
    Cluster nodes and ``bn00..`` Booster nodes.  A module given no
    nodes is left out, so ``cluster_nodes=0`` builds a Booster alone.
    """
    modules = [
        replace(make(nodes=count), with_nvme=with_nvme)
        for make, count in (
            (cluster_module, cluster_nodes),
            (booster_module, booster_nodes),
        )
        if count > 0
    ]
    return build_modular_system(
        modules, sim=sim, storage_nodes=storage_nodes, nam_devices=nam_devices
    )


def build_jureca_like(
    sim: Optional[Simulator] = None,
    cluster_nodes: int = 256,
    booster_nodes: int = 128,
) -> Machine:
    """A production-scale Cluster-Booster system (section VI outlook).

    The paper notes the architecture "has gone into production": the
    JURECA Cluster at JSC gained a KNL-based Booster.  This builder
    instantiates a (configurable, default 256+128 node) system with the
    same per-node models, for projection studies beyond the 16+8
    prototype.  Only node counts change — Table I parameters stay.
    """
    return build_deep_er_prototype(
        sim=sim,
        cluster_nodes=cluster_nodes,
        booster_nodes=booster_nodes,
        storage_nodes=presets.STORAGE_SERVER_COUNT,
        nam_devices=presets.NAM_DEVICE_COUNT,
        with_nvme=False,  # keep large machines cheap to build
    )


def table1_rows(machine: Machine) -> List[tuple]:
    """Render Table I ("Hardware configuration of the DEEP-ER prototype")
    from the live machine model, for the Table I bench."""
    cn = machine.cluster[0]
    bn = machine.booster[0]

    def fmt(node: Node):
        p: Processor = node.processor
        mem: MemorySystem = node.memory
        return {
            "Processor": p.model,
            "Microarchitecture": p.microarchitecture,
            "Sockets per node": str(p.sockets),
            "Cores per node": str(p.cores),
            "Threads per node": str(p.threads),
            "Frequency": f"{p.frequency_hz / 1e9:.1f} GHz",
            "Memory (RAM)": mem.describe(),
            "NVMe capacity": f"{node.nvme.capacity_bytes // 10**9} GB"
            if node.nvme
            else "-",
            "Interconnect": "EXTOLL Tourmalet A3",
            "Max. link bandwidth": "100 Gbit/s",
            "MPI latency": f"{machine.fabric.latency(node.node_id, _peer_id(machine, node)) * 1e6:.1f} us",
            "Node count": str(
                len(machine.nodes_of_kind(node.kind))
            ),
            "Peak performance": f"{machine.peak_flops(node.kind) / 1e12:.0f} TFlop/s",
        }

    crow, brow = fmt(cn), fmt(bn)
    return [(feature, crow[feature], brow[feature]) for feature in crow]


def _peer_id(machine: Machine, node: Node) -> str:
    peers = [n for n in machine.nodes_of_kind(node.kind) if n is not node]
    return peers[0].node_id if peers else node.node_id
