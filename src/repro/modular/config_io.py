"""Declarative machine descriptions (JSON-serializable dicts).

Lets users define their own modular systems in configuration rather
than code, and round-trips the built-in prototypes::

    cfg = machine_to_config(build_modular_system([...]))
    save_config(cfg, "machine.json")
    machine = machine_from_config(load_config("machine.json"))
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..hardware.machine import Machine, ModuleSpec, build_modular_system
from ..hardware.memory import MemoryLevel, MemorySystem
from ..hardware.node import NodeKind
from ..hardware.processor import Processor
from ..sim import Simulator

__all__ = [
    "machine_to_config",
    "machine_from_config",
    "save_config",
    "load_config",
]


def _processor_to_dict(p: Processor) -> Dict:
    return {
        "model": p.model,
        "microarchitecture": p.microarchitecture,
        "sockets": p.sockets,
        "cores": p.cores,
        "threads": p.threads,
        "frequency_hz": p.frequency_hz,
        "flops_per_cycle": p.flops_per_cycle,
        "scalar_ipc": p.scalar_ipc,
    }


def _processor_from_dict(d: Dict) -> Processor:
    return Processor(**d)


def _memory_to_list(m: MemorySystem) -> List[Dict]:
    return [
        {
            "name": lv.name,
            "capacity_bytes": lv.capacity_bytes,
            "bandwidth_bps": lv.bandwidth_bps,
            "latency_s": lv.latency_s,
        }
        for lv in m.levels
    ]


def _memory_from_list(levels: List[Dict]) -> MemorySystem:
    return MemorySystem([MemoryLevel(**lv) for lv in levels])


def machine_to_config(machine: Machine) -> Dict:
    """Serialize a machine's module structure to a plain dict."""
    modules = []
    for name in machine.module_names:
        nodes = machine.module(name)
        sample = nodes[0]
        modules.append(
            {
                "name": name,
                "node_count": len(nodes),
                "kind": sample.kind.value,
                "processor": _processor_to_dict(sample.processor),
                "memory": _memory_to_list(sample.memory),
                "nic_sw_overhead_s": sample.nic_sw_overhead_s,
                "with_nvme": sample.nvme is not None,
                "node_prefix": sample.node_id.rstrip("0123456789"),
            }
        )
    return {
        "format": "repro-machine/1",
        "modules": modules,
        "storage_nodes": len(machine.storage),
        "nam_devices": len(machine.nams),
    }


def machine_from_config(
    config: Dict, sim: Optional[Simulator] = None
) -> Machine:
    """Build a machine from a config dict."""
    if config.get("format") != "repro-machine/1":
        raise ValueError(
            f"unsupported config format {config.get('format')!r}"
        )
    specs = []
    for m in config["modules"]:
        memory_levels = m["memory"]
        specs.append(
            ModuleSpec(
                name=m["name"],
                node_count=m["node_count"],
                processor=_processor_from_dict(m["processor"]),
                memory_factory=(
                    lambda lv=memory_levels: _memory_from_list(lv)
                ),
                kind=NodeKind(m["kind"]),
                nic_sw_overhead_s=m["nic_sw_overhead_s"],
                with_nvme=m.get("with_nvme", True),
                node_prefix=m.get("node_prefix"),
            )
        )
    return build_modular_system(
        specs,
        sim=sim,
        storage_nodes=config.get("storage_nodes", 3),
        nam_devices=config.get("nam_devices", 2),
    )


def save_config(config: Dict, path: Union[str, Path]) -> None:
    """Write a machine config as pretty-printed JSON."""
    Path(path).write_text(json.dumps(config, indent=2) + "\n")


def load_config(path: Union[str, Path]) -> Dict:
    """Read a machine config from a JSON file."""
    return json.loads(Path(path).read_text())
