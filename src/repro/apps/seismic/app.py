"""Engine-facing runner of the seismic app (registry entry point)."""

from __future__ import annotations

from ..registry import register
from .driver import SeismicPlacement, run_seismic

__all__ = ["run_seismic_app"]


def _normalize_placement(mode) -> str:
    """Accept any case of a placement's name ('split')."""
    key = str(mode).strip().lower()
    for placement in SeismicPlacement:
        if placement.value.lower() == key:
            return placement.value
    raise ValueError(
        f"unknown seismic placement {mode!r} (expected one of "
        f"{[p.value for p in SeismicPlacement]})"
    )


@register("seismic", normalize_mode=_normalize_placement)
def run_seismic_app(spec, machine, runtime, tracer):
    """Run one seismic-imaging experiment as described by ``spec``."""
    sr = run_seismic(
        machine,
        SeismicPlacement(spec.mode),
        steps=spec.steps,
        nodes=spec.nodes_per_solver,
        runtime=runtime,
    )
    result = {
        "app": "seismic",
        "mode": sr.placement.value,
        "nodes_per_solver": sr.nodes,
        "steps": sr.steps,
        "total_runtime": sr.total_runtime,
        "inter_module_comm_time": sr.comm_time,
        "comm_overhead_fraction": sr.comm_fraction,
    }
    return sr, result, {}, {}
