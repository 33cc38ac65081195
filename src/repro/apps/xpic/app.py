"""Engine-facing runner of the xPic app (registry entry point).

Hands an :class:`~repro.engine.ExperimentSpec` to the right driver —
plain (:func:`~.driver.run_experiment`) or supervised through fault
injection (:func:`~.resilient_driver.run_resilient_experiment`, which
re-tunes when the spec asks for malleability) — and normalizes the
outcome into the engine's uniform ``(result_obj, result_dict,
resiliency, malleability)`` shape.
"""

from __future__ import annotations

from ..registry import register
from .driver import normalize_mode, partition_of, run_experiment

__all__ = ["run_xpic"]


@register(
    "xpic",
    normalize_mode=lambda m: normalize_mode(m).value,
    supports_resiliency=True,
    supports_malleability=True,
)
def run_xpic(spec, machine, runtime, tracer):
    """Run one xPic experiment as described by ``spec``."""
    resiliency: dict = {}
    malleability: dict = {}
    if spec.wants_resiliency:
        # the fault stack loads with the first faulted run
        from .resilient_driver import run_resilient_experiment

        rr, resiliency, malleability = run_resilient_experiment(
            machine, spec, runtime, tracer
        )
    else:
        rr = run_experiment(machine, spec, runtime, tracer)
    result = {
        "app": "xpic",
        "mode": rr.mode.value,
        "nodes_per_solver": rr.nodes_per_solver,
        "steps": rr.steps,
        "total_runtime": rr.total_runtime,
        "fields_time": rr.fields_time,
        "particles_time": rr.particles_time,
        "inter_module_comm_time": rr.inter_module_comm_time,
        "comm_overhead_fraction": rr.comm_overhead_fraction,
    }
    if spec.partition is not None:
        partition = partition_of(spec)
        result["partition"] = partition.to_dict()
        result["partition_label"] = partition.label()
    return rr, result, resiliency, malleability
