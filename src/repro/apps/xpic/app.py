"""Engine-facing runner of the xPic app (registry entry point).

Translates an :class:`~repro.engine.ExperimentSpec` into the right
driver call — plain (:func:`~.driver.run_experiment`) or supervised
through fault injection (:func:`~.resilient_driver.
run_resilient_experiment`, re-tuning when the spec asks for
malleability) — and normalizes the outcome into the engine's uniform
``(result_obj, result_dict, resiliency, malleability)`` shape.
"""

from __future__ import annotations

import dataclasses

from ...partition import Partition
from ..registry import register
from .config import table2_setup
from .driver import normalize_mode, run_experiment

__all__ = ["run_xpic"]


@register(
    "xpic",
    normalize_mode=lambda m: normalize_mode(m).value,
    supports_resiliency=True,
    supports_malleability=True,
)
def run_xpic(spec, machine, runtime, tracer):
    """Run one xPic experiment as described by ``spec``."""
    cfg = spec.config
    if cfg is None:
        cfg = table2_setup(steps=spec.steps)
        if spec.seed != cfg.seed:
            cfg = dataclasses.replace(cfg, seed=spec.seed)
    partition = (
        Partition.from_dict(spec.partition)
        if spec.partition is not None
        else None
    )
    resiliency: dict = {}
    malleability: dict = {}
    if spec.wants_resiliency:
        # the fault stack loads with the first faulted run
        from ...resiliency import FaultPlan, MalleabilityPolicy
        from .resilient_driver import run_resilient_experiment

        rr, resiliency, malleability = run_resilient_experiment(
            machine,
            normalize_mode(spec.mode),
            cfg,
            fault_plan=(
                FaultPlan.from_dict(spec.fault_plan)
                if spec.fault_plan is not None
                else None
            ),
            mtbf_s=spec.mtbf_s,
            ckpt_interval_s=spec.ckpt_interval_s,
            fault_seed=spec.seed,
            nodes_per_solver=spec.nodes_per_solver,
            overlap=spec.overlap,
            swap_placement=spec.swap_placement,
            tracer=tracer,
            load_balanced=spec.load_balanced,
            imbalance_alpha=spec.imbalance_alpha,
            runtime=runtime,
            partition=partition,
            policy=(
                MalleabilityPolicy.from_dict(spec.malleability)
                if spec.wants_malleability
                else None
            ),
        )
    else:
        rr = run_experiment(
            machine,
            normalize_mode(spec.mode),
            cfg,
            nodes_per_solver=spec.nodes_per_solver,
            overlap=spec.overlap,
            swap_placement=spec.swap_placement,
            tracer=tracer,
            load_balanced=spec.load_balanced,
            imbalance_alpha=spec.imbalance_alpha,
            runtime=runtime,
            partition=partition,
        )
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
    if partition is not None:
        result["partition"] = partition.to_dict()
        result["partition_label"] = partition.label()
    return rr, result, resiliency, malleability
