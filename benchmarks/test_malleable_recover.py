"""Benchmark — time-to-recover after losing 25% of the Booster mid-run.

The malleability tentpole's headline number: a C+B 8+8 xPic run loses
two of the eight Booster nodes (an allocation shrink with no spares and
no reboot — the nodes are gone).  The epoch supervisor's *heal*
recovery can only play its scripted degradation (fall back onto the
surviving homogeneous side at the old width), while its *re-tune*
recovery re-runs a constrained tune over the surviving machine and
resumes on the new best partition — on DEEP-ER that is the full
sixteen-node Cluster side, which roughly doubles post-fault
throughput.

Archives the comparison under ``benchmarks/_results`` (text + JSON);
the ``check_regression`` gate holds the post-fault speedup to the
``baseline.json`` floor, and the test itself enforces the >= 1.2x
acceptance bar.
"""

import json
import pathlib

from repro.apps.xpic.resilient_driver import run_resilient_experiment
from repro.bench import render_table
from repro.engine import ExperimentSpec, preset_machine
from repro.resiliency import FaultEvent, FaultPlan, MalleabilityPolicy

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"

STEPS = 400
FAULT_T = 1.0  # seconds: mid-run for a C+B 8+8 run of 400 steps
LOST = ("bn00", "bn01")  # 25% of deep-er's eight Booster nodes


def _archive_json(name: str, payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=2))


def _spec(**kwargs) -> ExperimentSpec:
    """The C+B 8+8 run losing ``LOST`` at ``FAULT_T``."""
    plan = FaultPlan(
        [
            FaultEvent(time_s=FAULT_T, kind="node_crash", target=t)
            for t in LOST
        ]
    )
    return ExperimentSpec(
        mode="cb",
        steps=STEPS,
        nodes_per_solver=8,
        fault_plan=plan,
        ckpt_interval_s=0.5,
        **kwargs,
    )


def _static_arm():
    """The heal recovery: no spares, no reboot, scripted
    CB -> homogeneous degradation at the original width."""
    machine = preset_machine()
    rr, res, _ = run_resilient_experiment(
        machine, _spec(), allow_reboot=False
    )
    return rr, res


def _malleable_arm():
    """The re-tune recovery: the model search over the survivors."""
    machine = preset_machine()
    rr, res, mal = run_resilient_experiment(
        machine, _spec(malleability=MalleabilityPolicy())
    )
    return rr, res, mal


def test_malleable_recovery_beats_static_fallback(benchmark, report):
    (static_rr, static_res), (mall_rr, mall_res, mal) = benchmark.pedantic(
        lambda: (_static_arm(), _malleable_arm()),
        rounds=1,
        iterations=1,
    )
    static_tp = static_res["post_fault"]["steps_per_s"]
    mall_tp = mall_res["post_fault"]["steps_per_s"]
    speedup = mall_tp / static_tp
    rows = [
        ("heal (static fallback)",
         f"{static_rr.mode.value} {static_rr.nodes_per_solver}",
         f"{static_tp:.1f}", f"{static_rr.total_runtime:.3f}", "-"),
        ("re-tune (malleable)",
         mal["final_label"],
         f"{mall_tp:.1f}", f"{mall_rr.total_runtime:.3f}",
         f"{mal['time_to_recover_s'] * 1e3:.2f} ms"),
    ]
    report(
        "malleable_recover",
        render_table(
            ["Recovery", "Post-fault partition", "Steps/s after fault",
             "Total wall [s]", "Time to re-tune"],
            rows,
            title=(
                f"Losing {len(LOST)}/8 Booster nodes at t={FAULT_T:.1f}s "
                f"(C+B 8+8, {STEPS} steps): post-fault speedup "
                f"{speedup:.2f}x"
            ),
        ),
    )
    _archive_json(
        "malleable_recover",
        {
            "malleable_recover": {
                "post_fault_speedup": speedup,
                "_static_steps_per_s": static_tp,
                "_malleable_steps_per_s": mall_tp,
                "_final_partition": mal["final_label"],
                "_time_to_recover_s": mal["time_to_recover_s"],
            }
        },
    )
    # the static script degrades onto the crippled side at the old
    # width; the re-tune must instead claim the full Cluster side
    assert static_res["degraded_mode"] is True
    assert mal["repartitions_count"] >= 1
    assert mal["final_label"] == "Cluster 16"
    # the acceptance bar: >= 1.2x post-fault throughput
    assert speedup >= 1.2
    # both arms finish all steps
    assert static_rr.steps == mall_rr.steps == STEPS
