"""Tests for the re-tune recovery: online re-partitioning after
node loss, behind ``ExperimentSpec.malleability``."""

import json

import pytest

from repro.engine import Engine, ExperimentSpec
from repro.resiliency import FaultEvent, FaultPlan
from repro.resiliency.malleable import (
    MalleabilityPolicy,
    allocation_shrink_plan,
)


def _boosters_down_plan(time_s=1.0, targets=("bn00", "bn01")):
    """Kill 25% of the Booster mid-run (2 of deep-er's 8 nodes)."""
    return FaultPlan(
        [
            FaultEvent(time_s=time_s, kind="node_crash", target=t)
            for t in targets
        ]
    ).to_dict()


def _malleable_spec(**over):
    base = dict(
        mode="cb",
        steps=200,
        nodes_per_solver=8,
        fault_plan=_boosters_down_plan(),
        ckpt_interval_s=0.5,
        malleability={"enabled": True},
    )
    base.update(over)
    return ExperimentSpec(**base)


def _strip_host_timing(d: dict) -> dict:
    """Drop host-side (non-deterministic) telemetry from a report dict."""
    d = json.loads(json.dumps(d))  # deep copy
    for key in ("host_wall_s", "wall_time_s", "events_per_sec"):
        d.get("sim", {}).pop(key, None)
    return d


# -- policy ------------------------------------------------------------------

def test_policy_round_trip_and_validation():
    p = MalleabilityPolicy(nested=False, node_counts=(2, 4), max_repartitions=3)
    assert MalleabilityPolicy.from_dict(p.to_dict()) == p
    with pytest.raises(ValueError):
        MalleabilityPolicy(retune="random")
    with pytest.raises(ValueError):
        MalleabilityPolicy(max_repartitions=0)
    with pytest.raises(ValueError):
        MalleabilityPolicy.from_dict({"enabled": True, "bogus": 1})


def test_allocation_shrink_plan_is_simultaneous():
    plan = allocation_shrink_plan(["bn00", "bn01"], time_s=2.5)
    assert len(plan.events) == 2
    assert all(e.kind == "node_crash" for e in plan.events)
    assert all(e.time_s == 2.5 for e in plan.events)


# -- spec plumbing -----------------------------------------------------------

def test_spec_normalizes_policy_and_routes():
    spec = _malleable_spec()
    assert spec.wants_resiliency and spec.wants_malleability
    # the policy dict was normalized to the full canonical form
    assert spec.malleability == MalleabilityPolicy().to_dict()
    # disabling the policy (or dropping the faults) leaves malleability off
    assert not _malleable_spec(
        malleability={"enabled": False}
    ).wants_malleability
    assert not ExperimentSpec(
        mode="cb", steps=10, malleability={"enabled": True}
    ).wants_malleability


def test_seismic_rejects_malleability():
    with pytest.raises(ValueError):
        ExperimentSpec(
            app="seismic", mode="split", steps=5,
            malleability={"enabled": True},
        )


# -- the supervisor ----------------------------------------------------------

@pytest.fixture(scope="module")
def malleable_report():
    return Engine().run(_malleable_spec())


def test_repartitions_after_node_loss(malleable_report):
    mal = malleable_report.malleability
    assert mal["enabled"] is True
    assert mal["recoveries"] >= 1
    assert mal["repartitions_count"] >= 1
    assert mal["initial_label"] == "C+B 8+8"
    # 25% of the Booster died: the re-tune must abandon the C+B split
    # rather than degrade onto the crippled Booster side
    assert mal["final_label"] != "C+B 8+8"
    assert mal["time_to_recover_s"] > 0
    ev = mal["repartitions"][0]
    assert ev["from_label"] == "C+B 8+8"
    assert ev["to_label"] == mal["final_label"]
    assert ev["changed"] is True
    assert ev["candidates"] > 0
    # the resiliency section still carries the shared epoch accounting
    res = malleable_report.resiliency
    assert res["restarts"] >= 1
    assert res["post_fault"]["steps_per_s"] > 0


def test_supervisor_is_deterministic(malleable_report):
    again = Engine().run(_malleable_spec())
    a = _strip_host_timing(malleable_report.to_dict())
    b = _strip_host_timing(again.to_dict())
    assert a == b  # bit-identical report, repartition sequence included


@pytest.mark.parametrize(
    "extra",
    [{}, {"imbalance_alpha": 0.9}, {"load_balanced": True}],
    ids=["plain", "imbalance_alpha", "load_balanced"],
)
def test_zero_fault_malleable_is_event_identical_to_static(extra):
    base = dict(mode="cb", steps=80, nodes_per_solver=4,
                ckpt_interval_s=0.5, **extra)
    plain = Engine().run(ExperimentSpec(**base))
    mall = Engine().run(
        ExperimentSpec(**base, malleability={"enabled": True})
    )
    a, b = plain.to_dict(), mall.to_dict()
    # the specs legitimately differ; everything observable must not
    for d in (a, b):
        d.pop("spec")
        d.pop("malleability")
    assert _strip_host_timing(a) == _strip_host_timing(b)
    assert mall.malleability["recoveries"] == 0
    assert mall.malleability["repartitions_count"] == 0
    assert mall.malleability["final_label"] == "C+B 4+4"


def test_zero_fault_malleable_without_checkpoints_takes_plain_path():
    base = dict(mode="cb", steps=40, nodes_per_solver=2)
    plain = Engine().run(ExperimentSpec(**base))
    mall = Engine().run(
        ExperimentSpec(**base, malleability={"enabled": True})
    )
    a, b = plain.to_dict(), mall.to_dict()
    for d in (a, b):
        d.pop("spec")
    assert _strip_host_timing(a) == _strip_host_timing(b)
    assert mall.malleability == {}


def test_max_repartitions_guard():
    with pytest.raises(RuntimeError):
        Engine().run(
            _malleable_spec(
                fault_plan=None,
                mtbf_s=0.35,
                steps=4000,
                malleability={"enabled": True, "max_repartitions": 1},
            )
        )
