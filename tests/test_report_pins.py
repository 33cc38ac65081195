"""Pinned digests of the reports of a few small runs.

A report's canonical form is ``RunReport.to_dict()`` without its host
timings (``wall_time_s``, ``events_per_sec`` and ``host_wall_s``, all
in the ``sim`` section), dumped with ``json.dumps(sort_keys=True)``.
Every byte of it, the simulator's own counters included, is
deterministic, so each run below is pinned by the sha256 of that text.

``booster-1-no-cluster`` builds the prototype without Cluster nodes
(``machine_overrides={"cluster_nodes": 0}``): a module given no nodes
is left out of the machine, and the Booster-only report must not see
the difference.

The last three runs go through the epoch supervisor: a C+B 2+2 run
healing a Booster crash from its checkpoints, a C+B 1+1 run under a
Poisson crash stream, and a malleable C+B 8+8 run re-tuned after
losing two Booster nodes.

A change that only makes the program faster keeps every pin.  A change
to the model (a cost, an event, the order of two events, a report
field) moves the pins of the runs it touches: it updates them here and
says so in CHANGES.md.

``PHYSICS_PINS`` pin the same reports with the whole ``sim`` section
(the simulator's own event and batch counters) removed: what the
simulated machine did, not how many queue entries it took to do it.
A change to how the simulator schedules a message without changing
when anything happens keeps them and moves only the full pins.
"""

import hashlib
import json

import pytest

from repro.engine import Engine, ExperimentSpec
from repro.partition import Partition
from repro.resiliency import FaultEvent, FaultPlan

HOST_TIMINGS = ("wall_time_s", "events_per_sec", "host_wall_s")

_SWITCHES = ("sw.booster", "sw.cluster")


def _faulted(nodes, *events, **kwargs):
    return ExperimentSpec(
        mode="C+B", nodes_per_solver=nodes, steps=60, seed=3,
        fault_plan=FaultPlan(list(events)).to_dict(), **kwargs,
    )


def _crash(target, time_s):
    return FaultEvent(time_s=time_s, kind="node_crash", target=target)


SPECS = {
    "cb-1": ExperimentSpec(mode="C+B", nodes_per_solver=1, steps=40),
    "cluster-2": ExperimentSpec(mode="Cluster", nodes_per_solver=2, steps=40),
    "booster-4": ExperimentSpec(mode="Booster", nodes_per_solver=4, steps=40),
    "booster-1-no-cluster": ExperimentSpec(
        mode="Booster", nodes_per_solver=1, steps=40,
        machine_overrides={"cluster_nodes": 0},
    ),
    "cb-4-no-overlap": ExperimentSpec(
        mode="C+B", nodes_per_solver=4, steps=40, overlap=False
    ),
    "cb-2-traced": ExperimentSpec(
        mode="C+B", nodes_per_solver=2, steps=40, trace=True
    ),
    "seismic-split-4": ExperimentSpec(
        app="seismic", mode="Split", nodes_per_solver=4, steps=40
    ),
    "nested-8": Partition(8, 0, cluster_arm=Partition(4, 4)).to_spec(steps=40),
    "cb-4-link-degrade": _faulted(4, FaultEvent(
        time_s=0.2, kind="link_degrade", target=_SWITCHES, duration_s=0.3,
        factor=0.1,
    )),
    "cb-2-link-down": _faulted(2, FaultEvent(
        time_s=0.2, kind="link_down", target=_SWITCHES,
    )),
    "cb-2-crash": _faulted(2, _crash("bn00", 1.0), ckpt_interval_s=0.5),
    "cb-1-mtbf": ExperimentSpec(
        mode="C+B", nodes_per_solver=1, steps=100, seed=3, mtbf_s=5.0
    ),
    "cb-8-malleable": _faulted(
        8, _crash("bn00", 0.3), _crash("bn01", 0.3),
        malleability={"enabled": True},
    ),
}

PINS = {
    "cb-1": "46435175f6905a345c7fd0607885d0e71d0e0ec607bc8b4dc67ff109b7663b74",
    "cluster-2": "fcc3fccec72823f483764e3f3ba46b70b225cb2b4f58e681b8f6e974afd10fd1",
    "booster-4": "7530e2b7d2df841e21c0617cb518ba9a0d8edd14c3f12422cc2321de9094fa3f",
    "booster-1-no-cluster": "6981c110182d4267dfc4d312e62eac61fd2f942dcf878d077374ae8eb471118d",
    "cb-4-no-overlap": "b8a98940b4d9ecb4f786c53afc939d7adb575edff99e52c3d1ffaa4a79983525",
    "cb-2-traced": "abd1fc28772cee38fdffc188981300a744af03446c1b1c9f1f4f5d23d2f1d285",
    "seismic-split-4": "eb343ca61e86a0f21fed29d7e92b45b47dc38f1939e89dab890851c568dd8612",
    "nested-8": "d00e66fc1bcefe5d6d6a61e21a24164a47573a0080bd1433cd1754ce14c320ce",
    "cb-4-link-degrade": "f05e10e8764f0df23ba91174074b3632d075c724752b5ba72c380e38e56f4ced",
    "cb-2-link-down": "09d0a0d6bc109432dda7c492645b037b4a0b9ce43c8b69a3e2ed0df5658c8cef",
    "cb-2-crash": "b3fd199f6731e03368fbc7b23511bedb1fefdab16c467cdbe5731fd75051eace",
    "cb-1-mtbf": "5a7d2c82297c1ee8f6b0d88df5196c98902c653069e7c0ca1f44b768e6e17f8c",
    "cb-8-malleable": "4b52db243d983fc8a0168c582326f4e5e38f02625da62487ab035fccf3b1378f",
}


PHYSICS_PINS = {
    "cb-1": "a2dac1ebee71428aa115c14d3efe135fe60951ba37509e46a5e3b55520d75b33",
    "cluster-2": "feebea3637f718d6e9c2b4fb6790d9a019492a8c788fb5e9b10a1f7a167d498a",
    "booster-4": "747980e27d67cd1129515beec1c9a0d008bd40b4d9a182f6bb45b873a8b3bcde",
    "booster-1-no-cluster": "27d5330a3fdc126667f5687eddfb43d7509db272bf34bae5a96b7ca3c2ebefa8",
    "cb-4-no-overlap": "67f3e4a22753a11c4f2261bc715cbb2783b2ab55727f1b7ad1db0fec402d6f1a",
    "cb-2-traced": "a3c50c5a575549f897255ee16ce99a9ea1ad0bceee9ffae0a085be1d2cbebc19",
    "seismic-split-4": "218c2a67ddd1a17a30f9000c8688277295677384e4fb760711173a5bbbbea462",
    "nested-8": "9ba8f8ad0fce78ac3967c9808ba17dbff1c3506f575ebb406c17e24ccc57ae87",
    "cb-4-link-degrade": "5a16aecfabc445a088595d5f3e776b73f35e3810b9c48862561b3cbf091ec8c3",
    "cb-2-link-down": "6a927f008586768311f15560a25e54461cc3132dc224342b5e58a4c743741b46",
    "cb-2-crash": "1c8f57dda48ac1a081bbe8ced43cc5a1811581be7ce5ff92dfad2bf2c09cda3b",
    "cb-1-mtbf": "e2c3d7d52076b2f14c5893eb833a5ec1b2aaba5bfaac2762523895cf78ed26f5",
    "cb-8-malleable": "7e7fda0dcf8cb78f91ae858a3e2410f007cf6a4eec943d3e0fc83046a46d2a53",
}


def canonical_report(report) -> str:
    """The report as JSON, host timings removed."""
    d = report.to_dict()
    d["sim"] = {k: v for k, v in d["sim"].items() if k not in HOST_TIMINGS}
    return json.dumps(d, sort_keys=True)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_matches_its_pin(name):
    text = canonical_report(Engine().run(SPECS[name]))
    physics = json.loads(text)
    del physics["sim"]
    digest = hashlib.sha256(
        json.dumps(physics, sort_keys=True).encode()
    ).hexdigest()
    assert digest == PHYSICS_PINS[name], (
        f"{name}: the report without its sim section hashes to {digest}"
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINS[name], (
        f"{name}: the canonical report's sha256 is now {digest}"
    )
