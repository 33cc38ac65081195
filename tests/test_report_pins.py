"""Pinned digests of the reports of a few small runs.

A report's canonical form is ``RunReport.to_dict()`` without its host
timings (``wall_time_s``, ``events_per_sec`` and ``host_wall_s``, all
in the ``sim`` section), dumped with ``json.dumps(sort_keys=True)``.
Every byte of it, the simulator's own counters included, is
deterministic, so each run below is pinned by the sha256 of that text.

The last three runs go through the epoch supervisor: a C+B 2+2 run
healing a Booster crash from its checkpoints, a C+B 1+1 run under a
Poisson crash stream, and a malleable C+B 8+8 run re-tuned after
losing two Booster nodes.

A change that only makes the program faster keeps every pin.  A change
to the model (a cost, an event, the order of two events, a report
field) moves the pins of the runs it touches: it updates them here and
says so in CHANGES.md.
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
    "cb-1": "9298c7ef24487a6e48eb2d53eb0a01ab31900c2fe7f0e7cbce876ca34b80e91f",
    "cluster-2": "0401ccb9ae01b9c7c1069f0683cb7fd7c31688dadc2ec81d280f6d6d1f846465",
    "booster-4": "4467e6076c93426d3ef20d109a18c0bbe22a0ac2ea7db7c6972de6c45d6c088f",
    "cb-4-no-overlap": "95e138f125bb95cea46f07c46a172e0fdef438a190567deb6b8f81799b430684",
    "cb-2-traced": "470fcf386e299bce1beb1b66f5468afaa569f68acf26ddad812968a93c554e73",
    "seismic-split-4": "91b94555bba4ec2769f91e99912fc3ddaeafd0089d157963b21ec2c5709beea3",
    "nested-8": "8a37511c73a06f1e003b2bf29c598cfbe43382741ec525a34a90e4a9c39886c6",
    "cb-4-link-degrade": "4c6728184de8d242d5423e4e729cc38e6fad7956c0d0b5ddc3afa9fde1cfe728",
    "cb-2-link-down": "bcd667b169f532b126a4037e879bcacbc4b21c2b4576a071b798ad087fd6d51a",
    "cb-2-crash": "a24a2970b0e9f3e78e23dda7f66b2b45ad938539ff9dfca7eefc766afa6c5c67",
    "cb-1-mtbf": "c26f37ee5d3651a19023ada19398a715cbef4cdc114e6919b16ae6118c44cb32",
    "cb-8-malleable": "a90ed9341850bf3ca56d7763a67ddfd5fbc3aa6f2c1ada147bc3e7d909613dbd",
}


def canonical_report(report) -> str:
    """The report as JSON, host timings removed."""
    d = report.to_dict()
    d["sim"] = {k: v for k, v in d["sim"].items() if k not in HOST_TIMINGS}
    return json.dumps(d, sort_keys=True)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_matches_its_pin(name):
    text = canonical_report(Engine().run(SPECS[name]))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINS[name], (
        f"{name}: the canonical report's sha256 is now {digest}"
    )
