"""Online malleability: re-partition a running job when nodes vanish.

The epoch supervisor
(:func:`~repro.apps.xpic.resilient_driver.run_resilient_experiment`)
answers a mid-run node loss with a fixed *heal* script by default:
swap spares in, or degrade C+B to a homogeneous Cluster run.  That
script ignores everything the autotuner knows — after losing a quarter
of the Booster, the *best* surviving layout is usually not "same shape
minus the dead nodes" but a different partition entirely.

Passing the supervisor a :class:`MalleabilityPolicy` selects the
*re-tune* recovery instead, after the DEEP-ER malleability argument
(arXiv:1904.07725): each time the
:class:`~repro.resiliency.inject.FaultInjector` (or a scheduler shrink
expressed through :func:`allocation_shrink_plan`) kills job nodes, the
supervisor

1. drains the aborted epoch and finds the newest step every rank can
   restore through :class:`~repro.resiliency.scr.SCR`,
2. runs :func:`retune`, a *constrained tune* over the surviving
   machine — the :class:`~repro.autotune.TuneSpace` enumeration
   (hierarchical layouts included) scored by the recursive perfmodel,
   memoized per survivor signature so repeated shrinks are O(1),
3. redistributes the checkpoint onto the winning partition's nodes
   and resumes there, at whatever width and mode the model picked.

The search is pure model arithmetic over a seeded candidate order, so
a given fault plan and seed always produce the same re-partition
sequence — the determinism contract the supervisor tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Sequence

from .inject import FaultEvent, FaultPlan

__all__ = [
    "MalleabilityPolicy",
    "allocation_shrink_plan",
    "retune",
]


@dataclass(frozen=True)
class MalleabilityPolicy:
    """How a run is allowed to reshape itself after losing nodes.

    ``node_counts`` constrains the per-solver widths the recovery tune
    may consider; empty means "derive powers of two up to whatever the
    surviving pools can hold" (which is how the re-tune can discover a
    layout *wider* than the original job, e.g. falling back from C+B
    8+8 onto all sixteen Cluster nodes).  ``nested`` admits
    hierarchical sub-split layouts into the recovery search.
    ``retune`` names the search strategy; only the memoized pure-model
    search (``"model"``) exists today.
    """

    enabled: bool = True
    retune: str = "model"
    nested: bool = True
    node_counts: tuple = ()
    max_repartitions: int = 8

    def __post_init__(self):
        if self.retune != "model":
            raise ValueError(
                f"unknown retune strategy {self.retune!r} (only 'model')"
            )
        if self.max_repartitions < 1:
            raise ValueError("max_repartitions must be >= 1")
        counts = tuple(int(n) for n in self.node_counts)
        if any(n < 1 for n in counts):
            raise ValueError("node_counts must be positive")
        object.__setattr__(self, "node_counts", counts)

    def to_dict(self) -> dict:
        """JSON-safe form (the shape ``ExperimentSpec.malleability``
        stores)."""
        return {
            "enabled": self.enabled,
            "retune": self.retune,
            "nested": self.nested,
            "node_counts": list(self.node_counts),
            "max_repartitions": self.max_repartitions,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MalleabilityPolicy":
        d = dict(d)
        unknown = set(d) - {
            "enabled", "retune", "nested", "node_counts", "max_repartitions",
        }
        if unknown:
            raise ValueError(
                f"unknown malleability policy keys {sorted(unknown)}"
            )
        if "node_counts" in d:
            d["node_counts"] = tuple(d["node_counts"])
        return cls(**d)


def allocation_shrink_plan(
    node_ids: Sequence[str], time_s: float, seed: int = 20180521
) -> FaultPlan:
    """A scheduler shrink expressed as a fault plan.

    The service scheduler taking nodes away from a running allocation
    is, from the job's point of view, indistinguishable from those
    nodes crashing — so a shrink is modeled as simultaneous permanent
    ``node_crash`` events, and the supervisor handles both through one
    path.
    """
    if time_s < 0:
        raise ValueError("shrink time must be non-negative")
    return FaultPlan(
        [
            FaultEvent(time_s=float(time_s), kind="node_crash", target=nid)
            for nid in node_ids
        ],
        seed=seed,
    )


def _healthy(nodes) -> List:
    return [nd for nd in nodes if not nd.failed]


def _derived_counts(machine) -> tuple:
    """Power-of-two solver widths up to the larger healthy pool."""
    cap = max(
        len(_healthy(machine.cluster)), len(_healthy(machine.booster)), 1
    )
    counts, k = [], 1
    while k <= cap:
        counts.append(k)
        k *= 2
    return tuple(counts)


def retune(
    machine,
    config,
    policy: MalleabilityPolicy,
    memo: Dict[tuple, tuple],
):
    """The re-tune recovery's model search: the best partition of
    ``config`` over the machine's surviving nodes, memoized in ``memo``
    per survivor signature.

    Returns ``(best, predicted_step_s, candidates, memo_hit)``.  The
    candidate order and the (score, partition) tie-break are both
    deterministic, so a fault plan replays to the same choice.
    """
    from ..autotune import TuneSpace, predict_config_step

    survivors = SimpleNamespace(
        cluster=_healthy(machine.cluster), booster=_healthy(machine.booster)
    )
    sig = (len(survivors.cluster), len(survivors.booster))
    if sig in memo:
        return (*memo[sig], True)
    counts = policy.node_counts or _derived_counts(machine)
    space = TuneSpace(
        node_counts=counts,
        overlap=(True,),
        swap_placement=(False,),
        nested=policy.nested,
    )
    candidates = space.candidates(machine=survivors, config=config)
    if not candidates:
        raise RuntimeError(
            "no feasible partition over the surviving nodes"
        )
    scored = sorted(
        (predict_config_step(survivors, config, c).step_s, c)
        for c in candidates
    )
    best = (scored[0][1], scored[0][0], len(candidates))
    memo[sig] = best
    return (*best, False)
