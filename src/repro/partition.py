"""The canonical partition type: how an experiment is laid out on nodes.

Every layer describes a placement with this one frozen value type:
the autotuner's search space, the perfmodel's predictor, the engine's
spec (``ExperimentSpec(partition=...)``) and the supervisor's
re-tunes.  :meth:`Partition.coerce` also accepts the dict form that
specs, reports and cache keys store.

A partition is a small tree:

* A **flat** partition is a leaf — ``Partition(4, 4)`` is the C+B
  split with four ranks per side, ``Partition(8, 0)`` a homogeneous
  Cluster run.
* A **nested** partition splits one homogeneous side into co-scheduled
  solver sub-phases (after the recursive partitioning schemes of
  Kelly/Ghattas/Sundar): ``Partition(16, 0,
  cluster_arm=Partition(8, 8))`` takes sixteen Cluster nodes and runs
  the field solver on eight of them *concurrently* with the particle
  solver on the other eight — the C+B driver topology mapped onto one
  homogeneous pool.  The arm's ``overlap`` knob carries through.

Nesting is deliberately shallow (depth two): the driver pairs solver
ranks one to one, so an arm must be a symmetric split whose total
equals the parent side's node count, and arms cannot themselves grow
arms.  Heterogeneous (C+B) roots are already split across the backbone
and take no arms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["Partition"]


@dataclass(frozen=True, eq=False)
class Partition:
    """One point of the (possibly hierarchical) partition space.

    ``cluster_nodes``/``booster_nodes`` are the ranks given to each
    side: one side zero means a homogeneous run on the other side;
    both non-zero means the C+B split (the driver pairs the sides one
    to one, so the counts must match).  ``overlap`` and
    ``swap_placement`` only distinguish split runs and are normalized
    to their defaults for homogeneous ones, so equivalent layouts
    collapse onto one canonical value (and one cache key).

    ``cluster_arm``/``booster_arm`` optionally sub-split a homogeneous
    root into co-scheduled field/particle sub-phases; see the module
    docstring for the (deliberately strict) shape rules.
    """

    cluster_nodes: int = 1
    booster_nodes: int = 1
    overlap: bool = True
    swap_placement: bool = False
    cluster_arm: Optional["Partition"] = None
    booster_arm: Optional["Partition"] = None

    def __post_init__(self):
        if self.cluster_nodes < 0 or self.booster_nodes < 0:
            raise ValueError("node counts cannot be negative")
        if self.cluster_nodes == 0 and self.booster_nodes == 0:
            raise ValueError("partition needs nodes on at least one side")
        if (
            self.cluster_nodes > 0
            and self.booster_nodes > 0
            and self.cluster_nodes != self.booster_nodes
        ):
            raise ValueError(
                "the C+B driver pairs sides one to one: cluster and "
                "booster ranks must match"
            )
        if self.cluster_nodes == 0 or self.booster_nodes == 0:
            # overlap/placement only exist for split runs: canonicalize
            object.__setattr__(self, "overlap", True)
            object.__setattr__(self, "swap_placement", False)
        self._check_arms()

    def _check_arms(self) -> None:
        if self.cluster_arm is None and self.booster_arm is None:
            return
        if self.cluster_nodes and self.booster_nodes:
            raise ValueError(
                "a C+B partition is already split across the backbone "
                "and cannot carry arms"
            )
        if self.cluster_arm is not None and not self.cluster_nodes:
            raise ValueError("cluster_arm on a partition with no cluster side")
        if self.booster_arm is not None and not self.booster_nodes:
            raise ValueError("booster_arm on a partition with no booster side")
        arm = self.arm
        if not isinstance(arm, Partition):
            raise TypeError("partition arms must be Partition instances")
        if arm.cluster_arm is not None or arm.booster_arm is not None:
            raise ValueError("partition nesting is at most two levels deep")
        if arm.cluster_nodes != arm.booster_nodes or not arm.cluster_nodes:
            raise ValueError(
                "an arm co-schedules the two solvers on one pool: it "
                "must be a symmetric k+k split"
            )
        if arm.swap_placement:
            raise ValueError(
                "swap_placement is meaningless inside a homogeneous "
                "pool: both arms run on the same node kind"
            )
        side = self.cluster_nodes or self.booster_nodes
        if arm.cluster_nodes + arm.booster_nodes != side:
            raise ValueError(
                f"arm splits {arm.cluster_nodes}+{arm.booster_nodes} "
                f"nodes but the parent side has {side}"
            )

    # -- value semantics ----------------------------------------------------
    def _key(self) -> tuple:
        """Comparison key: orders flat partitions exactly as the
        pre-1.8 tuple order did (``None`` arms sort as empty tuples,
        i.e. first)."""
        return (
            self.cluster_nodes,
            self.booster_nodes,
            self.overlap,
            self.swap_placement,
            self.cluster_arm._key() if self.cluster_arm else (),
            self.booster_arm._key() if self.booster_arm else (),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __lt__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._key() < other._key()

    # -- shape --------------------------------------------------------------
    @property
    def mode(self) -> str:
        """The engine mode this partition maps to."""
        if self.booster_nodes == 0:
            return "Cluster"
        if self.cluster_nodes == 0:
            return "Booster"
        return "C+B"

    @property
    def arm(self) -> Optional["Partition"]:
        """The sub-split of a nested partition (``None`` when flat)."""
        return self.cluster_arm if self.cluster_arm is not None \
            else self.booster_arm

    @property
    def is_nested(self) -> bool:
        """True when this partition carries a hierarchical sub-split."""
        return self.arm is not None

    @property
    def nodes_per_solver(self) -> int:
        """Ranks each solver gets: Fig 8's x-axis for flat layouts,
        the sub-split width ``k`` for a nested ``k+k`` arm."""
        if self.is_nested:
            return self.arm.cluster_nodes
        return max(self.cluster_nodes, self.booster_nodes)

    @property
    def total_nodes(self) -> int:
        """Nodes the partition claims across both sides."""
        return self.cluster_nodes + self.booster_nodes

    def label(self) -> str:
        """Compact human-readable form: ``C+B 4+4``, ``Cluster 8``, or
        ``Cluster 16 (8+8 split)`` for a nested layout."""
        if self.mode == "C+B":
            text = f"C+B {self.cluster_nodes}+{self.booster_nodes}"
            if not self.overlap:
                text += " no-overlap"
            if self.swap_placement:
                text += " swapped"
            return text
        text = f"{self.mode} {self.total_nodes}"
        if self.is_nested:
            k = self.arm.cluster_nodes
            text += f" ({k}+{k} split)"
            if not self.arm.overlap:
                text += " no-overlap"
        return text

    # -- mapping onto the experiment engine ---------------------------------
    def to_spec(
        self,
        steps: int,
        preset: str = "deep-er",
        seed: int = 20180521,
        config=None,
        **kwargs,
    ):
        """The :class:`~repro.engine.ExperimentSpec` of this partition.

        Flat partitions produce the exact pre-1.8 spec shape (no
        ``partition`` field), so their cache keys are stable; nested
        ones carry themselves in ``spec.partition``.
        """
        import dataclasses

        from .engine import ExperimentSpec

        if config is not None and config.steps != steps:
            config = dataclasses.replace(config, steps=steps)
        if self.is_nested:
            kwargs = dict(kwargs, partition=self.to_dict())
        return ExperimentSpec(
            preset=preset,
            app="xpic",
            mode=self.mode,
            steps=steps,
            nodes_per_solver=self.nodes_per_solver,
            overlap=self.overlap,
            swap_placement=self.swap_placement,
            seed=seed,
            config=config,
            **kwargs,
        )

    # -- (de)serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict form (the shape stored in cache keys and
        reports).  Flat partitions serialize to the exact four-key
        shape 1.x stored — absent arms are omitted, not
        ``None``-valued — so stored reports and cache keys survive the
        redesign."""
        d = {
            "cluster_nodes": self.cluster_nodes,
            "booster_nodes": self.booster_nodes,
            "overlap": self.overlap,
            "swap_placement": self.swap_placement,
        }
        if self.cluster_arm is not None:
            d["cluster_arm"] = self.cluster_arm.to_dict()
        if self.booster_arm is not None:
            d["booster_arm"] = self.booster_arm.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Partition":
        d = dict(d)
        for key in ("cluster_arm", "booster_arm"):
            arm = d.get(key)
            if isinstance(arm, dict):
                d[key] = Partition.from_dict(arm)
        return cls(**d)

    @classmethod
    def coerce(cls, obj) -> "Partition":
        """``obj`` as a ``Partition``: a ``Partition`` comes back as
        is, its dict form goes through :meth:`from_dict`."""
        if isinstance(obj, Partition):
            return obj
        if isinstance(obj, dict):
            return cls.from_dict(obj)
        raise TypeError(
            f"cannot interpret {obj!r} as a Partition (expected a "
            "Partition or its dict form)"
        )
