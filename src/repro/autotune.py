"""Model-guided partition autotuner with successive halving.

The paper's headline result is that the *right* Cluster/Booster split
of xPic beats either homogeneous mode — but which split is right
shifts with scale, workload, and machine.  This module turns the
choice into a search: enumerate the partition space (cluster ranks x
booster ranks x overlap/placement knobs), *seed* the candidate pool
from :mod:`repro.perfmodel` placement predictions, then evaluate
generations through the cached :meth:`~repro.engine.Engine.run_many`
pool with **successive halving** — every candidate first runs a cheap
short-step probe, losers are pruned, survivors graduate to longer
runs until the last generation measures the finalists at full steps.

Because every evaluation flows through the content-addressed
:class:`~repro.store.ResultCache`, repeating a tune (or widening one)
never pays twice for a configuration already simulated: a rerun of the
identical search resolves entirely from cache and returns a
bit-identical winner.

Typical use::

    from repro.autotune import TuneSpace, tune

    report = tune(steps=200, cache="~/.cache/repro")
    print(report.best, report.best_runtime_s)
    report.save("tune.json")

or from the command line: ``python -m repro tune --steps 200``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .apps.xpic import XpicConfig, build_workload, table2_setup
from .engine import Engine, ExperimentSpec, preset_machine
from .partition import Partition
from .perfmodel import predict_partition
from .report import Report

__all__ = [
    "TUNE_SCHEMA",
    "Partition",
    "TuneSpace",
    "TuneReport",
    "predict_config_step",
    "tune",
]

#: schema tag of the TuneReport JSON export (bump on breaking change)
TUNE_SCHEMA = "repro.tune_report/1"


#: the hand-coded partition every figure script uses (C+B, one node per
#: solver, overlap on) — the baseline a tune must match or beat
HAND_CODED = Partition(
    cluster_nodes=1, booster_nodes=1, overlap=True, swap_placement=False
)


@dataclass(frozen=True)
class TuneSpace:
    """The enumerable partition space one tune searches.

    ``node_counts`` are the per-side rank counts tried; the space is
    the cross product cluster x booster ranks restricted to feasible
    layouts (homogeneous one-sided runs and symmetric C+B splits),
    crossed with the overlap and placement knobs for split runs.
    """

    node_counts: Tuple[int, ...] = (1, 2, 4, 8)
    overlap: Tuple[bool, ...] = (True, False)
    swap_placement: Tuple[bool, ...] = (False, True)
    include_homogeneous: bool = True
    nested: bool = False

    def __post_init__(self):
        if not self.node_counts or any(n < 1 for n in self.node_counts):
            raise ValueError("node_counts must be positive")

    def candidates(
        self,
        machine=None,
        config: Optional[XpicConfig] = None,
    ) -> List[Partition]:
        """Enumerate the feasible partitions, sorted and deduplicated.

        ``machine`` caps rank counts at what each side physically has;
        ``config`` drops counts its row-slab decomposition cannot honor
        (``ny`` must split evenly across ranks).  With ``nested=True``
        each feasible solver width ``k`` also contributes the
        hierarchical layouts — ``2k`` same-kind nodes sub-split into a
        co-scheduled ``k+k`` fields/particles arm — on every side with
        enough nodes.
        """
        counts = sorted(set(self.node_counts))
        if config is not None:
            counts = [n for n in counts if config.ny % n == 0]
        max_cluster = len(machine.cluster) if machine is not None else None
        max_booster = len(machine.booster) if machine is not None else None
        found = set()
        for n in counts:
            if self.include_homogeneous:
                if max_cluster is None or n <= max_cluster:
                    found.add(Partition(n, 0))
                if max_booster is None or n <= max_booster:
                    found.add(Partition(0, n))
            if self.nested:
                # the arm runs each solver at width n, so the root
                # claims 2n same-kind nodes and inherits n's ny cut
                for ov in self.overlap:
                    arm = Partition(n, n, overlap=ov)
                    if max_cluster is None or 2 * n <= max_cluster:
                        found.add(Partition(2 * n, 0, cluster_arm=arm))
                    if max_booster is None or 2 * n <= max_booster:
                        found.add(Partition(0, 2 * n, booster_arm=arm))
            if max_cluster is not None and n > max_cluster:
                continue
            if max_booster is not None and n > max_booster:
                continue
            for ov in self.overlap:
                for swap in self.swap_placement:
                    found.add(
                        Partition(n, n, overlap=ov, swap_placement=swap)
                    )
        return sorted(found)


def predict_config_step(machine, config: XpicConfig, cfg):
    """Per-step :class:`~repro.perfmodel.PartitionEstimate` of one
    candidate on a machine, from the calibrated kernel model and the
    per-rank workload decomposition (the seeding signal of the search).

    ``cfg`` may be nested: scoring recurses through
    :func:`~repro.perfmodel.predict_partition`, re-deriving the
    workload decomposition at each level's actual solver width.
    """
    cfg = Partition.coerce(cfg)

    def kernels_for(ranks: int):
        wl = build_workload(config, ranks)
        return (
            wl.field_kernel,
            wl.particle_kernel,
            wl.fields_exchange_nbytes + wl.moments_exchange_nbytes,
        )

    return predict_partition(
        machine.cluster[0] if machine.cluster else None,
        machine.booster[0] if machine.booster else None,
        cfg,
        kernels_for,
    )


@dataclass
class TuneReport(Report):
    """Outcome of one partition tune: winner, trace, model error.

    ``generations`` holds the full search trace — per generation the
    probe step count and every evaluated config with its model
    prediction and measured runtime — so a tune is auditable after the
    fact.  ``model`` grades the seeding predictions against the final
    full-step measurements.  ``cache`` carries the result-cache
    session counters when a cache was attached.
    """

    preset: str
    steps: int
    best: dict
    best_runtime_s: float
    baseline: dict = field(default_factory=dict)
    generations: list = field(default_factory=list)
    model: dict = field(default_factory=dict)
    candidates_considered: int = 0
    evaluations: int = 0
    cache: dict = field(default_factory=dict)
    host_wall_s: float = 0.0
    schema: str = TUNE_SCHEMA

    @property
    def best_config(self) -> Partition:
        """The winning partition as a :class:`~repro.partition.Partition`."""
        return Partition.from_dict(self.best)

    @property
    def speedup_vs_baseline(self) -> float:
        """Winner's speedup over the hand-coded C+B baseline (1.0 when
        no baseline was measured)."""
        base = self.baseline.get("measured_s", 0.0)
        if base <= 0 or self.best_runtime_s <= 0:
            return 1.0
        return base / self.best_runtime_s

    # -- JSON round trip ----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict form of the full tune report."""
        return {
            "schema": self.schema,
            "preset": self.preset,
            "steps": self.steps,
            "best": self.best,
            "best_runtime_s": self.best_runtime_s,
            "baseline": self.baseline,
            "generations": self.generations,
            "model": self.model,
            "candidates_considered": self.candidates_considered,
            "evaluations": self.evaluations,
            "cache": self.cache,
            "host_wall_s": self.host_wall_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TuneReport":
        try:
            return cls(
                preset=d["preset"],
                steps=d["steps"],
                best=d["best"],
                best_runtime_s=d["best_runtime_s"],
                baseline=dict(d.get("baseline") or {}),
                generations=list(d.get("generations", [])),
                model=dict(d.get("model") or {}),
                candidates_considered=d.get("candidates_considered", 0),
                evaluations=d.get("evaluations", 0),
                cache=dict(d.get("cache") or {}),
                host_wall_s=d.get("host_wall_s", 0.0),
                schema=d.get("schema", TUNE_SCHEMA),
            )
        except KeyError as exc:
            raise ValueError(
                f"not a {TUNE_SCHEMA} document (missing key {exc})"
            ) from None

    def render(self) -> str:
        """Human-readable digest: one table per generation, the winner
        against the model and the baseline, and the cache counters."""
        from .bench.tables import render_table
        from .store.tiered import render_cache_stats

        out = []
        for g, gen in enumerate(self.generations):
            rows = [
                (
                    e["label"],
                    f"{e['predicted_s']:.4f}",
                    f"{e['measured_s']:.4f}",
                )
                for e in gen["evaluated"]
            ]
            out.append(
                render_table(
                    ["Partition", "Predicted [s]", "Measured [s]"],
                    rows,
                    title=(
                        f"Generation {g + 1}/{len(self.generations)} "
                        f"({gen['steps']} steps, {len(rows)} candidates)"
                    ),
                )
            )
            out.append("")
        lines = [
            f"best partition: {self.best_config.label()}  "
            f"({self.best_runtime_s:.4f} s at {self.steps} steps)",
            f"searched {self.candidates_considered} candidates with "
            f"{self.evaluations} measured runs",
            f"model-vs-measured error (final generation): "
            f"{self.model.get('mean_abs_rel_err', 0.0):.1%}",
        ]
        if self.baseline:
            lines.append(
                f"hand-coded {self.baseline['label']}: "
                f"{self.baseline['measured_s']:.4f} s -> tuned speedup "
                f"{self.speedup_vs_baseline:.3f}x"
            )
        out.append("\n".join(lines))
        if self.cache:
            out.append("")
            out.append(render_cache_stats(self.cache))
        return "\n".join(out)


def _step_schedule(
    steps: int, generations: int, eta: int, min_steps: int
) -> List[int]:
    """Probe step counts per generation, geometric up to full steps."""
    if generations < 1:
        raise ValueError("need at least one generation")
    schedule = [
        max(min_steps, steps // eta ** (generations - 1 - g))
        for g in range(generations)
    ]
    schedule[-1] = steps
    # a floor can leave early probes above later ones; keep monotonic
    return [min(s, steps) for s in schedule]


def tune(
    space: Optional[TuneSpace] = None,
    steps: int = 500,
    preset: str = "deep-er",
    config: Optional[XpicConfig] = None,
    generations: int = 3,
    population: int = 8,
    eta: int = 2,
    min_steps: int = 5,
    workers: int = 1,
    cache=None,
    engine: Optional[Engine] = None,
    seed: int = 20180521,
    baseline: bool = True,
) -> TuneReport:
    """Search the partition space for the fastest configuration.

    Seeds ``population`` candidates by the perfmodel prediction, then
    runs ``generations`` rounds of successive halving: each round
    measures the survivors at a geometrically growing step count
    (starting near ``min_steps``, ending at the full ``steps``) through
    :meth:`Engine.run_many` (``workers``-wide, ``cache``-memoized) and
    keeps the fastest ``1/eta`` fraction.  ``baseline=True`` also
    measures the hand-coded C+B configuration at full steps so the
    report can state the tuned speedup.

    The search is fully deterministic: rerunning an identical tune
    reproduces the same winner bit for bit (and, with a cache, without
    simulating anything twice).
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    if eta < 2:
        raise ValueError("eta must be >= 2")
    space = space or TuneSpace()
    engine = engine or Engine()
    from .engine import _coerce_cache

    # coerce once so one object accumulates the session hit/miss counters
    cache = _coerce_cache(cache)
    t0 = time.perf_counter()  # wall-clock-ok: host-side telemetry only

    machine = preset_machine(preset)
    base_config = config if config is not None else table2_setup(steps=steps)
    candidates = space.candidates(machine=machine, config=base_config)
    if not candidates:
        raise ValueError("tune space has no feasible candidate")

    # -- model-guided seeding ---------------------------------------------
    predicted = {
        cfg: predict_config_step(machine, base_config, cfg)
        for cfg in candidates
    }
    pool = sorted(candidates, key=lambda c: (predicted[c].step_s, c))
    pool = pool[:population]

    # -- successive halving ------------------------------------------------
    schedule = _step_schedule(steps, generations, eta, min_steps)
    trace: list = []
    evaluations = 0
    measured_final: dict = {}
    for g, probe_steps in enumerate(schedule):
        specs = [
            cfg.to_spec(probe_steps, preset=preset, seed=seed, config=config)
            for cfg in pool
        ]
        sweep = engine.run_many(specs, workers=workers, cache=cache)
        measured = {
            cfg: r.total_runtime for cfg, r in zip(pool, sweep.reports)
        }
        evaluations += len(pool)
        trace.append(
            {
                "steps": probe_steps,
                "evaluated": [
                    {
                        "config": cfg.to_dict(),
                        "label": cfg.label(),
                        "predicted_s": predicted[cfg].total(probe_steps),
                        "measured_s": measured[cfg],
                    }
                    for cfg in pool
                ],
            }
        )
        ranked = sorted(pool, key=lambda c: (measured[c], c))
        if g == len(schedule) - 1:
            measured_final = measured
            pool = ranked[:1]
        else:
            pool = ranked[: max(1, math.ceil(len(ranked) / eta))]

    best = pool[0]
    best_runtime = measured_final[best]

    # -- model-vs-measured error on the full-step finalists ----------------
    errors = [
        abs(predicted[cfg].total(steps) - t) / t
        for cfg, t in measured_final.items()
        if t > 0
    ]
    model = {
        "mean_abs_rel_err": sum(errors) / len(errors) if errors else 0.0,
        "graded_configs": len(errors),
    }

    # -- hand-coded baseline ----------------------------------------------
    baseline_section: dict = {}
    if baseline:
        base_spec = HAND_CODED.to_spec(
            steps, preset=preset, seed=seed, config=config
        )
        base_report = engine.run(base_spec, cache=cache)
        baseline_section = {
            "config": HAND_CODED.to_dict(),
            "label": HAND_CODED.label(),
            "measured_s": base_report.total_runtime,
        }

    return TuneReport(
        preset=preset,
        steps=steps,
        best=best.to_dict(),
        best_runtime_s=best_runtime,
        baseline=baseline_section,
        generations=trace,
        model=model,
        candidates_considered=len(candidates),
        evaluations=evaluations,
        cache=cache.stats() if cache is not None else {},
        host_wall_s=time.perf_counter() - t0,  # wall-clock-ok: host-side telemetry only
    )
