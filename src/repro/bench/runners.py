"""Experiment runners shared by the benchmark suite and EXPERIMENTS.md.

The Fig 7/8 runners are thin :class:`~repro.engine.ExperimentSpec`
sweeps over the unified engine: every run goes down the same
instrumented path, and the per-run :class:`~repro.engine.RunReport`
(cross-layer metrics, Chrome-trace export) rides along next to the
app-level timings the figures need.  Every runner sweeps through a
:class:`~repro.api.Session` (``session=`` injects one with its cache
and worker width; the default is a plain ``Session()``), so results
are bit-identical to a serial sweep at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps.xpic import Mode, RunResult
from ..engine import ExperimentSpec, RunReport
from ..perfmodel import parallel_efficiency


def _session(session):
    """The Session a runner sweeps through (a plain one by default)."""
    if session is not None:
        return session
    from ..api import Session

    return Session()

__all__ = ["Fig7Result", "Fig8Result", "run_fig7", "run_fig8", "FIG78_STEPS"]

#: Step count used for the headline runs; with the Table II workload
#: this puts absolute runtimes in the paper's tens-of-seconds range.
FIG78_STEPS = 500


def experiment_spec(
    mode: Mode, steps: int, nodes_per_solver: int = 1, **kwargs
) -> ExperimentSpec:
    """The canonical Fig 7/8 spec: DEEP-ER preset, xPic, Table II."""
    return ExperimentSpec(
        preset="deep-er",
        app="xpic",
        mode=Mode(mode).value,
        steps=steps,
        nodes_per_solver=nodes_per_solver,
        **kwargs,
    )


@dataclass
class Fig7Result:
    """The three single-node runs of Fig 7."""

    runs: Dict[Mode, RunResult]
    reports: Dict[Mode, RunReport] = field(default_factory=dict)

    @property
    def gain_vs_cluster(self) -> float:
        """C+B speedup over Cluster-only (paper: 1.28x)."""
        return (
            self.runs[Mode.CLUSTER].total_runtime
            / self.runs[Mode.CB].total_runtime
        )

    @property
    def gain_vs_booster(self) -> float:
        """C+B speedup over Booster-only (paper: 1.21x)."""
        return (
            self.runs[Mode.BOOSTER].total_runtime
            / self.runs[Mode.CB].total_runtime
        )

    @property
    def field_cluster_advantage(self) -> float:
        """Field-solver speedup of the Cluster node (paper: ~6x)."""
        return (
            self.runs[Mode.BOOSTER].fields_time
            / self.runs[Mode.CLUSTER].fields_time
        )

    @property
    def particle_booster_advantage(self) -> float:
        """Particle-solver speedup of the Booster node (paper: ~1.35x)."""
        return (
            self.runs[Mode.CLUSTER].particles_time
            / self.runs[Mode.BOOSTER].particles_time
        )

    def render(self) -> str:
        """Fig 7 as ``repro fig7`` prints it: the per-mode bars, then
        each gain next to the paper's figure."""
        from .tables import render_table

        rows = []
        for mode in Mode:
            r = self.runs[mode]
            rows.append(
                (
                    mode.value,
                    f"{r.fields_time:.2f}",
                    f"{r.particles_time:.2f}",
                    f"{r.total_runtime:.2f}",
                )
            )
        table = render_table(
            ["Mode", "Fields [s]", "Particles [s]", "Total [s]"],
            rows,
            title=(
                "Fig 7: single-node runtimes "
                f"({self.runs[Mode.CB].steps} steps)"
            ),
        )
        table += (
            f"\n\nC+B gain vs Cluster: {self.gain_vs_cluster:.3f}x "
            "(paper 1.28x)"
            f"\nC+B gain vs Booster: {self.gain_vs_booster:.3f}x "
            "(paper 1.21x)"
            f"\nfield solver Cluster advantage: "
            f"{self.field_cluster_advantage:.2f}x (paper ~6x)"
            f"\nparticle solver Booster advantage: "
            f"{self.particle_booster_advantage:.2f}x (paper ~1.35x)"
        )
        return table


@dataclass
class Fig8Result:
    """The 3-mode x node-count scaling sweep of Fig 8."""

    node_counts: List[int]
    runs: Dict[Tuple[Mode, int], RunResult]
    reports: Dict[Tuple[Mode, int], RunReport] = field(default_factory=dict)

    def runtime(self, mode: Mode, n: int) -> float:
        """Total runtime of one (mode, node count) run."""
        return self.runs[(mode, n)].total_runtime

    def efficiency(self, mode: Mode, n: int) -> float:
        """Parallel efficiency T(1) / (n T(n)) — Fig 8's lower panel."""
        return parallel_efficiency(
            self.runtime(mode, 1), self.runtime(mode, n), n
        )

    def gain(self, baseline: Mode, n: int) -> float:
        """C+B speedup over a homogeneous baseline at n nodes per solver."""
        return self.runtime(baseline, n) / self.runtime(Mode.CB, n)

    def render(self) -> str:
        """Fig 8 as ``repro fig8`` prints it: the runtime and
        parallel-efficiency curves, then the 8-node C+B gains."""
        from .tables import render_series

        ns = self.node_counts
        steps = self.runs[(Mode.CB, ns[0])].steps
        out = [
            render_series(
                "Nodes/solver",
                ns,
                {m.value: [self.runtime(m, n) for n in ns] for m in Mode},
                title=f"Fig 8 (top): runtime [s] ({steps} steps)",
                fmt="{:.2f}",
            ),
            "",
            render_series(
                "Nodes/solver",
                ns,
                {m.value: [self.efficiency(m, n) for n in ns] for m in Mode},
                title="Fig 8 (bottom): parallel efficiency",
                fmt="{:.3f}",
            ),
            "",
            f"C+B gain at 8 nodes: {self.gain(Mode.CLUSTER, 8):.3f}x vs "
            f"Cluster (paper 1.38x), {self.gain(Mode.BOOSTER, 8):.3f}x vs "
            "Booster (paper 1.34x)",
        ]
        return "\n".join(out)

    def fig7(self) -> Fig7Result:
        """Fig 7 from this sweep's 1-node runs, which are its three
        specs (needs 1 among the node counts)."""
        return Fig7Result(
            runs={m: self.runs[(m, 1)] for m in Mode},
            reports={m: self.reports[(m, 1)] for m in Mode},
        )


def run_fig7(
    steps: int = FIG78_STEPS,
    fault_plan: Optional[dict] = None,
    mtbf_s: Optional[float] = None,
    session=None,
) -> Fig7Result:
    """Run the three single-node experiments of Fig 7.

    ``fault_plan`` (a FaultPlan or its dict form) / ``mtbf_s`` inject
    the same fault schedule into every run — Fig 7 under failures.
    ``session`` injects a ready :class:`~repro.api.Session`, whose
    engine, result cache and worker width the sweep uses."""
    session = _session(session)
    modes = list(Mode)
    sweep = session.sweep(
        [
            experiment_spec(mode, steps, fault_plan=fault_plan, mtbf_s=mtbf_s)
            for mode in modes
        ]
    )
    reports = dict(zip(modes, sweep.reports))
    return Fig7Result(
        runs={m: r.result_view for m, r in reports.items()}, reports=reports
    )


def run_fig8(
    steps: int = FIG78_STEPS,
    node_counts: Tuple[int, ...] = (1, 2, 4, 8),
    fault_plan: Optional[dict] = None,
    mtbf_s: Optional[float] = None,
    session=None,
) -> Fig8Result:
    """Run the full scaling sweep of Fig 8 (3 modes x node counts).

    ``fault_plan`` / ``mtbf_s`` inject the same fault schedule into
    every run of the sweep; ``session`` injects a ready
    :class:`~repro.api.Session` (engine, result cache, worker width)."""
    session = _session(session)
    keys = [(mode, n) for mode in Mode for n in node_counts]
    sweep = session.sweep(
        [
            experiment_spec(
                mode,
                steps,
                nodes_per_solver=n,
                fault_plan=fault_plan,
                mtbf_s=mtbf_s,
            )
            for mode, n in keys
        ]
    )
    reports = dict(zip(keys, sweep.reports))
    return Fig8Result(
        node_counts=list(node_counts),
        runs={k: r.result_view for k, r in reports.items()},
        reports=reports,
    )
