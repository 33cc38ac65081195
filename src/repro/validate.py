"""Programmatic validation of the paper's claims.

Runs the reproduction and checks every quantitative claim of the
evaluation section against its acceptance band, producing a claims
checklist (``python -m repro validate``).  This is the executable
version of EXPERIMENTS.md.

Only the runs a claim reads are simulated: every Fig 7 and Fig 8 claim
reads the 1- and 8-node points, so the Fig 8 sweep here covers those
two node counts (six specs); ``repro fig8`` draws all four.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .api import Session
from .apps.xpic import Mode
from .bench import run_fig8

__all__ = ["Claim", "validate_claims", "render_claims"]


def _machine(**overrides):
    """A DEEP-ER prototype machine built through the Session facade."""
    return Session().machine(**overrides)


@dataclass
class Claim:
    """One checkable statement from the paper."""

    claim_id: str
    statement: str
    paper_value: str
    measured: float
    low: float
    high: float
    fmt: str = "{:.3f}"

    @property
    def passed(self) -> bool:
        """Whether the measurement falls inside the acceptance band."""
        return self.low <= self.measured <= self.high

    @property
    def measured_str(self) -> str:
        """The measured value formatted for the report."""
        return self.fmt.format(self.measured)


def validate_claims(steps: int = 200, workers: int = 1) -> List[Claim]:
    """Run the evaluation and grade every claim.  Returns the list of
    claims with pass/fail; deterministic regardless of ``workers`` (the
    Fig 7/8 sweeps fan out over one :class:`~repro.api.Session`)."""
    claims: List[Claim] = []
    session = Session(workers=workers)
    machine = _machine()
    fab = machine.fabric

    # --- Table I / Fig 3 -------------------------------------------------
    claims.append(
        Claim(
            "T1-latency-cn",
            "Cluster MPI latency",
            "1.0 us",
            fab.latency("cn00", "cn01") * 1e6,
            0.95,
            1.05,
            "{:.2f} us",
        )
    )
    claims.append(
        Claim(
            "T1-latency-bn",
            "Booster MPI latency",
            "1.8 us",
            fab.latency("bn00", "bn01") * 1e6,
            1.71,
            1.89,
            "{:.2f} us",
        )
    )
    claims.append(
        Claim(
            "F3-bandwidth",
            "large-message bandwidth plateau",
            "~10 GB/s",
            fab.bandwidth("cn00", "bn00", 16 * 2**20) / 1e9,
            8.5,
            12.5,
            "{:.2f} GB/s",
        )
    )
    claims.append(
        Claim(
            "F3-ordering",
            "latency ordering CN-CN < CN-BN < BN-BN",
            "holds",
            float(
                fab.latency("cn00", "cn01")
                < fab.latency("cn00", "bn00")
                < fab.latency("bn00", "bn01")
            ),
            1.0,
            1.0,
            "{:.0f}",
        )
    )

    # --- Fig 7 ----------------------------------------------------------
    # one sweep, one pool: Fig 8's claims read its 1- and 8-node runs
    # and Fig 7's are its three 1-node specs; 2 and 4 nodes feed none
    f8 = run_fig8(steps=steps, node_counts=(1, 8), session=session)
    f7 = f8.fig7()
    claims.append(
        Claim(
            "F7-field-6x",
            "field solver ~6x faster on Cluster",
            "6x",
            f7.field_cluster_advantage,
            5.0,
            7.0,
            "{:.2f}x",
        )
    )
    claims.append(
        Claim(
            "F7-particle-135",
            "particle solver ~1.35x faster on Booster",
            "1.35x",
            f7.particle_booster_advantage,
            1.2,
            1.5,
            "{:.2f}x",
        )
    )
    claims.append(
        Claim(
            "F7-gain-cluster",
            "C+B gain vs Cluster-only (1 node)",
            "1.28x",
            f7.gain_vs_cluster,
            1.15,
            1.5,
            "{:.2f}x",
        )
    )
    claims.append(
        Claim(
            "F7-gain-booster",
            "C+B gain vs Booster-only (1 node)",
            "1.21x",
            f7.gain_vs_booster,
            1.1,
            1.45,
            "{:.2f}x",
        )
    )
    claims.append(
        Claim(
            "F7-comm-small",
            "C-B exchange is a small overhead",
            "3-4% per solver",
            f7.runs[Mode.CB].comm_overhead_fraction * 100,
            0.0,
            8.0,
            "{:.1f}%",
        )
    )

    # --- Fig 8 ----------------------------------------------------------
    claims.append(
        Claim(
            "F8-gain-grows",
            "C+B gain grows with node count",
            "1.28 -> 1.38",
            f8.gain(Mode.CLUSTER, 8) - f8.gain(Mode.CLUSTER, 1),
            0.0,
            1.0,
            "+{:.3f}",
        )
    )
    claims.append(
        Claim(
            "F8-gain8-cluster",
            "C+B gain vs Cluster at 8 nodes",
            "1.38x",
            f8.gain(Mode.CLUSTER, 8),
            1.25,
            1.55,
            "{:.2f}x",
        )
    )
    claims.append(
        Claim(
            "F8-gain8-booster",
            "C+B gain vs Booster at 8 nodes",
            "1.34x",
            f8.gain(Mode.BOOSTER, 8),
            1.25,
            1.6,
            "{:.2f}x",
        )
    )
    eff_cb = f8.efficiency(Mode.CB, 8)
    eff_cl = f8.efficiency(Mode.CLUSTER, 8)
    eff_bo = f8.efficiency(Mode.BOOSTER, 8)
    claims.append(
        Claim(
            "F8-eff-cb",
            "parallel efficiency C+B at 8 nodes",
            "85%",
            eff_cb * 100,
            75.0,
            92.0,
            "{:.1f}%",
        )
    )
    claims.append(
        Claim(
            "F8-eff-cluster",
            "parallel efficiency Cluster at 8 nodes",
            "79%",
            eff_cl * 100,
            72.0,
            88.0,
            "{:.1f}%",
        )
    )
    claims.append(
        Claim(
            "F8-eff-booster",
            "parallel efficiency Booster at 8 nodes",
            "77%",
            eff_bo * 100,
            68.0,
            84.0,
            "{:.1f}%",
        )
    )
    claims.append(
        Claim(
            "F8-eff-order",
            "efficiency ordering C+B > Cluster > Booster",
            "holds",
            float(eff_cb > eff_cl > eff_bo),
            1.0,
            1.0,
            "{:.0f}",
        )
    )

    claims.extend(_stack_claims())
    return claims


def _stack_claims() -> List[Claim]:
    """Claims about the DEEP-ER software stack (sections II-III)."""
    from .apps.xpic import Mode as XMode
    from .io import BeeGFS, BeeondCache, CacheMode, SIONFile, write_task_local
    from .jobs import (
        AcceleratedNodeAllocator,
        BatchScheduler,
        ModularAllocator,
        mixed_center_workload,
    )
    from .perfmodel import PowerModel
    from .sim import Simulator

    claims: List[Claim] = []

    # SIONlib aggregation (section III-C)
    machine = _machine()
    fs = BeeGFS(machine)
    clients = (machine.cluster + machine.booster)[:16]

    def naive():
        t0 = machine.sim.now
        yield from write_task_local(fs, clients, "naive", 64 * 1024)
        return machine.sim.now - t0

    t_naive = machine.sim.run_process(naive())
    sion = SIONFile(fs, "sion", n_tasks=16, chunk_size=64 * 1024)

    def agg():
        t0 = machine.sim.now
        yield from sion.open(clients[0])
        for i, c in enumerate(clients):
            yield from sion.write_task(c, i, 64 * 1024)
        return machine.sim.now - t0

    t_sion = machine.sim.run_process(agg())
    claims.append(
        Claim(
            "S3-sionlib",
            "SIONlib aggregation beats task-local files (16 ranks)",
            ">1x",
            t_naive / t_sion,
            1.05,
            100.0,
            "{:.2f}x",
        )
    )

    # BeeOND async cache (section III-C)
    def cache_time(mode):
        m = _machine()
        cache = BeeondCache(BeeGFS(m), mode=mode)
        client = m.cluster[0]

        def proc():
            t0 = m.sim.now
            yield from cache.write(client, "f", 64 * 2**20)
            return m.sim.now - t0

        return m.sim.run_process(proc())

    speedup_cache = cache_time(CacheMode.SYNC) / cache_time(CacheMode.ASYNC)
    claims.append(
        Claim(
            "S3-beeond",
            "BeeOND async cache accelerates application writes",
            "speeds up I/O",
            speedup_cache,
            2.0,
            1000.0,
            "{:.1f}x",
        )
    )

    # Modular scheduling throughput (section II-A)
    def makespan(accelerated):
        sim = Simulator()
        m = _machine()
        cls = AcceleratedNodeAllocator if accelerated else ModularAllocator
        sched = BatchScheduler(sim, cls({"cluster": m.cluster, "booster": m.booster}))
        sched.submit_all(mixed_center_workload(40, seed=3))
        sim.run()
        return sched.report().makespan

    claims.append(
        Claim(
            "S2-modular",
            "independent allocation shortens the mixed-stream makespan",
            "increases throughput",
            makespan(True) / makespan(False),
            1.02,
            10.0,
            "{:.2f}x",
        )
    )

    # Energy efficiency motivation (section I)
    pm = PowerModel()
    m = _machine(cluster_nodes=2, booster_nodes=2)
    claims.append(
        Claim(
            "S1-energy",
            "Booster delivers more flop/s per Watt",
            "higher efficiency",
            pm.peak_flops_per_watt(m.booster[0])
            / pm.peak_flops_per_watt(m.cluster[0]),
            1.5,
            10.0,
            "{:.1f}x",
        )
    )
    return claims


def render_claims(claims: List[Claim]) -> str:
    """Render the checklist as a table with a pass/fail summary."""
    from .bench import render_table

    rows = [
        (
            c.claim_id,
            c.statement,
            c.paper_value,
            c.measured_str,
            "PASS" if c.passed else "FAIL",
        )
        for c in claims
    ]
    n_pass = sum(1 for c in claims if c.passed)
    table = render_table(
        ["Id", "Claim", "Paper", "Measured", "Status"],
        rows,
        title="Claims checklist: 'Application performance on a "
        "Cluster-Booster system'",
    )
    return table + f"\n\n{n_pass}/{len(claims)} claims reproduced"
