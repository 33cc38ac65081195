"""Synthetic job-mix generators for scheduler experiments.

Models the "typically broad user portfolio of large-scale computer
centres" (section IV): some codes want only CPUs, some only
accelerators, some both — which is exactly the mix where independent
(modular) allocation beats host-coupled accelerators.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .job import Job

__all__ = ["mixed_center_workload"]


def mixed_center_workload(
    n_jobs: int,
    max_cluster: int = 16,
    max_booster: int = 8,
    mean_duration_s: float = 3600.0,
    arrival_rate_per_s: float = 1 / 600.0,
    cluster_only_frac: float = 0.4,
    booster_only_frac: float = 0.3,
    seed: int = 7,
) -> List[Job]:
    """A Poisson stream of heterogeneous jobs.

    ``cluster_only_frac`` of jobs use only Cluster nodes,
    ``booster_only_frac`` only Booster nodes, the rest are partitioned
    codes (like xPic) using both.
    """
    if n_jobs < 1:
        raise ValueError("need at least one job")
    if cluster_only_frac + booster_only_frac > 1.0:
        raise ValueError("fractions exceed 1")
    rng = np.random.default_rng(seed)
    jobs = []
    t = 0.0
    for i in range(n_jobs):
        t += rng.exponential(1.0 / arrival_rate_per_s)
        duration = max(60.0, rng.exponential(mean_duration_s))
        kind = rng.random()
        if kind < cluster_only_frac:
            nc = int(rng.integers(1, max_cluster // 2 + 1))
            nb = 0
            name = f"cpu-{i}"
        elif kind < cluster_only_frac + booster_only_frac:
            nc = 0
            nb = int(rng.integers(1, max_booster // 2 + 1))
            name = f"acc-{i}"
        else:
            nb = int(rng.integers(1, max_booster // 2 + 1))
            nc = int(rng.integers(1, max_cluster // 2 + 1))
            name = f"cb-{i}"
        jobs.append(
            Job(
                name=name,
                requests={"cluster": nc, "booster": nb},
                duration_s=duration,
                submit_time=t,
            )
        )
    return jobs
