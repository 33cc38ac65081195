"""Ablation — modular vs host-coupled resource allocation.

Section II-A: independent reservation of Cluster and Booster nodes
"allows combining the set of applications in a complementary way,
increasing throughput and efficiency of use for the overall system".
This bench schedules the same mixed-centre job stream under both
policies.
"""

from repro.bench import render_table
from repro.engine import preset_machine
from repro.jobs import (
    AcceleratedNodeAllocator,
    BatchScheduler,
    ModularAllocator,
    mixed_center_workload,
)
from repro.sim import Simulator

N_JOBS = 60


def run_policy(accelerated, seed=11):
    sim = Simulator()
    machine = preset_machine()
    cls = AcceleratedNodeAllocator if accelerated else ModularAllocator
    sched = BatchScheduler(
        sim, cls({"cluster": machine.cluster, "booster": machine.booster})
    )
    sched.submit_all(mixed_center_workload(N_JOBS, seed=seed))
    sim.run()
    return sched.report()


def test_modular_scheduling_throughput(benchmark, report):
    modular, coupled = benchmark.pedantic(
        lambda: (run_policy(False), run_policy(True)), rounds=1, iterations=1
    )
    rows = [
        (
            "modular (Cluster-Booster)",
            f"{modular.makespan / 3600:.2f}",
            f"{modular.mean_wait / 3600:.2f}",
            f"{modular.utilization * 100:.1f}%",
            f"{modular.throughput * 3600:.2f}",
        ),
        (
            "host-coupled (accelerated nodes)",
            f"{coupled.makespan / 3600:.2f}",
            f"{coupled.mean_wait / 3600:.2f}",
            f"{coupled.utilization * 100:.1f}%",
            f"{coupled.throughput * 3600:.2f}",
        ),
        (
            "modular advantage",
            f"{coupled.makespan / modular.makespan:.2f}x",
            "",
            "",
            "",
        ),
    ]
    report(
        "scheduler_throughput",
        render_table(
            ["Policy", "makespan [h]", "mean wait [h]", "utilization", "jobs/h"],
            rows,
            title=f"Scheduling {N_JOBS} mixed-centre jobs on the prototype",
        ),
    )
    assert modular.makespan < coupled.makespan
    assert modular.utilization > coupled.utilization
    assert modular.mean_wait <= coupled.mean_wait
