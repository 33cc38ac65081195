#!/usr/bin/env python
"""Modular resource management: why independent allocation wins.

Schedules a realistic mixed-centre job stream (CPU-only codes,
accelerator-only codes, and partitioned Cluster+Booster codes like
xPic) on the prototype under the two policies of section II:

* modular (Cluster-Booster): Cluster and Booster nodes are reserved
  independently, in any combination;
* host-coupled (conventional accelerated cluster): accelerators are
  bolted to hosts, so using one blocks the other.

Run:  python examples/heterogeneous_scheduling.py
"""

from repro.engine import preset_machine
from repro.jobs import (
    AcceleratedNodeAllocator,
    BatchScheduler,
    Job,
    ModularAllocator,
    mixed_center_workload,
)
from repro.sim import Simulator


def run(policy_name, allocator_cls, jobs):
    sim = Simulator()
    machine = preset_machine()
    pools = {"cluster": machine.cluster, "booster": machine.booster}
    sched = BatchScheduler(sim, allocator_cls(pools))
    sched.submit_all(jobs)
    sim.run()
    rep = sched.report()
    print(f"{policy_name:34s} makespan {rep.makespan / 3600:6.2f} h   "
          f"mean wait {rep.mean_wait / 3600:5.2f} h   "
          f"useful utilization {rep.utilization * 100:5.1f}%")
    return rep


def main():
    print("Job mix: 40% CPU-only, 30% accelerator-only, 30% Cluster+Booster")
    jobs_m = mixed_center_workload(60, seed=2026)
    jobs_c = mixed_center_workload(60, seed=2026)
    print(f"{len(jobs_m)} jobs, e.g.:")
    for j in jobs_m[:4]:
        nc, nb = j.requests.get("cluster", 0), j.requests.get("booster", 0)
        print(f"  {j.name:8s} wants C{nc}+B{nb} "
              f"for {j.duration_s / 60:5.1f} min")
    print()

    modular = run("modular (Cluster-Booster)", ModularAllocator, jobs_m)
    coupled = run("host-coupled (accelerated nodes)", AcceleratedNodeAllocator, jobs_c)

    print()
    print(f"modular advantage: {coupled.makespan / modular.makespan:.2f}x "
          "shorter makespan for the same work")

    # --- the extreme illustration -----------------------------------------
    print("\nComplementary pair (section II-A): a 16-node CPU job plus an "
          "8-node accelerator job")
    for name, cls in (
        ("modular", ModularAllocator),
        ("host-coupled", AcceleratedNodeAllocator),
    ):
        sim = Simulator()
        machine = preset_machine()
        pools = {"cluster": machine.cluster, "booster": machine.booster}
        sched = BatchScheduler(sim, cls(pools))
        sched.submit_all(
            [Job("cpu", {"cluster": 16}, 3600.0),
             Job("acc", {"booster": 8}, 3600.0)]
        )
        sim.run()
        rep = sched.report()
        concurrent = rep.makespan <= 3600.0 * 1.01
        print(f"  {name:14s}: makespan {rep.makespan / 3600:.1f} h "
              f"({'ran concurrently' if concurrent else 'serialized!'})")


if __name__ == "__main__":
    main()
