#!/usr/bin/env python
"""Modular Supercomputing: the DEEP-EST generalization (section VI).

Builds a three-module system — general-purpose Cluster, many-core
Booster, and a fat-memory Data Analytics Module (DAM) — and runs a
workflow that spans all of them: the xPic-style simulation partitioned
over Cluster+Booster, streaming snapshots to analytics processes
spawned on the DAM.

Run:  python examples/modular_supercomputing.py
"""

import numpy as np

from repro.hardware import booster_module, build_modular_system, cluster_module
from repro.jobs import BatchScheduler, Job, ModularAllocator
from repro.modular import data_analytics_module
from repro.mpi import MPIRuntime


def main():
    machine = build_modular_system(
        [
            cluster_module(nodes=8),
            booster_module(nodes=4),
            data_analytics_module(nodes=2),
        ]
    )
    print("Modular Supercomputing system:")
    for name in machine.module_names:
        nodes = machine.module(name)
        p = nodes[0].processor
        print(f"  {name:8s}: {len(nodes)} nodes "
              f"({p.microarchitecture}, "
              f"{nodes[0].memory.total_capacity / 2**30:.0f} GiB/node, "
              f"{machine.peak_flops_of_module(name) / 1e12:.1f} TFlop/s)")
    print(f"  inter-module hops: "
          f"{machine.fabric.hops('cn00', 'dn00')} "
          f"(latency {machine.fabric.latency('cn00', 'dn00') * 1e6:.2f} us)")
    print()

    # ---- a workflow across all three modules -----------------------------
    rt = MPIRuntime(machine)
    STEPS = 5

    def analytics(ctx):
        """HPDA part on the DAM: reduce each snapshot it receives."""
        parent = ctx.get_parent()
        summaries = []
        for _ in range(STEPS):
            snap = yield from parent.recv(source=0)
            yield ctx.compute(0.002)  # in-memory analytics
            summaries.append(float(np.mean(snap)))
        yield from parent.send(summaries, dest=0)

    def particle_part(ctx):
        """Simulation's particle side on the Booster."""
        parent = ctx.get_parent()
        for step in range(STEPS):
            yield ctx.compute(0.010)  # particle push
            moments = np.full(4096, float(step))
            yield from parent.send(moments, dest=0)

    def workflow(ctx):
        """Driver on the Cluster: fields + orchestration."""
        booster = yield from ctx.world.spawn(
            particle_part, machine.module("booster")[:1], startup_cost_s=0.0
        )
        dam = yield from ctx.world.spawn(
            analytics, machine.module("dam")[:1], startup_cost_s=0.0
        )
        for step in range(STEPS):
            moments = yield from booster.recv(source=0)
            yield ctx.compute(0.003)  # field solve
            yield from dam.send(moments, dest=0)  # stream to analytics
        return (yield from dam.recv(source=0))

    results = rt.run_app(workflow, machine.module("cluster")[:1])
    print(f"workflow over cluster+booster+dam finished in "
          f"{machine.sim.now * 1e3:.1f} ms (simulated)")
    print(f"analytics summaries per step: {results[0]}")
    print()

    # ---- N-module scheduling ----------------------------------------------
    machine2 = build_modular_system(
        [cluster_module(nodes=8), booster_module(nodes=4),
         data_analytics_module(nodes=2)]
    )
    alloc = ModularAllocator(
        {m: machine2.module(m) for m in machine2.module_names}
    )
    sched = BatchScheduler(machine2.sim, alloc)
    sched.submit_all(
        [
            Job("xpic", {"cluster": 4, "booster": 4}, 3600.0),
            Job("hpda", {"dam": 2}, 1800.0),
            Job("cpu-only", {"cluster": 4}, 3600.0),
            Job("coupled", {"cluster": 8, "booster": 2, "dam": 1}, 1200.0),
        ]
    )
    machine2.sim.run()
    rep = sched.report()
    print("N-module scheduling (jobs pick any module combination):")
    for j in sched.jobs:
        req = "+".join(f"{n}{m[0].upper()}" for m, n in j.requests.items())
        print(f"  {j.name:9s} [{req:12s}] start {j.start_time / 60:5.1f} min, "
              f"wait {j.wait_time / 60:4.1f} min")
    print(f"  makespan {rep.makespan / 3600:.2f} h; utilization "
          + ", ".join(
              f"{m} {rep.module_utilization(m) * 100:.0f}%"
              for m in machine2.module_names
          ))


if __name__ == "__main__":
    main()
