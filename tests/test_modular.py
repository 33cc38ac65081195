"""Tests for the Modular Supercomputing generalization (DEEP-EST)."""

import pytest

from repro.hardware import (
    ModuleSpec,
    booster_module,
    build_modular_system,
    cluster_module,
)
from repro.jobs import (
    AllocationError,
    BatchScheduler,
    Job,
    JobState,
    ModularAllocator,
)
from repro.modular import data_analytics_module
from repro.mpi import MPIRuntime
from repro.sim import Simulator


@pytest.fixture(scope="module")
def machine():
    return build_modular_system(
        [cluster_module(nodes=8), booster_module(nodes=4),
         data_analytics_module(nodes=2)]
    )


# ---------------------------------------------------------------- building
def test_spec_validation():
    with pytest.raises(ValueError):
        cluster_module(nodes=0)
    with pytest.raises(ValueError):
        ModuleSpec(
            name="bad name!",
            node_count=1,
            processor=cluster_module().processor,
            memory_factory=lambda: None,
            kind=cluster_module().kind,
            nic_sw_overhead_s=1e-6,
        )


def test_build_validation():
    with pytest.raises(ValueError):
        build_modular_system([])
    with pytest.raises(ValueError):
        build_modular_system([cluster_module(), cluster_module()])


def test_duplicate_prefixes_rejected():
    a = cluster_module(name="alpha")
    b = cluster_module(name="beta")  # same 'cn' prefix
    with pytest.raises(ValueError):
        build_modular_system([a, b])


def test_three_module_machine(machine):
    assert machine.module_names == ["cluster", "booster", "dam"]
    assert len(machine.module("cluster")) == 8
    assert len(machine.module("booster")) == 4
    assert len(machine.module("dam")) == 2
    assert len(machine.storage) == 3
    assert len(machine.nams) == 2


def test_module_membership(machine):
    assert machine.module_of("dn00") == "dam"
    assert machine.module_of("cn03") == "cluster"
    dam = machine.module("dam")[0]
    assert dam.memory.total_capacity > 300 * 10**9  # fat memory


def test_fabric_reaches_all_modules(machine):
    fab = machine.fabric
    # intra-module: 2 links; inter-module: 3 (mesh of switch groups)
    assert fab.hops("cn00", "cn01") == 2
    assert fab.hops("dn00", "dn01") == 2
    assert fab.hops("cn00", "dn00") == 3
    assert fab.hops("bn00", "dn00") == 3
    assert fab.topology.is_connected()


def test_cluster_booster_latencies_preserved(machine):
    """The two-module anchors still hold in the N-module fabric."""
    assert machine.fabric.latency("cn00", "cn01") == pytest.approx(1.0e-6)
    assert machine.fabric.latency("bn00", "bn01") == pytest.approx(1.8e-6)


def test_spawn_across_three_modules(machine):
    """A workflow spanning all three modules via MPI_Comm_spawn."""
    rt = MPIRuntime(machine)

    def analytics(ctx):  # runs on the DAM
        parent = ctx.get_parent()
        data = yield from parent.recv(source=0)
        yield from parent.send(("analysed", data, ctx.node.module), dest=0)

    def booster_part(ctx):  # runs on the Booster
        parent = ctx.get_parent()
        yield from parent.send(ctx.node.module, dest=0)

    def app(ctx):  # starts on the Cluster
        inter_b = yield from ctx.world.spawn(
            booster_part, machine.module("booster")[:1], startup_cost_s=0.0
        )
        inter_d = yield from ctx.world.spawn(
            analytics, machine.module("dam")[:1], startup_cost_s=0.0
        )
        from_booster = yield from inter_b.recv(source=0)
        yield from inter_d.send(from_booster, dest=0)
        verdict = yield from inter_d.recv(source=0)
        return verdict

    results = rt.run_app(app, machine.module("cluster")[:1])
    assert results[0] == ("analysed", "booster", "dam")


# --------------------------------------------------------------- scheduling
def test_modular_job_validation():
    with pytest.raises(ValueError):
        Job("j", {}, 10.0)
    with pytest.raises(ValueError):
        Job("j", {"cluster": -1}, 10.0)
    with pytest.raises(ValueError):
        Job("j", {"cluster": 1}, 0.0)


def test_multi_allocator_roundtrip(machine):
    alloc = ModularAllocator(
        {m: machine.module(m) for m in machine.module_names}
    )
    job = Job("wf", {"cluster": 2, "booster": 1, "dam": 1}, 60.0)
    a = alloc.allocate(job)
    assert {k: len(v) for k, v in a.items()} == {
        "cluster": 2, "booster": 1, "dam": 1
    }
    assert alloc.free_count("dam") == 1
    alloc.release(a)
    assert alloc.free_count("dam") == 2


def test_multi_allocator_unknown_module(machine):
    alloc = ModularAllocator({"cluster": machine.module("cluster")})
    with pytest.raises(AllocationError):
        alloc.validate(Job("j", {"gpu": 1}, 10.0))


def test_modular_scheduler_runs_mixed_stream():
    machine = build_modular_system(
        [cluster_module(nodes=8), booster_module(nodes=4),
         data_analytics_module(nodes=2)]
    )
    sim = machine.sim
    alloc = ModularAllocator(
        {m: machine.module(m) for m in machine.module_names}
    )
    sched = BatchScheduler(sim, alloc)
    jobs = [
        Job("sim1", {"cluster": 4, "booster": 2}, 100.0),
        Job("hpda1", {"dam": 2}, 100.0),
        Job("cpu1", {"cluster": 4}, 100.0),
        Job("sim2", {"cluster": 8, "booster": 4, "dam": 1}, 50.0),
    ]
    sched.submit_all(jobs)
    sim.run()
    assert all(j.state is JobState.COMPLETED for j in jobs)
    # the first three are disjoint in resources: they all start at t=0
    assert jobs[0].start_time == jobs[1].start_time == jobs[2].start_time == 0.0
    # sim2 needs everything: it waits for the others
    assert jobs[3].start_time == pytest.approx(100.0)
    assert sched.report().makespan == pytest.approx(150.0)
    assert 0 < sched.report().module_utilization("cluster") <= 1.0


def test_modular_backfill():
    machine = build_modular_system([cluster_module(nodes=4), booster_module(nodes=2)])
    sim = machine.sim
    alloc = ModularAllocator(
        {m: machine.module(m) for m in machine.module_names}
    )
    sched = BatchScheduler(sim, alloc, backfill=True)
    jobs = [
        Job("big1", {"cluster": 4}, 100.0),
        Job("big2", {"cluster": 4}, 100.0),
        Job("small", {"booster": 1}, 30.0),
    ]
    sched.submit_all(jobs)
    sim.run()
    assert jobs[2].start_time == pytest.approx(0.0)  # backfilled


# --------------------------------------------------------------- workflows
def make_three_module_scheduler():
    machine = build_modular_system(
        [cluster_module(nodes=8), booster_module(nodes=4),
         data_analytics_module(nodes=2)]
    )
    alloc = ModularAllocator(
        {m: machine.module(m) for m in machine.module_names}
    )
    return machine.sim, BatchScheduler(machine.sim, alloc)


def test_job_dependency_ordering():
    """A DAG workflow: simulate -> analyse -> archive."""
    sim, sched = make_three_module_scheduler()
    simulate = Job("simulate", {"cluster": 4, "booster": 4}, 100.0)
    analyse = Job("analyse", {"dam": 2}, 50.0, after=(simulate,))
    archive = Job("archive", {"cluster": 1}, 10.0, after=(analyse,))
    sched.submit_all([simulate, analyse, archive])
    sim.run()
    assert simulate.end_time <= analyse.start_time
    assert analyse.end_time <= archive.start_time
    assert sched.report().makespan == pytest.approx(160.0)


def test_dependent_job_waits_even_with_free_resources():
    sim, sched = make_three_module_scheduler()
    a = Job("a", {"cluster": 1}, 100.0)
    b = Job("b", {"dam": 1}, 10.0, after=(a,))  # DAM is free all along
    sched.submit_all([a, b])
    sim.run()
    assert b.start_time == pytest.approx(100.0)


def test_independent_jobs_overtake_blocked_head():
    """A dependency-blocked head job must not starve the queue."""
    sim, sched = make_three_module_scheduler()
    a = Job("a", {"cluster": 8}, 100.0)
    blocked = Job("blocked", {"cluster": 1}, 10.0, after=(a,))
    free = Job("free", {"dam": 1}, 20.0)
    sched.submit(a)
    sched.submit(blocked, delay=1.0)
    sched.submit(free, delay=2.0)
    sim.run()
    assert free.start_time == pytest.approx(2.0)  # overtook 'blocked'
    assert blocked.start_time >= 100.0


def test_dependency_validation():
    with pytest.raises(TypeError):
        Job("j", {"cluster": 1}, 10.0, after=("not-a-job",))


def test_diamond_dependency():
    sim, sched = make_three_module_scheduler()
    root = Job("root", {"cluster": 2}, 10.0)
    left = Job("left", {"cluster": 2}, 20.0, after=(root,))
    right = Job("right", {"booster": 2}, 30.0, after=(root,))
    join = Job("join", {"dam": 1}, 5.0, after=(left, right))
    sched.submit_all([root, left, right, join])
    sim.run()
    # left and right run concurrently after root
    assert left.start_time == pytest.approx(10.0)
    assert right.start_time == pytest.approx(10.0)
    assert join.start_time == pytest.approx(40.0)  # max(30, 20) + 10
    assert sched.report().makespan == pytest.approx(45.0)
