"""Cross-cutting property-based tests (hypothesis)."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps.xpic.driver import partition_of
from repro.engine import ExperimentSpec
from repro.fleet import HashRing
from repro.hardware import build_deep_er_prototype
from repro.mpi import MPIRuntime
from repro.ompss import OmpSsRuntime, TaskSpec, build_dependency_graph
from repro.partition import Partition
from repro.resiliency import SCR, CheckpointLevel
from repro.store import cache_key


# ----------------------------------------------------------- OmpSs graphs
@st.composite
def task_sequences(draw):
    """Random task lists over a small data-name alphabet."""
    names = ["a", "b", "c", "d"]
    n = draw(st.integers(2, 10))
    tasks = []
    for i in range(n):
        ins = draw(st.sets(st.sampled_from(names), max_size=2))
        outs = draw(
            st.sets(
                st.sampled_from(names).filter(lambda x: x not in ins),
                min_size=1,
                max_size=2,
            )
        )
        outs = {o for o in outs if o not in ins}
        if not outs:
            outs = {names[i % 4]} - ins or {"d"}
        tasks.append((f"t{i}", tuple(sorted(ins - outs)), tuple(sorted(outs))))
    return tasks


@given(task_sequences())
@settings(max_examples=40, deadline=None)
def test_dependency_graph_is_always_a_dag(seq):
    specs = [
        TaskSpec(name, lambda: None, ins=ins, outs=outs, duration_s=0.1)
        for name, ins, outs in seq
    ]
    g = build_dependency_graph(specs)
    import networkx as nx

    oracle = nx.DiGraph(list(g.edges))
    oracle.add_nodes_from(g.tasks)
    assert nx.is_directed_acyclic_graph(oracle)
    assert len(g.tasks) == len(specs)


@given(task_sequences())
@settings(max_examples=15, deadline=None)
def test_execution_respects_dependencies(seq):
    """No task starts before every predecessor has finished."""
    machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=2)
    rt = OmpSsRuntime(machine, cluster_workers=3)
    for name in "abcd":
        rt.set_data(name, 0)
    specs = []
    for name, ins, outs in seq:
        spec = rt.submit(
            lambda *args: tuple(0 for _ in range(99)),  # placeholder
            name=name,
            ins=ins,
            outs=outs,
            duration_s=0.05,
        )
        # fix the return arity to the task's writes
        spec.fn = (lambda k: (lambda *a: tuple(0 for _ in range(k)) if k > 1 else 0))(
            len(spec.writes)
        )
        specs.append(spec)
    rt.run()
    g = build_dependency_graph(specs)
    by_id = {s.task_id: s for s in specs}
    for u, v in g.edges:
        assert by_id[u].end_time <= by_id[v].start_time + 1e-12


# --------------------------------------------------------------- MPI p2p
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 2**16)),
        min_size=1,
        max_size=12,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=20, deadline=None)
def test_out_of_order_receive_by_tag(messages):
    """Messages sent in one order, received by tag in reverse order —
    every payload must arrive under its own tag."""
    machine = build_deep_er_prototype(cluster_nodes=2, booster_nodes=2)
    rt = MPIRuntime(machine)

    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            for tag, size in messages:
                yield from comm.send(("payload", tag), dest=1, tag=tag, nbytes=size)
            return None
        got = {}
        for tag, _size in reversed(messages):
            got[tag] = yield from comm.recv(source=0, tag=tag)
        return got

    results = rt.run_app(app, machine.cluster[:2])
    for tag, _ in messages:
        assert results[1][tag] == ("payload", tag)


@given(st.integers(2, 8), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_fabric_byte_accounting(nranks, nbytes):
    """The fabric's byte counter equals the sum of injected messages."""
    machine = build_deep_er_prototype()
    rt = MPIRuntime(machine)

    def app(ctx):
        comm = ctx.world
        if comm.rank > 0:
            yield from comm.send(None, dest=0, nbytes=nbytes)
        else:
            for _ in range(comm.size - 1):
                yield from comm.recv()

    before = machine.fabric.bytes_transferred
    rt.run_app(app, machine.cluster[:nranks])
    assert machine.fabric.bytes_transferred - before == (nranks - 1) * nbytes


# ------------------------------------------------------------ SCR database
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 30)),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=20, deadline=None)
def test_latest_restartable_is_max_common_step(entries):
    """Property: latest_restartable_step == max of the intersection of
    per-rank checkpointed steps (with all data intact)."""
    machine = build_deep_er_prototype()
    scr = SCR(machine.sim, machine.booster[:4], machine.fabric)

    def proc():
        for rank, step in entries:
            yield from scr.checkpoint(
                rank, step=step, nbytes=1000, level=CheckpointLevel.BUDDY
            )

    machine.sim.run_process(proc())
    per_rank = {r: set() for r in range(4)}
    for rank, step in entries:
        per_rank[rank].add(step)
    common = set.intersection(*per_rank.values()) if all(per_rank.values()) else set()
    expected = max(common) if common else None
    assert scr.latest_restartable_step(range(4)) == expected


@given(st.integers(1, 5), st.integers(1, 100))
@settings(max_examples=25, deadline=None)
def test_collectives_on_random_subsets(size, value):
    """allreduce/bcast/gather agree for any subgroup size and payload."""
    machine = build_deep_er_prototype()
    rt = MPIRuntime(machine)

    def app(ctx):
        comm = ctx.world
        s = yield from comm.allreduce(value + comm.rank)
        b = yield from comm.bcast(value if comm.rank == 0 else None, root=0)
        g = yield from comm.gather(comm.rank, root=0)
        return (s, b, g)

    results = rt.run_app(app, machine.cluster[:size])
    expected_sum = sum(value + r for r in range(size))
    for rank, (s, b, g) in enumerate(results):
        assert s == expected_sum
        assert b == value
        if rank == 0:
            assert g == list(range(size))
        else:
            assert g is None


# ------------------------------------------------------------- partitions
@st.composite
def partitions(draw):
    """Any valid partition: homogeneous, C+B, or nested with one arm."""
    shape = draw(st.sampled_from(["cluster", "booster", "cb", "nested"]))
    overlap, swap = draw(st.booleans()), draw(st.booleans())
    n = draw(st.integers(1, 16))
    if shape == "cluster":
        return Partition(n, 0, overlap=overlap, swap_placement=swap)
    if shape == "booster":
        return Partition(0, n, overlap=overlap, swap_placement=swap)
    if shape == "cb":
        return Partition(n, n, overlap=overlap, swap_placement=swap)
    arm = Partition(n, n, overlap=overlap)
    if draw(st.booleans()):
        return Partition(2 * n, 0, cluster_arm=arm)
    return Partition(0, 2 * n, booster_arm=arm)


@given(partitions())
@settings(max_examples=80, deadline=None)
def test_partition_round_trips_through_its_dict_form(part):
    """to_dict -> (JSON) -> from_dict / coerce gives an equal partition
    with an equal dict, and coerce passes a Partition through."""
    d = part.to_dict()
    wire = json.loads(json.dumps(d))
    for back in (Partition.from_dict(d), Partition.from_dict(wire),
                 Partition.coerce(d), Partition.coerce(wire)):
        assert back == part
        assert hash(back) == hash(part)
        assert back.to_dict() == d
    assert Partition.coerce(part) is part


@given(partitions(), st.integers(0, 500))
@settings(max_examples=80, deadline=None)
def test_partition_round_trips_through_its_spec(part, steps):
    """The drivers run the partition a spec was built from: flat ones
    through the spec's flat fields, nested ones through its
    ``partition``."""
    assert partition_of(part.to_spec(steps)) == part


# -------------------------------------------------------------- cache keys
_SPEC_FIELDS = {
    "mode": st.sampled_from(["C+B", "Cluster", "Booster"]),
    "steps": st.integers(0, 400),
    "nodes_per_solver": st.integers(1, 8),
    "overlap": st.booleans(),
    "swap_placement": st.booleans(),
    "load_balanced": st.booleans(),
    "imbalance_alpha": st.none() | st.floats(0.0, 2.0),
    "seed": st.integers(0, 2**31),
    "machine_overrides": st.fixed_dictionaries(
        {}, optional={"cluster_nodes": st.integers(8, 32),
                      "booster_nodes": st.integers(8, 32)},
    ),
}


def _reordered(d, order):
    """``d`` with its items (and a nested dict's items) inserted in the
    order ``order`` gives (a permutation of the keys)."""
    return {
        k: dict(reversed(list(d[k].items()))) if isinstance(d[k], dict)
        else d[k]
        for k in order
    }


@given(st.fixed_dictionaries({}, optional=_SPEC_FIELDS), st.data())
@settings(max_examples=60, deadline=None)
def test_cache_key_ignores_dict_order(fields, data):
    """Specs built from dicts with the same items in any order share
    one key, as does the spec's own dict form in any order."""
    order = data.draw(st.permutations(sorted(fields)))
    a = ExperimentSpec(**fields)
    b = ExperimentSpec(**_reordered(fields, order))
    assert cache_key(a) == cache_key(b)
    full = a.to_dict()
    shuffled = data.draw(st.permutations(sorted(full)))
    assert cache_key(_reordered(full, shuffled)) == cache_key(a)
    assert cache_key(ExperimentSpec.from_dict(_reordered(full, shuffled))) \
        == cache_key(a)


@given(
    st.fixed_dictionaries({}, optional=_SPEC_FIELDS),
    st.sampled_from(sorted(_SPEC_FIELDS)),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_cache_key_changes_when_any_field_changes(fields, name, data):
    """Two specs whose dict forms differ in one field never share a
    key."""
    base = ExperimentSpec(**fields)
    value = data.draw(_SPEC_FIELDS[name])
    other = ExperimentSpec(**{**fields, name: value})
    assume(other.to_dict() != base.to_dict())
    assert cache_key(other) != cache_key(base)


# --------------------------------------------------------------- hash ring
_SHARDS = [f"s{i}" for i in range(8)]


@given(
    st.lists(st.sampled_from(_SHARDS), min_size=1, max_size=6, unique=True),
    st.sampled_from(_SHARDS),
    st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=60),
    st.sampled_from([1, 4, 64]),
)
@settings(max_examples=60, deadline=None)
def test_ring_membership_change_moves_only_the_changed_shards_keys(
    members, changed, keys, replicas
):
    """Adding a shard moves only keys that now route to it; removing a
    shard moves only its own keys; ``route(k) == preference(k)[0]``."""
    before = HashRing(members, replicas=replicas)
    after = HashRing(members, replicas=replicas)
    if changed in members:
        assume(len(members) > 1)
        after.remove(changed)
        for key in keys:
            if before.route(key) != changed:
                assert after.route(key) == before.route(key)
            else:
                assert after.route(key) != changed
    else:
        after.add(changed)
        for key in keys:
            assert after.route(key) in (before.route(key), changed)
    # a ring built fresh over the new members routes the same way
    fresh = HashRing(after.shards, replicas=replicas)
    for ring in (before, after, fresh):
        for key in keys:
            order = ring.preference(key)
            assert ring.route(key) == order[0]
            assert sorted(order) == ring.shards
            assert fresh.route(key) == after.route(key)
