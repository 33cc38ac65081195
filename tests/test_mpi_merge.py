"""MPI_Intercomm_merge: fusing a spawned partition into one world."""

import pytest

from repro.hardware import build_deep_er_prototype
from repro.mpi import CommError, MPIRuntime


@pytest.fixture()
def rt():
    machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
    return MPIRuntime(machine)


def test_merge_spans_both_modules(rt):
    """Spawn Cluster children from the Booster, merge, and run one
    collective over the combined machine."""

    def child(ctx):
        parent = ctx.get_parent()
        merged = yield from parent.merge(high=True)
        total = yield from merged.allreduce(1)
        return (merged.rank, merged.size, total, ctx.node.kind.value)

    def parent_app(ctx):
        inter = yield from ctx.world.spawn(
            child, rt.machine.cluster[:2], startup_cost_s=0.0
        )
        merged = yield from inter.merge(high=False)
        total = yield from merged.allreduce(1)
        return (merged.rank, merged.size, total, ctx.node.kind.value)

    results = rt.run_app(parent_app, rt.machine.booster[:2])
    # parents (low side) get ranks 0,1; children 2,3
    assert results[0] == (0, 4, 4, "booster")
    assert results[1] == (1, 4, 4, "booster")


def test_merge_rank_ordering_respects_high(rt):
    def child(ctx):
        parent = ctx.get_parent()
        merged = yield from parent.merge(high=False)  # children low
        return merged.rank

    def parent_app(ctx):
        inter = yield from ctx.world.spawn(
            child, rt.machine.cluster[:2], startup_cost_s=0.0
        )
        merged = yield from inter.merge(high=True)
        return merged.rank

    results = rt.run_app(parent_app, rt.machine.booster[:2])
    assert results == [2, 3]  # parents are the high group now


def test_merged_comm_p2p_across_modules(rt):
    def child(ctx):
        parent = ctx.get_parent()
        merged = yield from parent.merge(high=True)
        if merged.rank == merged.size - 1:
            yield from merged.send("from-the-top", dest=0)

    def parent_app(ctx):
        inter = yield from ctx.world.spawn(
            child, rt.machine.cluster[:2], startup_cost_s=0.0
        )
        merged = yield from inter.merge(high=False)
        if merged.rank == 0:
            return (yield from merged.recv())

    results = rt.run_app(parent_app, rt.machine.booster[:2])
    assert results[0] == "from-the-top"


def test_merge_requires_intercomm(rt):
    def app(ctx):
        yield from ctx.world.merge()

    with pytest.raises(CommError):
        rt.run_app(app, rt.machine.cluster[:2])


def test_merge_same_high_flag_rejected(rt):
    def child(ctx):
        parent = ctx.get_parent()
        yield from parent.merge(high=False)

    def parent_app(ctx):
        inter = yield from ctx.world.spawn(
            child, rt.machine.cluster[:1], startup_cost_s=0.0
        )
        yield from inter.merge(high=False)

    with pytest.raises(CommError):
        rt.run_app(parent_app, rt.machine.booster[:1])


def test_merge_handshake_skips_a_posted_wildcard_receive(rt):
    """Each side posts irecv(ANY_SOURCE, ANY_TAG) on the
    inter-communicator before merging: the merge handshake must not
    satisfy it, so it gets the user message sent after the merge."""
    got = {}

    def child(ctx):
        parent = ctx.get_parent()
        req = parent.irecv()
        yield 1e-6
        yield from parent.merge(high=True)
        yield from parent.send("to-parents", dest=0, tag=7)
        got["child"] = yield req.wait()

    def parent_app(ctx):
        inter = yield from ctx.world.spawn(
            child, rt.machine.cluster[:1], startup_cost_s=0.0
        )
        req = inter.irecv()
        yield 1e-6
        yield from inter.merge(high=False)
        yield from inter.send("to-children", dest=0, tag=7)
        return (yield req.wait())

    assert rt.run_app(parent_app, rt.machine.booster[:1]) == ["to-parents"]
    assert got == {"child": "to-children"}
