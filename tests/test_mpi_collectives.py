"""Correctness of the tree/ring collective algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import build_deep_er_prototype
from repro.mpi import MAX, MIN, PROD, SUM, MPIRuntime


def make_runtime(n_nodes=8):
    machine = build_deep_er_prototype(cluster_nodes=max(n_nodes, 2), booster_nodes=2)
    return MPIRuntime(machine)


def run_collective(app, n_ranks):
    rt = make_runtime(n_ranks)
    return rt.run_app(app, rt.machine.cluster[:n_ranks])


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8])
def test_barrier_synchronizes(size):
    """After a barrier, every rank's clock >= every rank's entry time."""

    def app(ctx):
        comm = ctx.world
        yield ctx.compute(0.1 * comm.rank)  # staggered arrival
        entry = ctx.sim.now
        yield from comm.barrier()
        return (entry, ctx.sim.now)

    results = run_collective(app, size)
    latest_entry = max(e for e, _ in results)
    for _, exit_t in results:
        assert exit_t >= latest_entry


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8])
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast_delivers_to_all(size, root):
    root = size - 1 if root == "last" else 0

    def app(ctx):
        comm = ctx.world
        data = {"payload": 42} if comm.rank == root else None
        data = yield from comm.bcast(data, root=root)
        return data

    results = run_collective(app, size)
    assert all(r == {"payload": 42} for r in results)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 6, 8])
def test_reduce_sum(size):
    def app(ctx):
        comm = ctx.world
        result = yield from comm.reduce(comm.rank + 1, op=SUM, root=0)
        return result

    results = run_collective(app, size)
    assert results[0] == size * (size + 1) // 2
    assert all(r is None for r in results[1:])


def test_reduce_nonzero_root():
    def app(ctx):
        comm = ctx.world
        result = yield from comm.reduce(comm.rank, op=SUM, root=2)
        return result

    results = run_collective(app, 5)
    assert results[2] == sum(range(5))
    assert results[0] is None


@pytest.mark.parametrize("op,expected", [(MAX, 7), (MIN, 0), (PROD, 0)])
def test_reduce_ops(op, expected):
    def app(ctx):
        comm = ctx.world
        result = yield from comm.reduce(comm.rank, op=op, root=0)
        return result

    results = run_collective(app, 8)
    assert results[0] == expected


@pytest.mark.parametrize("size", [1, 2, 4, 8, 3, 6])
def test_allreduce_sum_all_ranks(size):
    def app(ctx):
        comm = ctx.world
        result = yield from comm.allreduce(comm.rank + 1)
        return result

    results = run_collective(app, size)
    assert all(r == size * (size + 1) // 2 for r in results)


def test_allreduce_numpy_arrays():
    def app(ctx):
        comm = ctx.world
        vec = np.full(16, float(comm.rank))
        result = yield from comm.allreduce(vec)
        return result

    results = run_collective(app, 4)
    expected = np.full(16, 0.0 + 1 + 2 + 3)
    for r in results:
        np.testing.assert_allclose(r, expected)


@pytest.mark.parametrize("size", [1, 2, 5, 8])
def test_gather_collects_in_rank_order(size):
    def app(ctx):
        comm = ctx.world
        out = yield from comm.gather(f"r{comm.rank}", root=0)
        return out

    results = run_collective(app, size)
    assert results[0] == [f"r{i}" for i in range(size)]
    assert all(r is None for r in results[1:])


@pytest.mark.parametrize("size", [1, 2, 4, 5, 8])
def test_allgather_everyone_gets_everything(size):
    def app(ctx):
        comm = ctx.world
        out = yield from comm.allgather(comm.rank**2)
        return out

    results = run_collective(app, size)
    expected = [i**2 for i in range(size)]
    assert all(r == expected for r in results)


@pytest.mark.parametrize("size", [2, 4, 8])
def test_scatter_distributes(size):
    def app(ctx):
        comm = ctx.world
        values = [f"item{i}" for i in range(size)] if comm.rank == 0 else None
        item = yield from comm.scatter(values, root=0)
        return item

    results = run_collective(app, size)
    assert results == [f"item{i}" for i in range(size)]


def test_scatter_wrong_length_raises():
    def app(ctx):
        comm = ctx.world
        values = [1, 2, 3] if comm.rank == 0 else None
        yield from comm.scatter(values, root=0)

    with pytest.raises(ValueError):
        run_collective(app, 4)


@pytest.mark.parametrize("size", [2, 3, 4, 8])
def test_alltoall_transpose(size):
    def app(ctx):
        comm = ctx.world
        values = [(comm.rank, dest) for dest in range(size)]
        out = yield from comm.alltoall(values)
        return out

    results = run_collective(app, size)
    for rank, out in enumerate(results):
        assert out == [(src, rank) for src in range(size)]


@pytest.mark.parametrize("size", [1, 2, 5, 8])
def test_scan_prefix_sums(size):
    def app(ctx):
        comm = ctx.world
        result = yield from comm.scan(comm.rank + 1)
        return result

    results = run_collective(app, size)
    assert results == [sum(range(1, r + 2)) for r in range(size)]


def test_consecutive_collectives_do_not_cross_talk():
    """Back-to-back collectives must not match each other's traffic."""

    def app(ctx):
        comm = ctx.world
        a = yield from comm.allreduce(1)
        b = yield from comm.allreduce(10)
        c = yield from comm.allreduce(100)
        return (a, b, c)

    results = run_collective(app, 4)
    assert all(r == (4, 40, 400) for r in results)


def test_collectives_isolated_from_user_p2p():
    """A wildcard user recv never swallows collective-internal traffic."""

    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            yield from comm.send("user-msg", dest=1, tag=5)
        total = yield from comm.allreduce(comm.rank)
        if comm.rank == 1:
            msg = yield from comm.recv()
            return (total, msg)
        return (total, None)

    results = run_collective(app, 4)
    assert results[1] == (6, "user-msg")


def test_split_by_color():
    def app(ctx):
        comm = ctx.world
        color = comm.rank % 2
        sub = yield from comm.split(color)
        total = yield from sub.allreduce(comm.rank)
        return (sub.size, total)

    results = run_collective(app, 6)
    # colors: even ranks {0,2,4}, odd ranks {1,3,5}
    assert results[0] == (3, 6)
    assert results[1] == (3, 9)
    assert results[2] == (3, 6)


def test_split_negative_color_returns_none():
    def app(ctx):
        comm = ctx.world
        color = -1 if comm.rank == 0 else 0
        sub = yield from comm.split(color)
        if sub is None:
            return None
        yield from sub.barrier()
        return sub.size

    results = run_collective(app, 4)
    assert results[0] is None
    assert results[1:] == [3, 3, 3]


@given(
    size=st.integers(min_value=1, max_value=8),
    values=st.lists(
        st.integers(min_value=-(10**6), max_value=10**6), min_size=8, max_size=8
    ),
)
@settings(max_examples=20, deadline=None)
def test_allreduce_matches_numpy_sum(size, values):
    """Property: allreduce(SUM) == sum of contributions, any group size."""
    values = values[:size]

    def app(ctx):
        comm = ctx.world
        result = yield from comm.allreduce(values[comm.rank])
        return result

    results = run_collective(app, size)
    assert all(r == sum(values) for r in results)


def test_bcast_timing_scales_logarithmically():
    """Binomial bcast of a large message: depth grows with log2(p)."""

    def timed(size):
        rt = make_runtime(size)

        def app(ctx):
            comm = ctx.world
            data = np.zeros(2**18) if comm.rank == 0 else None
            yield from comm.bcast(data, root=0)
            return ctx.sim.now

        results = rt.run_app(app, rt.machine.cluster[:size])
        return max(results)

    t2, t8 = timed(2), timed(8)
    # depth 1 -> depth 3: about 3x, certainly under 8x (not linear in p)
    assert t8 < 5 * t2


# --------------------------------------------------- long-message bcast
def test_long_bcast_delivers_correctly():
    """Above the threshold the van de Geijn path must still deliver the
    exact payload to every rank."""
    big = np.arange(200_000, dtype=np.float64)  # 1.6 MB > threshold

    def app(ctx):
        comm = ctx.world
        data = big if comm.rank == 2 else None
        data = yield from comm.bcast(data, root=2)
        return float(data.sum())

    results = run_collective(app, 6)
    assert all(r == pytest.approx(float(big.sum())) for r in results)


def test_long_bcast_releases_its_payload():
    """Twenty long broadcasts: every rank gets each payload, and the
    group's shared state keeps none of them afterwards."""
    rt = make_runtime(4)
    groups = []

    def app(ctx):
        comm = ctx.world
        groups.append(comm.group)
        got = []
        for i in range(20):
            data = np.full(200_000, float(i)) if comm.rank == 0 else None
            data = yield from comm.bcast(data, root=0)  # 1.6 MB each
            got.append(float(data[-1]))
        return got

    results = rt.run_app(app, rt.machine.cluster[:4])
    assert results == [[float(i) for i in range(20)]] * 4
    leftover = [
        key for key in groups[0].spawn_results
        if isinstance(key, tuple) and key[0] == "_bcast_long"
    ]
    assert leftover == []


def test_long_bcast_beats_binomial_for_large_payloads():
    """The bandwidth-optimal algorithm wins on big messages at 8 ranks."""
    big = np.zeros(2**21)  # 16 MiB

    def timed(force_binomial):
        rt = make_runtime(8)

        def app(ctx):
            comm = ctx.world
            data = big if comm.rank == 0 else None
            if force_binomial:
                data = yield from comm._bcast_binomial(data, 0)
            else:
                data = yield from comm.bcast(data, root=0)
            return ctx.sim.now

        return max(rt.run_app(app, rt.machine.cluster[:8]))

    t_long = timed(force_binomial=False)
    t_tree = timed(force_binomial=True)
    assert t_long < 0.8 * t_tree


def test_short_bcast_still_uses_tree():
    """Below the threshold the latency-optimal tree is kept (a long-
    algorithm 8-byte bcast would pay ~2 rounds of tiny messages plus
    scatter latency for nothing)."""

    def app(ctx):
        comm = ctx.world
        data = yield from comm.bcast(1 if comm.rank == 0 else None, root=0)
        return (data, ctx.sim.now)

    results = run_collective(app, 8)
    assert all(d == 1 for d, _ in results)
    # tree depth 3 of ~1 us hops: well under 20 us
    assert max(t for _, t in results) < 2e-5
