"""Tests of the kernel cost model and its calibration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import build_deep_er_prototype
from repro.mpi import MPIRuntime
from repro.mpi.runtime import PRICE_CACHE_MAX
from repro.perfmodel import (
    AccessPattern,
    Kernel,
    amdahl_speedup,
    attainable_flops,
    field_kernel,
    is_memory_bound,
    parallel_efficiency,
    particle_kernel,
    solver_ratios,
    time_on_node,
)


@pytest.fixture(scope="module")
def nodes():
    m = build_deep_er_prototype(cluster_nodes=2, booster_nodes=2)
    return m.cluster[0], m.booster[0]


# ------------------------------------------------------------------ kernels
def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel("k", flops=-1, bytes_mem=0)
    with pytest.raises(ValueError):
        Kernel("k", flops=1, bytes_mem=0, parallel_fraction=1.5)
    with pytest.raises(ValueError):
        Kernel("k", flops=1, bytes_mem=0, vector_fraction=-0.1)


def test_kernel_scaling():
    k = Kernel("k", flops=100, bytes_mem=50)
    half = k.scaled(0.5)
    assert half.flops == 50 and half.bytes_mem == 25
    assert half.parallel_fraction == k.parallel_fraction


def test_arithmetic_intensity():
    assert Kernel("k", flops=100, bytes_mem=50).arithmetic_intensity == 2.0
    assert Kernel("k", flops=100, bytes_mem=0).arithmetic_intensity == float("inf")


# ------------------------------------------------------------- cost model
def test_time_positive_and_additive(nodes):
    cn, _ = nodes
    k1 = particle_kernel(10_000)
    k2 = particle_kernel(20_000)
    assert 0 < time_on_node(cn, k1) < time_on_node(cn, k2)
    assert time_on_node(cn, k2) == pytest.approx(2 * time_on_node(cn, k1), rel=1e-6)


def test_serial_kernel_runs_at_single_thread_rate(nodes):
    cn, _ = nodes
    k = Kernel("serial", flops=7.5e9, bytes_mem=0, parallel_fraction=0.0)
    t = time_on_node(cn, k)
    assert t == pytest.approx(1.0, rel=1e-6)  # 2.5 GHz x IPC 3.0


def test_memory_bound_kernel_at_stream_bandwidth(nodes):
    cn, _ = nodes
    k = Kernel("stream", flops=1, bytes_mem=120e9, parallel_fraction=1.0)
    assert time_on_node(cn, k) == pytest.approx(1.0, rel=1e-6)  # 120 GB/s


def test_booster_spill_to_ddr4_slows_kernel(nodes):
    _, bn = nodes
    fits = Kernel("s", flops=0, bytes_mem=1e9, working_set_bytes=10**9)
    spills = Kernel("s", flops=0, bytes_mem=1e9, working_set_bytes=50 * 10**9)
    assert time_on_node(bn, spills) > 4 * time_on_node(bn, fits)


def test_threads_argument_limits_parallelism(nodes):
    cn, _ = nodes
    k = Kernel("p", flops=1e9, bytes_mem=0, vector_fraction=0.0)
    t_all = time_on_node(cn, k)
    t_one = time_on_node(cn, k, threads=1)
    assert t_one > 20 * t_all  # 24 cores, 0.85 thread efficiency


def test_non_compute_node_rejected():
    m = build_deep_er_prototype(cluster_nodes=2, booster_nodes=2)
    with pytest.raises(ValueError):
        time_on_node(m.storage[0], particle_kernel(10))


# ----------------------------------------------------- pricing on a rank
def _run_one_rank(app):
    machine = build_deep_er_prototype(cluster_nodes=1, booster_nodes=1)
    [result] = MPIRuntime(machine).run_app(app, machine.cluster)
    return machine.cluster[0], result


def test_execute_prices_each_kernel_at_each_thread_count():
    """``ctx.execute`` remembers a price per (kernel, threads): in any
    order, each call yields exactly what ``time_on_node`` gives."""
    kernels = (field_kernel(10**5, steps=1), particle_kernel(10**6, steps=1))
    pairs = [(k, t) for k in kernels for t in (None, 1)]
    order = pairs + pairs[::-1] + [pairs[i] for i in (0, 2, 1, 3, 3, 0, 2, 1)]

    def app(ctx):
        got = []
        for kernel, threads in order:
            duration = yield from ctx.execute(kernel, threads=threads)
            got.append((duration, ctx.sim.now))
        return got

    node, got = _run_one_rank(app)
    expected = [time_on_node(node, k, threads=t) for k, t in order]
    assert len(set(expected)) == 4  # the four prices all differ
    assert [d for d, _now in got] == expected
    clock = 0.0
    for (_d, now), duration in zip(got, expected):
        clock += duration
        assert now == clock  # and the rank is charged each of them


def test_execute_price_cache_stays_bounded():
    def app(ctx):
        for i in range(10_000):
            kernel = Kernel(f"k{i}", flops=1e6 + i, bytes_mem=1e3)
            yield from ctx.execute(kernel)
        return len(ctx._prices)

    _node, size = _run_one_rank(app)
    assert 0 < size <= PRICE_CACHE_MAX


# ------------------------------------------------------------- calibration
def test_field_solver_cluster_advantage_near_6x(nodes):
    """Section IV-C: the field solver is 6x faster on the Cluster."""
    cn, bn = nodes
    r = solver_ratios(cn, bn)
    assert 5.5 < r.field_cluster_advantage < 6.5


def test_particle_solver_booster_advantage_near_135(nodes):
    """Section IV-C: the particle solver is ~1.35x faster on the Booster."""
    cn, bn = nodes
    r = solver_ratios(cn, bn)
    assert 1.25 < r.particle_booster_advantage < 1.45


def test_particle_kernel_flop_bound_on_knl_memory_bound_on_haswell(nodes):
    """The calibration derivation: KNL flop-bound, Haswell memory-bound."""
    cn, bn = nodes
    pk = particle_kernel(4096 * 2048)
    assert is_memory_bound(cn, pk)
    assert not is_memory_bound(bn, pk)


def test_particle_working_set_fits_mcdram(nodes):
    """Table II's workload fits the Booster's 16 GB MCDRAM."""
    _, bn = nodes
    pk = particle_kernel(4096 * 2048)
    assert bn.memory.level_for(pk.working_set_bytes).name == "MCDRAM"


def test_kernel_builder_validation():
    with pytest.raises(ValueError):
        particle_kernel(-1)
    with pytest.raises(ValueError):
        field_kernel(10, steps=-1)


def test_attainable_flops_below_peak(nodes):
    cn, bn = nodes
    for node in nodes:
        for k in (particle_kernel(10**6), field_kernel(4096)):
            assert attainable_flops(node, k) < node.processor.peak_flops


# ------------------------------------------------------------------ amdahl
def test_amdahl_limits():
    assert amdahl_speedup(1.0, 8) == pytest.approx(8.0)
    assert amdahl_speedup(0.0, 8) == pytest.approx(1.0)
    # 95% parallel caps at 20x
    assert amdahl_speedup(0.95, 10**6) == pytest.approx(20.0, rel=0.01)


def test_parallel_efficiency_metric():
    assert parallel_efficiency(10.0, 1.25, 8) == pytest.approx(1.0)
    assert parallel_efficiency(10.0, 2.5, 8) == pytest.approx(0.5)


def test_amdahl_validation():
    with pytest.raises(ValueError):
        amdahl_speedup(1.2, 4)
    with pytest.raises(ValueError):
        amdahl_speedup(0.5, 0)
    with pytest.raises(ValueError):
        parallel_efficiency(-1, 1, 2)


# -------------------------------------------------------------- properties
@given(
    flops=st.floats(min_value=1e3, max_value=1e12),
    bytes_mem=st.floats(min_value=0, max_value=1e12),
    p=st.floats(min_value=0, max_value=1),
    v=st.floats(min_value=0, max_value=1),
)
@settings(max_examples=60, deadline=None)
def test_time_always_positive(flops, bytes_mem, p, v):
    m = build_deep_er_prototype(cluster_nodes=2, booster_nodes=2)
    k = Kernel(
        "rand",
        flops=flops,
        bytes_mem=bytes_mem,
        parallel_fraction=p,
        vector_fraction=v,
    )
    for node in (m.cluster[0], m.booster[0]):
        assert time_on_node(node, k) > 0


@given(n1=st.integers(1, 10**7), n2=st.integers(1, 10**7))
@settings(max_examples=40, deadline=None)
def test_particle_time_monotone_in_particles(n1, n2):
    m = build_deep_er_prototype(cluster_nodes=2, booster_nodes=2)
    bn = m.booster[0]
    t1 = time_on_node(bn, particle_kernel(n1))
    t2 = time_on_node(bn, particle_kernel(n2))
    if n1 < n2:
        assert t1 < t2
    elif n1 > n2:
        assert t1 > t2
