"""Cross-layer consistency checks.

The repository has two parallel-xPic layers (cost-model and numeric)
and two neighbour-addressing schemes (Block2D arithmetic and MPI
Cartesian communicators).  These tests pin them to each other.
"""

import pytest

from repro.apps.xpic import Mode, SpeciesConfig, XpicConfig
from repro.apps.xpic.numeric_driver import run_numeric_experiment
from repro.apps.xpic.parallel import Block2D
from repro.hardware import build_deep_er_prototype
from repro.mpi import MPIRuntime, cart_create


def small_cfg(steps=2):
    return XpicConfig(
        nx=16,
        ny=16,
        dt=0.05,
        steps=steps,
        species=(
            SpeciesConfig("e", -1.0, 1.0, 8),
            SpeciesConfig("i", +1.0, 100.0, 8),
        ),
    )


def test_block2d_neighbours_match_cartcomm():
    """Block2D's hand-rolled periodic neighbour arithmetic agrees with
    the MPI Cartesian topology for every rank and layout."""
    cfg = small_cfg()
    machine = build_deep_er_prototype()
    rt = MPIRuntime(machine)
    for layout in [(2, 2), (4, 2), (2, 4)]:
        px, py = layout
        n = px * py
        if n > len(machine.cluster):
            continue

        def app(ctx, layout=layout):
            yield ctx.compute(0)
            # Block2D numbers ranks row-major in (ry, rx);
            # CartComm dims are (py, px) with coords (ry, rx)
            b = Block2D(cfg, layout, ctx.world.rank)
            cart = cart_create(
                ctx.world, dims=(layout[1], layout[0]),
                periods=[True, True],
            )
            assert cart.coords == (b.ry, b.rx)
            down, up = cart.shift(0)  # y direction
            left, right = cart.shift(1)  # x direction
            assert up == b.up and down == b.down
            assert left == b.left and right == b.right
            return True

        results = rt.run_app(app, machine.cluster[:n])
        assert all(results)


def test_numeric_traffic_scales_linearly_with_steps():
    """The numeric driver's fabric traffic is per-step periodic: bytes
    for 4 steps ~ 2x bytes for 2 steps (after the constant setup)."""

    def traffic(steps):
        machine = build_deep_er_prototype()
        before = machine.fabric.bytes_transferred
        run_numeric_experiment(
            machine, Mode.CLUSTER, small_cfg(steps), layout=(1, 4)
        )
        return machine.fabric.bytes_transferred - before

    t1 = traffic(1)
    t3 = traffic(3)
    per_step = (t3 - t1) / 2
    assert per_step > 0
    # steps are statistically identical: extrapolation holds within 20%
    t5 = traffic(5)
    assert t5 == pytest.approx(t1 + 4 * per_step, rel=0.2)


def test_numeric_cb_moves_interface_buffers_each_step():
    """The C+B numeric run's inter-module traffic includes one field
    and one moment buffer per rank per step, at their real array sizes."""
    cfg = small_cfg(steps=2)
    machine = build_deep_er_prototype()
    before = machine.fabric.bytes_transferred
    run_numeric_experiment(machine, Mode.CB, cfg, layout=(1, 1))
    moved = machine.fabric.bytes_transferred - before
    cells = cfg.cells
    # per step: extended fields (6 comps, (ny+2) x (nx+2) doubles) down
    # and rho+J (4 comps) back up — a strict lower bound on total traffic
    fields_b = 6 * (cfg.ny + 2) * (cfg.nx + 2) * 8
    moments_b = 4 * cells * 8
    assert moved >= 2 * (fields_b + moments_b)
