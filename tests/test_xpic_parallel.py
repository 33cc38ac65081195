"""Equivalence of the distributed numeric xPic with the reference loop.

The strongest correctness statement in the repository: the same
physics, computed (a) in one process, (b) block-decomposed over the
simulated MPI, and (c) partitioned across Cluster and Booster via
MPI_Comm_spawn, must agree.  A row slab is the block layout ``(1, n)``:
the slab cases below run through the same code as the 2D layouts.
"""

import numpy as np
import pytest

from repro.apps.xpic import Mode, SpeciesConfig, XpicConfig, XpicSimulation
from repro.apps.xpic.grid import Grid2D
from repro.apps.xpic.numeric_driver import run_numeric_experiment
from repro.apps.xpic.parallel import (
    Block2D,
    DistributedParticles,
    load_block_species,
)
from repro.hardware import build_deep_er_prototype
from repro.mpi import MPIRuntime


def small_cfg(steps=3, electron_vth=0.05):
    return XpicConfig(
        nx=16,
        ny=16,
        dt=0.05,
        steps=steps,
        cg_tol=1e-12,
        species=(
            SpeciesConfig("electrons", -1.0, 1.0, 8, thermal_velocity=electron_vth),
            SpeciesConfig("ions", +1.0, 100.0, 8, thermal_velocity=0.01),
        ),
    )


def reference_fingerprint(cfg):
    sim = XpicSimulation(cfg)
    sim.run()
    return sim.state_fingerprint()


def assert_fp_close(a, b, rtol=1e-7):
    for key in a:
        assert a[key] == pytest.approx(b[key], rel=rtol, abs=1e-10), key


def layout_id(layout):
    return f"{layout[0]}x{layout[1]}"


# ------------------------------------------------------------------ blocks
def test_slab_validation():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        Block2D(cfg, (1, 3), 0)  # 16 rows not divisible by 3
    with pytest.raises(ValueError):
        Block2D(cfg, (1, 2), 5)


def test_block_validation():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        Block2D(cfg, (3, 1), 0)  # 16 columns not divisible by 3
    with pytest.raises(ValueError):
        Block2D(cfg, (2, 2), 4)
    with pytest.raises(ValueError):
        Block2D(cfg, (0, 2), 0)


def test_slab_geometry():
    cfg = small_cfg()
    s = Block2D(cfg, (1, 4), 1)
    assert (s.rows, s.cols) == (4, 16)
    assert (s.row0, s.col0) == (4, 0)
    assert s.y0 == pytest.approx(0.25)
    assert s.y1 == pytest.approx(0.5)
    assert (s.x0, s.x1) == (0.0, 1.0)
    assert s.up == 2 and s.down == 0
    assert s.left == s.right == 1  # one block across: x wraps locally


def test_block_geometry_and_neighbours():
    cfg = small_cfg()
    b = Block2D(cfg, (2, 2), 3)  # top-right block
    assert (b.rx, b.ry) == (1, 1)
    assert (b.col0, b.row0) == (8, 8)
    assert b.left == 2 and b.right == 2  # periodic pair in x
    assert b.down == 1 and b.up == 1


def check_operators_match_global_grid(layout):
    """Block laplacian/curl with correct ghosts == global operators."""
    cfg = small_cfg()
    g = Grid2D(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    rng = np.random.default_rng(0)
    f = rng.normal(size=(3, cfg.ny, cfg.nx))
    lap_g = g.laplacian(f)
    curl_g = g.curl(f)
    for rank in range(layout[0] * layout[1]):
        b = Block2D(cfg, layout, rank)
        rows = np.arange(b.row0 - 1, b.row0 + b.rows + 1) % cfg.ny
        cols = np.arange(b.col0 - 1, b.col0 + b.cols + 1) % cfg.nx
        ext = f[:, rows[:, None], cols[None, :]]
        own = (
            slice(None),
            slice(b.row0, b.row0 + b.rows),
            slice(b.col0, b.col0 + b.cols),
        )
        np.testing.assert_allclose(b.laplacian(ext), lap_g[own])
        np.testing.assert_allclose(b.curl(ext), curl_g[own])


def test_slab_operators_match_global_grid():
    check_operators_match_global_grid((1, 4))


def test_block_operators_match_global():
    check_operators_match_global_grid((2, 2))


def check_species_cover_population(layout):
    cfg = small_cfg()
    total = 0
    kinetic = 0.0
    for rank in range(layout[0] * layout[1]):
        species = load_block_species(cfg, Block2D(cfg, layout, rank))
        total += sum(sp.n for sp in species)
        kinetic += sum(sp.kinetic_energy() for sp in species)
    sim = XpicSimulation(cfg)
    assert total == sum(sp.n for sp in sim.species)
    assert kinetic == pytest.approx(
        sum(sp.kinetic_energy() for sp in sim.species)
    )


def test_slab_species_partition_covers_population():
    check_species_cover_population((1, 4))


def test_block_species_cover_population():
    check_species_cover_population((2, 2))


def test_block_move_is_the_reference_push():
    """One block with wrapped ghosts gathers the same fields as the
    global grid, and both movers share ``Species.push``: bit-identical."""
    cfg = small_cfg()
    b = Block2D(cfg, (1, 1), 0)
    rng = np.random.default_rng(1)
    E, B = rng.normal(size=(2, 3, cfg.ny, cfg.nx))
    ghosts = ((0, 0), (1, 1), (1, 1))
    reference = XpicSimulation(cfg).species
    block = DistributedParticles(b, load_block_species(cfg, b))
    for sp in reference:
        sp.move(b.global_grid, E, B, cfg.dt)
    block.move(
        np.pad(E, ghosts, mode="wrap"), np.pad(B, ghosts, mode="wrap"), cfg.dt
    )
    for ref, sp in zip(reference, block.species):
        for name in ("x", "y", "v"):
            np.testing.assert_array_equal(getattr(sp, name), getattr(ref, name))


# ------------------------------------------------- equivalence: homogeneous
def assert_matches_reference(mode, layout, steps):
    cfg = small_cfg(steps=steps)
    machine = build_deep_er_prototype()
    fp = run_numeric_experiment(machine, mode, cfg, layout=layout)
    assert_fp_close(fp, reference_fingerprint(cfg))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_distributed_matches_reference(n):
    """Row slabs: the layout (1, n)."""
    assert_matches_reference(Mode.CLUSTER, (1, n), steps=3)


@pytest.mark.parametrize("layout", [(2, 1), (1, 2), (2, 2), (4, 1)], ids=layout_id)
def test_block_layouts_match_reference(layout):
    assert_matches_reference(Mode.CLUSTER, layout, steps=2)


def test_distributed_on_booster_matches_reference():
    assert_matches_reference(Mode.BOOSTER, (1, 2), steps=2)


# ----------------------------------------------------- equivalence: C+B
@pytest.mark.parametrize("n", [1, 2])
def test_cb_partition_matches_reference(n):
    """The headline validation: the Cluster-Booster partition computes
    the same physics as the original main loop."""
    assert_matches_reference(Mode.CB, (1, n), steps=3)


def test_cb_block_partition_matches_reference():
    assert_matches_reference(Mode.CB, (2, 2), steps=2)


@pytest.mark.parametrize(
    "mode, layout, machine_kwargs, message",
    [
        (
            Mode.BOOSTER, (4, 4), {},
            r"layout \(4, 4\) needs 16 nodes, but the Booster has 8",
        ),
        (Mode.CLUSTER, (2, 2), {"cluster_nodes": 2}, r"but the Cluster has 2"),
        (
            Mode.CB, (2, 2),
            {"cluster_nodes": 4, "booster_nodes": 2},
            r"but the Booster has 2",
        ),
        (
            Mode.CLUSTER, (0, 2), {},
            r"layout \(0, 2\) needs factors of at least 1",
        ),
        (Mode.BOOSTER, (2, -1), {}, r"layout \(2, -1\) needs factors"),
    ],
    ids=["booster-4x4", "cluster-2x2", "cb-2x2", "zero-factor", "negative-factor"],
)
def test_layout_must_fit_its_modules(mode, layout, machine_kwargs, message):
    """A layout larger than a module it runs on (or with a factor below
    1) is refused up front, naming the layout and the module size,
    instead of failing deep in MPI on a rank out of range."""
    machine = build_deep_er_prototype(**machine_kwargs)
    with pytest.raises(ValueError, match=message):
        run_numeric_experiment(machine, mode, small_cfg(steps=1), layout=layout)


def test_all_three_modes_agree():
    cfg = small_cfg(steps=2)
    fps = []
    for mode in Mode:
        machine = build_deep_er_prototype()
        fps.append(run_numeric_experiment(machine, mode, cfg, layout=(1, 2)))
    assert_fp_close(fps[0], fps[1], rtol=1e-9)
    assert_fp_close(fps[0], fps[2], rtol=1e-9)


# --------------------------------------------------------------- migration
def check_migration(layout, kick):
    """Displace every rank's particles with ``kick(rank, species)``,
    migrate, and check conservation and ownership."""
    cfg = small_cfg(steps=0)
    machine = build_deep_er_prototype()
    rt = MPIRuntime(machine)

    def app(ctx):
        comm = ctx.world
        b = Block2D(cfg, layout, comm.rank)
        parts = DistributedParticles(b, load_block_species(cfg, b))
        kick(comm.rank, parts.species)
        before = yield from comm.allreduce(parts.n_particles)
        yield from parts.migrate(comm)
        after = yield from comm.allreduce(parts.n_particles)
        for sp in parts.species:
            assert np.all((sp.x >= b.x0) & (sp.x < b.x1))
            assert np.all((sp.y >= b.y0) & (sp.y < b.y1))
        return before, after

    results = rt.run_app(app, machine.cluster[: layout[0] * layout[1]])
    for before, after in results:
        assert before == after


def test_migration_conserves_particles():
    def kick_in_y(rank, species):
        # hard enough that many leave the slab, up or down
        rng = np.random.default_rng(rank)
        for sp in species:
            sp.v[1] += rng.choice([-1.0, 1.0], size=sp.n) * 0.5
            sp.y += 0.05 * sp.v[1]
            np.mod(sp.y, 1.0, out=sp.y)

    check_migration((1, 4), kick_in_y)


def test_migration_reaches_diagonal_blocks():
    def kick_diagonally(rank, species):
        # half the domain: every particle lands on the diagonal block
        for sp in species:
            sp.x = (sp.x + 0.5) % 1.0
            sp.y = (sp.y + 0.5) % 1.0

    check_migration((2, 2), kick_diagonally)


@pytest.mark.parametrize("layout", [(1, 4), (4, 1)], ids=layout_id)
def test_migrate_rejects_travel_past_one_block(layout):
    """A particle that crosses more than one block in a step cannot be
    handed to a neighbour; the run stops with a clear error instead of
    failing later in the deposit.  The reference loop runs it fine."""
    cfg = small_cfg(steps=2, electron_vth=3.0)
    reference_fingerprint(cfg)
    axis = "x" if layout[0] > 1 else "y"
    with pytest.raises(
        ValueError,
        match=rf"moved more than one block extent \(0\.25\) along {axis}",
    ):
        run_numeric_experiment(
            build_deep_er_prototype(), Mode.CLUSTER, cfg, layout=layout
        )


def check_charge_conserved(layout):
    cfg = small_cfg(steps=2)
    machine = build_deep_er_prototype()
    ref = reference_fingerprint(cfg)
    fp = run_numeric_experiment(machine, Mode.CLUSTER, cfg, layout=layout)
    # total deposited charge (rho_sum) is the strictest conservation
    assert fp["rho_sum"] == pytest.approx(ref["rho_sum"], abs=1e-9)


def test_migration_charge_conserved():
    check_charge_conserved((1, 4))


def test_block_charge_conserved():
    check_charge_conserved((2, 2))
