"""Physics correctness of the xPic reference implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.xpic.config import SpeciesConfig, XpicConfig
from repro.apps.xpic.fields import FieldSolver, conjugate_gradient
from repro.apps.xpic.grid import Grid2D
from repro.apps.xpic.interface import (
    fields_nbytes,
    moments_nbytes,
    pack_fields,
    pack_moments,
    unpack_fields,
    unpack_moments,
)
from repro.apps.xpic.moments import deposit_scalar, interpolate
from repro.apps.xpic.particles import Species, maxwellian_species
from repro.apps.xpic.simulation import XpicSimulation


def small_config(**kw):
    defaults = dict(
        nx=16,
        ny=16,
        dt=0.05,
        steps=5,
        species=(
            SpeciesConfig("electrons", -1.0, 1.0, 8),
            SpeciesConfig("ions", +1.0, 100.0, 8),
        ),
    )
    defaults.update(kw)
    return XpicConfig(**defaults)


# -------------------------------------------------------------------- grid
def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(1, 16, 1.0, 1.0)
    with pytest.raises(ValueError):
        Grid2D(16, 16, -1.0, 1.0)


def test_laplacian_of_plane_wave():
    """laplacian(sin kx) = -k^2 sin kx on the periodic grid."""
    g = Grid2D(64, 64, 2 * np.pi, 2 * np.pi)
    x = np.arange(g.nx) * g.dx
    f = np.tile(np.sin(x), (g.ny, 1))
    lap = g.laplacian(f)
    np.testing.assert_allclose(lap, -f, atol=2e-3)


def test_curl_of_gradient_is_zero():
    g = Grid2D(32, 32, 1.0, 1.0)
    rng = np.random.default_rng(0)
    phi = rng.normal(size=g.shape)
    v = g.vector_zeros()
    v[0], v[1] = g.ddx(phi), g.ddy(phi)
    curl = g.curl(v)
    assert np.max(np.abs(curl[2])) < 1e-10


def test_divergence_of_curl_is_zero():
    g = Grid2D(32, 32, 1.0, 1.0)
    rng = np.random.default_rng(1)
    v = rng.normal(size=(3, 32, 32))
    assert np.max(np.abs(g.divergence(g.curl(v))[0])) < 1e-10


def test_position_wrapping():
    g = Grid2D(8, 8, 1.0, 1.0)
    x = np.array([1.25, -0.25])
    y = np.array([0.5, 2.0])
    g.wrap_positions(x, y)
    np.testing.assert_allclose(x, [0.25, 0.75])
    np.testing.assert_allclose(y, [0.5, 0.0])


# ------------------------------------------------------------ deposition
def test_deposit_conserves_charge():
    g = Grid2D(16, 16, 1.0, 1.0)
    rng = np.random.default_rng(2)
    n = 1000
    x, y = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    rho = deposit_scalar(g, x, y, np.full(n, -1.0))
    total = np.sum(rho) * g.dx * g.dy
    assert total == pytest.approx(-n, rel=1e-12)


def test_deposit_particle_on_node():
    """A particle exactly on a node deposits only there."""
    g = Grid2D(8, 8, 1.0, 1.0)
    x, y = np.array([2 * g.dx]), np.array([3 * g.dy])
    rho = deposit_scalar(g, x, y, np.array([1.0]))
    assert rho[3, 2] == pytest.approx(1.0 / (g.dx * g.dy))
    assert np.sum(rho != 0) == 1


def test_interpolate_inverse_of_uniform_field():
    g = Grid2D(8, 8, 1.0, 1.0)
    f = np.full(g.shape, 3.5)
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    np.testing.assert_allclose(interpolate(g, f, x, y), 3.5)


def test_interpolate_linear_field_exact():
    """CIC reproduces a linear-in-x field exactly (between nodes)."""
    g = Grid2D(16, 16, 1.0, 1.0)
    xs = np.arange(g.nx) * g.dx
    f = np.tile(xs, (g.ny, 1))
    x = np.array([0.33, 0.61])
    y = np.array([0.25, 0.77])
    vals = interpolate(g, f, x, y)
    np.testing.assert_allclose(vals, x, atol=1e-12)


@given(st.integers(1, 300), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_deposit_charge_conservation_property(n, seed):
    """Property: CIC deposition conserves total charge for any cloud."""
    g = Grid2D(12, 12, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    q = rng.normal(size=n)
    rho = deposit_scalar(g, x, y, q)
    assert np.sum(rho) * g.dx * g.dy == pytest.approx(np.sum(q), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------- particles
def test_boris_gyration_conserves_speed():
    """In a uniform B, the Boris rotation conserves |v| exactly."""
    g = Grid2D(8, 8, 1.0, 1.0)
    sc = SpeciesConfig("e", -1.0, 1.0, 1)
    sp = Species(
        sc,
        np.array([0.5]),
        np.array([0.5]),
        np.array([[0.01], [0.0], [0.0]]),
    )
    E = g.vector_zeros()
    B = g.vector_zeros()
    B[2] = 1.0
    speed0 = np.linalg.norm(sp.v)
    for _ in range(200):
        sp.move(g, E, B, dt=0.1)
    assert np.linalg.norm(sp.v) == pytest.approx(speed0, rel=1e-12)


def test_boris_gyration_radius():
    """Larmor radius = m v / (q B)."""
    g = Grid2D(32, 32, 1.0, 1.0)
    sc = SpeciesConfig("e", -1.0, 1.0, 1)
    v0 = 0.02
    B0 = 4.0
    sp = Species(
        sc, np.array([0.5]), np.array([0.5]), np.array([[v0], [0.0], [0.0]])
    )
    E = g.vector_zeros()
    B = g.vector_zeros()
    B[2] = B0
    xs, ys = [], []
    for _ in range(500):
        sp.move(g, E, B, dt=0.01)
        xs.append(sp.x[0])
        ys.append(sp.y[0])
    radius = (max(xs) - min(xs)) / 2
    assert radius == pytest.approx(v0 / B0, rel=0.05)


def test_e_cross_b_drift():
    """Uniform E x B: guiding centre drifts at E/B."""
    g = Grid2D(32, 32, 1.0, 1.0)
    sc = SpeciesConfig("e", -1.0, 1.0, 1)
    sp = Species(
        sc, np.array([0.5]), np.array([0.5]), np.array([[0.0], [0.0], [0.0]])
    )
    E = g.vector_zeros()
    B = g.vector_zeros()
    E[1] = 0.001  # E in y
    B[2] = 1.0  # B in z -> drift in x at E/B
    dt, steps = 0.05, 2000
    x0 = sp.x[0]
    drift_x = 0.0
    prev = x0
    for _ in range(steps):
        sp.move(g, E, B, dt)
        dx = sp.x[0] - prev
        if dx < -0.5:
            dx += 1.0  # unwrap periodic
        drift_x += dx
        prev = sp.x[0]
    v_drift = drift_x / (dt * steps)
    assert v_drift == pytest.approx(0.001, rel=0.05)


def test_uniform_e_acceleration():
    g = Grid2D(8, 8, 1.0, 1.0)
    sc = SpeciesConfig("p", 1.0, 2.0, 1)
    sp = Species(
        sc, np.array([0.5]), np.array([0.5]), np.array([[0.0], [0.0], [0.0]])
    )
    E = g.vector_zeros()
    E[0] = 0.01
    B = g.vector_zeros()
    for _ in range(100):
        sp.move(g, E, B, dt=0.1)
    # v = q E t / m
    assert sp.v[0, 0] == pytest.approx(1.0 * 0.01 * 10.0 / 2.0, rel=1e-9)


def test_species_extract_inject_roundtrip():
    g = Grid2D(8, 8, 1.0, 1.0)
    sc = SpeciesConfig("e", -1.0, 1.0, 4)
    rng = np.random.default_rng(4)
    sp = maxwellian_species(sc, g, rng)
    n0 = sp.n
    ke0 = sp.kinetic_energy()
    mask = sp.y > 0.5
    packed = sp.extract(mask)
    assert sp.n + len(packed["x"]) == n0
    sp.inject(packed)
    assert sp.n == n0
    assert sp.kinetic_energy() == pytest.approx(ke0)


# --------------------------------------------------------------------- CG
def test_cg_solves_identity():
    b = np.random.default_rng(6).normal(size=(8, 8))
    x, it = conjugate_gradient(lambda f: f, b)
    np.testing.assert_allclose(x, b, atol=1e-10)
    assert it <= 2


def test_cg_solves_helmholtz():
    g = Grid2D(32, 32, 1.0, 1.0)
    k = 0.01

    def A(f):
        return f - k * g.laplacian(f)

    rng = np.random.default_rng(7)
    x_true = rng.normal(size=g.shape)
    b = A(x_true)
    x, it = conjugate_gradient(A, b, tol=1e-12, max_iters=500)
    np.testing.assert_allclose(x, x_true, atol=1e-6)
    assert 0 < it < 500


def test_cg_zero_rhs():
    x, it = conjugate_gradient(lambda f: f, np.zeros((4, 4)))
    assert np.all(x == 0) and it == 0


# ------------------------------------------------------------ field solver
def test_faraday_keeps_divB_zero():
    cfg = small_config()
    sim = XpicSimulation(cfg)
    sim.run(5)
    assert sim.fields.div_B() < 1e-8


def test_field_solver_shape_validation():
    g = Grid2D(8, 8, 1.0, 1.0)
    fs = FieldSolver(g)
    with pytest.raises(ValueError):
        fs.calculate_E(0.1, g.zeros(), g.zeros())  # J not 3-component


# ----------------------------------------------------------------- buffers
def test_interface_buffers_roundtrip():
    g = Grid2D(8, 8, 1.0, 1.0)
    rng = np.random.default_rng(8)
    E, B = rng.normal(size=(3, 8, 8)), rng.normal(size=(3, 8, 8))
    E2, B2 = unpack_fields(pack_fields(E, B), g)
    np.testing.assert_array_equal(E, E2)
    np.testing.assert_array_equal(B, B2)
    rho, J = rng.normal(size=(8, 8)), rng.normal(size=(3, 8, 8))
    rho2, J2 = unpack_moments(pack_moments(rho, J), g)
    np.testing.assert_array_equal(rho, rho2)
    np.testing.assert_array_equal(J, J2)


def test_interface_buffer_sizes():
    assert fields_nbytes(4096) == 6 * 4096 * 8
    assert moments_nbytes(4096) == 4 * 4096 * 8


def test_interface_validation():
    g = Grid2D(8, 8, 1.0, 1.0)
    with pytest.raises(ValueError):
        unpack_fields(np.zeros(5), g)
    with pytest.raises(ValueError):
        pack_moments(np.zeros((8, 8)), np.zeros((2, 8, 8)))


# -------------------------------------------------------------- full runs
def test_simulation_charge_conservation():
    cfg = small_config()
    sim = XpicSimulation(cfg)
    q0 = sum(sp.total_charge() for sp in sim.species)
    diags = sim.run()
    for d in diags:
        assert d.total_charge == pytest.approx(q0, abs=1e-6 * max(1, abs(q0)))


def test_simulation_energy_bounded():
    """The implicit theta=0.5 scheme keeps total energy bounded (no
    numerical heating blow-up) over a modest run."""
    cfg = small_config(steps=20)
    sim = XpicSimulation(cfg)
    diags = sim.run()
    e0 = diags[0].total_energy
    for d in diags:
        assert d.total_energy < 1.5 * e0 + 1e-12


def test_simulation_deterministic_by_seed():
    a = XpicSimulation(small_config())
    b = XpicSimulation(small_config())
    a.run(3)
    b.run(3)
    assert a.state_fingerprint() == b.state_fingerprint()


def test_simulation_seed_changes_state():
    a = XpicSimulation(small_config())
    b = XpicSimulation(small_config(seed=999))
    a.run(2)
    b.run(2)
    assert a.state_fingerprint() != b.state_fingerprint()


def test_config_validation():
    with pytest.raises(ValueError):
        XpicConfig(nx=1)
    with pytest.raises(ValueError):
        XpicConfig(dt=-0.1)
    with pytest.raises(ValueError):
        XpicConfig(theta=1.5)
    with pytest.raises(ValueError):
        XpicConfig(species=())
    with pytest.raises(ValueError):
        SpeciesConfig("x", 1.0, -1.0, 4)


def test_table2_defaults():
    cfg = XpicConfig()
    assert cfg.cells == 4096
    assert cfg.particles_per_cell == 2048


# -------------------------------------------------------- vacuum EM waves
def test_vacuum_em_wave_travels_at_c():
    """A plane wave (Ey, Bz) in vacuum advances by c*t with tiny
    dispersion — the Maxwell solver validated without any particles."""
    g = Grid2D(64, 8, 2 * np.pi, 0.25)
    fs = FieldSolver(g, c=1.0, theta=0.5, cg_tol=1e-12, cg_max_iters=500)
    x = np.arange(g.nx) * g.dx
    E0, k = 1e-3, 1.0
    fs.E[1] = E0 * np.sin(k * x)[None, :]
    fs.B[2] = E0 * np.sin(k * x)[None, :]
    rho, J = g.zeros(), g.vector_zeros()
    dt, steps = 0.05, 40
    for _ in range(steps):
        fs.calculate_E(dt, rho, J)
        fs.calculate_B(dt)
    c1 = np.fft.rfft(fs.E[1][0])[1]
    ref = np.fft.rfft(E0 * np.sin(k * x))[1]
    shift = (-(np.angle(c1) - np.angle(ref)) / k) % (2 * np.pi)
    assert shift == pytest.approx(steps * dt, rel=0.01)
    # amplitude preserved (theta = 1/2 is non-dissipative)
    assert np.abs(c1) * 2 / g.nx == pytest.approx(E0, rel=1e-3)


def test_vacuum_em_wave_direction_follows_polarization():
    """Flipping Bz reverses the propagation direction."""
    g = Grid2D(64, 8, 2 * np.pi, 0.25)
    fs = FieldSolver(g, c=1.0, theta=0.5, cg_tol=1e-12, cg_max_iters=500)
    x = np.arange(g.nx) * g.dx
    E0, k = 1e-3, 1.0
    fs.E[1] = E0 * np.sin(k * x)[None, :]
    fs.B[2] = -E0 * np.sin(k * x)[None, :]  # reversed: wave moves -x
    rho, J = g.zeros(), g.vector_zeros()
    dt, steps = 0.05, 20
    for _ in range(steps):
        fs.calculate_E(dt, rho, J)
        fs.calculate_B(dt)
    c1 = np.fft.rfft(fs.E[1][0])[1]
    ref = np.fft.rfft(E0 * np.sin(k * x))[1]
    shift = ((np.angle(c1) - np.angle(ref)) / k) % (2 * np.pi)
    assert shift == pytest.approx(steps * dt, rel=0.02)


def test_vacuum_field_energy_conserved():
    g = Grid2D(32, 8, 2 * np.pi, 0.25)
    fs = FieldSolver(g, c=1.0, theta=0.5, cg_tol=1e-12, cg_max_iters=500)
    x = np.arange(g.nx) * g.dx
    fs.E[1] = 1e-3 * np.sin(x)[None, :]
    fs.B[2] = 1e-3 * np.sin(x)[None, :]
    rho, J = g.zeros(), g.vector_zeros()
    e0 = fs.field_energy()
    for _ in range(50):
        fs.calculate_E(0.05, rho, J)
        fs.calculate_B(0.05)
    assert fs.field_energy() == pytest.approx(e0, rel=1e-3)
