"""The particle solver: Newton's equation for charged macro-particles.

``r, v = f(E, B)`` in the paper's Fig 5: fields are gathered at particle
positions (CIC interpolation) and velocities advanced with the Boris
rotation scheme — the standard, energy-stable integrator used by PIC
production codes (xPic's implicit mover reduces to it for theta = 1/2 in
the explicit limit; we document this substitution in DESIGN.md).

Everything is fully vectorized over particles, per the guide's
"vectorize for loops" rule.
"""

from __future__ import annotations

import numpy as np

from .config import SpeciesConfig
from .grid import Grid2D
from .moments import deposit_moments, interpolate

__all__ = ["Species", "maxwellian_species"]


class Species:
    """Macro-particles of one plasma species on (a block of) the grid."""

    def __init__(
        self,
        config: SpeciesConfig,
        x: np.ndarray,
        y: np.ndarray,
        velocities: np.ndarray,
        weight: float = 1.0,
    ):
        if velocities.shape != (3, x.shape[0]) or y.shape != x.shape:
            raise ValueError("inconsistent particle array shapes")
        if weight <= 0:
            raise ValueError("macro-particle weight must be positive")
        self.config = config
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.v = np.asarray(velocities, dtype=np.float64)
        #: Macro-particle statistical weight: physical charge carried is
        #: ``config.charge * weight``.  Standard PIC normalization uses
        #: weight = cell area / particles-per-cell so the species number
        #: density is ~1 and the plasma stays in normalized units.
        self.weight = float(weight)

    @property
    def n(self) -> int:
        """Number of macro-particles currently held."""
        return self.x.shape[0]

    @property
    def charge(self) -> float:
        """Charge carried by one macro-particle."""
        return self.config.charge * self.weight

    @property
    def mass(self) -> float:
        """Mass carried by one macro-particle."""
        return self.config.mass * self.weight

    # -- physics ------------------------------------------------------------
    def move(self, grid: Grid2D, E: np.ndarray, B: np.ndarray, dt: float) -> None:
        """Gather E and B at the particles, Boris-push, wrap periodically."""
        if self.n == 0:
            return
        self.push(
            interpolate(grid, E, self.x, self.y),  # (3, N)
            interpolate(grid, B, self.x, self.y),
            dt,
        )
        grid.wrap_positions(self.x, self.y)

    def push(self, Ep: np.ndarray, Bp: np.ndarray, dt: float) -> None:
        """Boris push with the fields already gathered at the particles:
        half E-kick, B-rotation, half E-kick, then drift.  Positions are
        left unwrapped; the caller applies its boundaries."""
        qmdt2 = 0.5 * dt * self.charge / self.mass

        # half electric acceleration
        vminus = self.v + qmdt2 * Ep
        # magnetic rotation
        t = qmdt2 * Bp
        t2 = np.sum(t * t, axis=0)
        s = 2.0 * t / (1.0 + t2)
        vprime = vminus + np.cross(vminus.T, t.T).T
        vplus = vminus + np.cross(vprime.T, s.T).T
        # second half electric acceleration
        self.v = vplus + qmdt2 * Ep

        # position drift (2D positions, 3D velocities)
        self.x += dt * self.v[0]
        self.y += dt * self.v[1]

    def moments(self, grid: Grid2D):
        """Charge and current density of this species (moment gathering)."""
        return deposit_moments(grid, self.x, self.y, self.v, self.charge)

    # -- diagnostics ----------------------------------------------------------
    def kinetic_energy(self) -> float:
        """Total kinetic energy carried by this species' macro-particles."""
        return 0.5 * self.mass * float(np.sum(self.v * self.v))

    def momentum(self) -> np.ndarray:
        """Total momentum vector of the species."""
        return self.mass * self.v.sum(axis=1)

    def total_charge(self) -> float:
        """Total charge carried by the species."""
        return self.charge * self.n

    # -- migration support (domain decomposition) ----------------------------
    def extract(self, mask: np.ndarray) -> dict:
        """Remove particles selected by ``mask`` and return them packed."""
        packed = {
            "x": self.x[mask].copy(),
            "y": self.y[mask].copy(),
            "v": self.v[:, mask].copy(),
        }
        keep = ~mask
        self.x = self.x[keep]
        self.y = self.y[keep]
        self.v = self.v[:, keep]
        return packed

    def inject(self, packed: dict) -> None:
        """Append particles previously packed by :meth:`extract`."""
        self.x = np.concatenate([self.x, packed["x"]])
        self.y = np.concatenate([self.y, packed["y"]])
        self.v = np.concatenate([self.v, packed["v"]], axis=1)


def maxwellian_species(
    config: SpeciesConfig,
    grid: Grid2D,
    rng: np.random.Generator,
) -> Species:
    """Species loaded uniformly over the whole domain, with Maxwellian
    velocities."""
    n = int(round(config.particles_per_cell * grid.cells))
    x = rng.uniform(0.0, grid.lx, size=n)
    y = rng.uniform(0.0, grid.ly, size=n)
    v = rng.normal(0.0, config.thermal_velocity, size=(3, n))
    v += np.asarray(config.drift_velocity).reshape(3, 1)
    # Weight so the species number density is ~1 in normalized units.
    weight = grid.dx * grid.dy / max(config.particles_per_cell, 1)
    return Species(config, x, y, v, weight=weight)
