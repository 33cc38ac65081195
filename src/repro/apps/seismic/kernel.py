"""2D acoustic wave propagation (seismic-imaging substrate).

Section IV: the DEEP co-design portfolio includes seismic imaging.
Unlike xPic, such stencil codes are *monolithic*: one tightly-coupled
kernel with no separable phases, so they run best entirely on one
module (the paper: "Other applications tested on the DEEP-ER prototype
are of rather monolithic nature").

The numerics: second-order acoustic FDTD with a damping sponge::

    p^{n+1} = 2 p^n - p^{n-1} + (c dt)^2 laplacian(p^n) + src

fully vectorized, unit-stride — the archetypal STREAM workload that
the Booster's MCDRAM loves.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["AcousticWave2D", "ricker_wavelet"]


def ricker_wavelet(t: np.ndarray, peak_frequency: float) -> np.ndarray:
    """The standard seismic source time function."""
    a = (np.pi * peak_frequency * (t - 1.0 / peak_frequency)) ** 2
    return (1.0 - 2.0 * a) * np.exp(-a)


class AcousticWave2D:
    """Explicit acoustic wave solver on a uniform grid."""

    def __init__(
        self,
        nx: int,
        ny: int,
        dx: float,
        velocity=1.0,
        dt: Optional[float] = None,
        sponge_cells: int = 8,
        sponge_strength: float = 0.05,
    ):
        """``velocity`` may be a scalar (homogeneous medium) or an
        (ny, nx) array — a heterogeneous earth model, the actual
        seismic-imaging use case (waves reflect at velocity contrasts).
        """
        if nx < 8 or ny < 8:
            raise ValueError("grid too small")
        if dx <= 0:
            raise ValueError("grid spacing must be positive")
        self.nx, self.ny = nx, ny
        self.dx = dx
        v = np.asarray(velocity, dtype=float)
        if v.ndim == 0:
            v = np.full((ny, nx), float(v))
        if v.shape != (ny, nx):
            raise ValueError(f"velocity model must be ({ny}, {nx})")
        if np.any(v <= 0):
            raise ValueError("velocities must be positive")
        self.velocity_model = v
        self.velocity = float(v.max())  # governs the CFL limit
        # CFL: dt <= dx / (c_max * sqrt(2)); default at 80% of the limit
        self.dt = dt if dt is not None else 0.8 * dx / (self.velocity * np.sqrt(2.0))
        if self.dt > dx / (self.velocity * np.sqrt(2.0)) + 1e-15:
            raise ValueError("dt violates the CFL condition")
        self.p = np.zeros((ny, nx))
        self.p_prev = np.zeros((ny, nx))
        self.step_count = 0
        self._damp = self._build_sponge(sponge_cells, sponge_strength)

    def _build_sponge(self, cells: int, strength: float) -> np.ndarray:
        damp = np.zeros((self.ny, self.nx))
        if cells > 0:
            ramp = (strength * (np.arange(cells, 0, -1) / cells) ** 2)
            damp[:cells, :] += ramp[:, None]
            damp[-cells:, :] += ramp[::-1][:, None]
            damp[:, :cells] += ramp[None, :]
            damp[:, -cells:] += ramp[::-1][None, :]
        return np.exp(-damp)

    def _laplacian(self, f: np.ndarray) -> np.ndarray:
        out = np.zeros_like(f)
        out[1:-1, 1:-1] = (
            f[1:-1, 2:] + f[1:-1, :-2] + f[2:, 1:-1] + f[:-2, 1:-1]
            - 4.0 * f[1:-1, 1:-1]
        ) / self.dx**2
        return out

    def step(self, source: Optional[Tuple[int, int, float]] = None) -> None:
        """Advance one time step; optional point source (ix, iy, value)."""
        lap = self._laplacian(self.p)
        p_next = (
            2.0 * self.p - self.p_prev
            + (self.velocity_model * self.dt) ** 2 * lap
        )
        if source is not None:
            ix, iy, value = source
            p_next[iy, ix] += value * self.dt**2
        # sponge boundaries: exponential damping near the edges
        p_next *= self._damp
        self.p_prev = self.p * self._damp
        self.p = p_next
        self.step_count += 1

    def wavefield_energy(self) -> float:
        """Total squared wavefield amplitude (an energy proxy)."""
        return float(np.sum(self.p**2)) * self.dx**2

    @property
    def cells(self) -> int:
        """Total grid cells."""
        return self.nx * self.ny
