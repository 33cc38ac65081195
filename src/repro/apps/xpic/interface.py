"""Interface buffers between the field and particle solvers.

The paper's Fig 5 shows the two solvers communicating exclusively
through interface buffers: fields (E, B) flow from the field solver to
the particle solver, moments (rho, J) flow back.  ``cpyToArr_F`` /
``cpyFromArr_F`` / ``cpyToArr_M`` / ``cpyFromArr_M`` in Listings 1-3
pack and unpack these buffers; in Cluster-Booster mode the packed
arrays are exactly what crosses the fabric, so their sizes determine
the inter-module communication volume.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .grid import Grid2D
from .workload import fields_nbytes, moments_nbytes

__all__ = [
    "pack_fields",
    "unpack_fields",
    "pack_moments",
    "unpack_moments",
    "fields_nbytes",
    "moments_nbytes",
]


def pack_fields(E: np.ndarray, B: np.ndarray) -> np.ndarray:
    """cpyToArr_F: pack E and B into one contiguous interface buffer."""
    if E.shape != B.shape or E.ndim != 3 or E.shape[0] != 3:
        raise ValueError("E and B must be matching (3, ny, nx) arrays")
    return np.concatenate([E.ravel(), B.ravel()])


def unpack_fields(buf: np.ndarray, grid: Grid2D) -> Tuple[np.ndarray, np.ndarray]:
    """cpyFromArr_F: unpack the interface buffer into E and B."""
    n = 3 * grid.ny * grid.nx
    if buf.shape != (2 * n,):
        raise ValueError(f"buffer has wrong length {buf.shape} for grid {grid.shape}")
    E = buf[:n].reshape(3, grid.ny, grid.nx).copy()
    B = buf[n:].reshape(3, grid.ny, grid.nx).copy()
    return E, B


def pack_moments(rho: np.ndarray, J: np.ndarray) -> np.ndarray:
    """cpyToArr_M: pack charge and current density into one buffer."""
    if J.ndim != 3 or J.shape[0] != 3 or rho.shape != J.shape[1:]:
        raise ValueError("rho must be (ny, nx) and J (3, ny, nx)")
    return np.concatenate([rho.ravel(), J.ravel()])


def unpack_moments(buf: np.ndarray, grid: Grid2D) -> Tuple[np.ndarray, np.ndarray]:
    """cpyFromArr_M: unpack the interface buffer into rho and J."""
    n = grid.ny * grid.nx
    if buf.shape != (4 * n,):
        raise ValueError(f"buffer has wrong length {buf.shape} for grid {grid.shape}")
    rho = buf[:n].reshape(grid.shape).copy()
    J = buf[n:].reshape(3, grid.ny, grid.nx).copy()
    return rho, J
