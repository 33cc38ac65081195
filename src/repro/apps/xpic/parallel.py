"""Block-decomposed xPic: the real numerics, distributed over ranks.

The 2D grid is split over a ``px x py`` periodic process grid, the
decomposition production PIC codes use; a row slab is the layout
``(1, n)``.  Local arrays carry one ghost cell on *all four* sides::

    (components, rows+2, cols+2)        interior = [1:-1, 1:-1]

Corner ghosts (needed by CIC interpolation/deposition) are obtained by
the standard two-phase trick: exchange in x first, then exchange in y
*including the x-ghost columns*, which propagates corners without
diagonal messages.  Particle migration uses the same two-phase pattern.

All communication (ghost exchange, moment halo-add, particle
migration, CG dot products) goes through the simulated MPI, so the
numeric runs exercise exactly the communication pattern the
performance model charges for — and their physics must match the
single-process reference (:class:`~repro.apps.xpic.simulation.XpicSimulation`).
"""

from __future__ import annotations

from typing import Generator, List, Tuple

import numpy as np

from ...mpi import Comm
from .config import XpicConfig
from .grid import Grid2D
from .moments import cic_weights
from .particles import Species, maxwellian_species

__all__ = ["Block2D", "DistributedFields", "DistributedParticles",
           "load_block_species"]

TAG_X = 81
TAG_Y = 82
TAG_FOLD_X = 83
TAG_FOLD_Y = 84
TAG_MIG_X = 85
TAG_MIG_Y = 86


class Block2D:
    """One rank's block of the global grid in a px x py layout."""

    def __init__(self, config: XpicConfig, layout: Tuple[int, int], rank: int):
        px, py = layout
        if px < 1 or py < 1:
            raise ValueError("layout must be positive")
        if config.nx % px or config.ny % py:
            raise ValueError(
                f"grid {config.nx}x{config.ny} not divisible by layout {layout}"
            )
        if not 0 <= rank < px * py:
            raise ValueError("rank outside the process grid")
        self.config = config
        self.px, self.py = px, py
        self.rank = rank
        self.rx = rank % px
        self.ry = rank // px
        self.global_grid = Grid2D(config.nx, config.ny, config.lx, config.ly)
        self.cols = config.nx // px
        self.rows = config.ny // py
        self.col0 = self.rx * self.cols
        self.row0 = self.ry * self.rows
        self.dx = self.global_grid.dx
        self.dy = self.global_grid.dy
        self.x0 = self.col0 * self.dx
        self.x1 = (self.col0 + self.cols) * self.dx
        self.y0 = self.row0 * self.dy
        self.y1 = (self.row0 + self.rows) * self.dy

    # -- neighbours (periodic process grid) ---------------------------------
    def neighbour(self, dx_r: int, dy_r: int) -> int:
        """Rank offset by (dx, dy) on the periodic process grid."""
        nx_r = (self.rx + dx_r) % self.px
        ny_r = (self.ry + dy_r) % self.py
        return ny_r * self.px + nx_r

    @property
    def left(self) -> int:
        """Rank of the -x neighbour block."""
        return self.neighbour(-1, 0)

    @property
    def right(self) -> int:
        """Rank of the +x neighbour block."""
        return self.neighbour(+1, 0)

    @property
    def down(self) -> int:
        """Rank of the -y neighbour block."""
        return self.neighbour(0, -1)

    @property
    def up(self) -> int:
        """Rank of the +y neighbour block."""
        return self.neighbour(0, +1)

    def zeros_ext(self, components: int = 3) -> np.ndarray:
        """Zeroed extended array with one ghost cell on every side."""
        shape = (self.rows + 2, self.cols + 2)
        if components == 1:
            return np.zeros(shape)
        return np.zeros((components,) + shape)

    def owned(self, ext: np.ndarray) -> np.ndarray:
        """View of the owned interior of an extended array."""
        return ext[..., 1:-1, 1:-1]

    # -- operators (all ghosts assumed filled) ------------------------------
    def ddx(self, ext: np.ndarray) -> np.ndarray:
        """Central d/dx on owned cells using the x ghosts."""
        return (ext[..., 1:-1, 2:] - ext[..., 1:-1, :-2]) / (2 * self.dx)

    def ddy(self, ext: np.ndarray) -> np.ndarray:
        """Central d/dy on owned cells using the y ghosts."""
        return (ext[..., 2:, 1:-1] - ext[..., :-2, 1:-1]) / (2 * self.dy)

    def laplacian(self, ext: np.ndarray) -> np.ndarray:
        """Compact Laplacian on owned cells using all face ghosts."""
        f = ext[..., 1:-1, 1:-1]
        return (
            (ext[..., 1:-1, 2:] - 2 * f + ext[..., 1:-1, :-2]) / self.dx**2
            + (ext[..., 2:, 1:-1] - 2 * f + ext[..., :-2, 1:-1]) / self.dy**2
        )

    def curl(self, ext: np.ndarray) -> np.ndarray:
        """Curl of an extended 3-component field, on owned cells."""
        out = np.empty((3, self.rows, self.cols))
        out[0] = self.ddy(ext[2])
        out[1] = -self.ddx(ext[2])
        out[2] = self.ddx(ext[1]) - self.ddy(ext[0])
        return out

    # -- particle indexing --------------------------------------------------
    def local_indices(self, x: np.ndarray, y: np.ndarray):
        """CIC corner indices (into the extended arrays) and weights,
        ``(col, slot, w00, w01, w10, w11)``; owned cells map to
        ``1..cols`` and ``1..rows``."""
        ix, iy, w00, w01, w10, w11 = cic_weights(self.global_grid, x, y)
        return ix - self.col0 + 1, iy - self.row0 + 1, w00, w01, w10, w11

    def interpolate(self, ext: np.ndarray, x, y) -> np.ndarray:
        """Gather an extended field at particle positions (CIC)."""
        col, slot, w00, w01, w10, w11 = self.local_indices(x, y)
        out = np.empty((ext.shape[0], x.shape[0]))
        for c in range(ext.shape[0]):
            f = ext[c]
            out[c] = (
                f[slot, col] * w00
                + f[slot, col + 1] * w01
                + f[slot + 1, col] * w10
                + f[slot + 1, col + 1] * w11
            )
        return out

    def deposit(self, x, y, values) -> np.ndarray:
        """CIC-deposit particle values into a fresh extended array."""
        ext_flat = np.zeros((self.rows + 2) * (self.cols + 2))
        if x.shape[0]:
            col, slot, w00, w01, w10, w11 = self.local_indices(x, y)
            w = self.cols + 2
            n = ext_flat.shape[0]
            ext_flat += np.bincount(slot * w + col, weights=values * w00, minlength=n)
            ext_flat += np.bincount(slot * w + col + 1, weights=values * w01, minlength=n)
            ext_flat += np.bincount((slot + 1) * w + col, weights=values * w10, minlength=n)
            ext_flat += np.bincount((slot + 1) * w + col + 1, weights=values * w11, minlength=n)
        return ext_flat.reshape(self.rows + 2, self.cols + 2) / (self.dx * self.dy)


class DistributedFields:
    """The field solver's state on one block, with MPI generators."""

    def __init__(self, block: Block2D, config: XpicConfig):
        self.block = block
        self.config = config
        self.E = block.zeros_ext()
        self.B = block.zeros_ext()
        self.E_theta = block.zeros_ext()
        self.last_cg_iters = 0

    # -- ghost exchange ----------------------------------------------------
    def halo_exchange(self, comm: Comm, ext: np.ndarray) -> Generator:
        """Fill all ghosts (faces + corners) of an extended array.

        An axis with one block wraps locally, with no message.
        """
        b = self.block
        # phase 1: x direction (interior rows only)
        if b.px == 1:
            ext[..., :, 0] = ext[..., :, -2]
            ext[..., :, -1] = ext[..., :, 1]
        else:
            right_face = np.ascontiguousarray(ext[..., 1:-1, -2])
            left_face = np.ascontiguousarray(ext[..., 1:-1, 1])
            got_left = yield from comm.sendrecv(
                right_face, dest=b.right, source=b.left,
                sendtag=TAG_X, recvtag=TAG_X,
            )
            got_right = yield from comm.sendrecv(
                left_face, dest=b.left, source=b.right,
                sendtag=TAG_X + 100, recvtag=TAG_X + 100,
            )
            ext[..., 1:-1, 0] = got_left
            ext[..., 1:-1, -1] = got_right
        # phase 2: y direction, full width (propagates corners)
        if b.py == 1:
            ext[..., 0, :] = ext[..., -2, :]
            ext[..., -1, :] = ext[..., 1, :]
        else:
            top_face = np.ascontiguousarray(ext[..., -2, :])
            bottom_face = np.ascontiguousarray(ext[..., 1, :])
            got_bottom = yield from comm.sendrecv(
                top_face, dest=b.up, source=b.down,
                sendtag=TAG_Y, recvtag=TAG_Y,
            )
            got_top = yield from comm.sendrecv(
                bottom_face, dest=b.down, source=b.up,
                sendtag=TAG_Y + 100, recvtag=TAG_Y + 100,
            )
            ext[..., 0, :] = got_bottom
            ext[..., -1, :] = got_top

    # -- distributed CG ------------------------------------------------------
    def _apply_helmholtz(self, comm, dt, ext) -> Generator:
        yield from self.halo_exchange(comm, ext)
        k = (self.config.c * self.config.theta * dt) ** 2
        return self.block.owned(ext) - k * self.block.laplacian(ext)

    def _dot(self, comm, a, b) -> Generator:
        total = yield from comm.allreduce(float(np.sum(a * b)))
        return total

    def _cg(self, comm, dt, b_owned, x0_ext) -> Generator:
        """Distributed conjugate gradients on one field component."""
        blk = self.block
        x = x0_ext.copy()
        Ax = yield from self._apply_helmholtz(comm, dt, x)
        r = b_owned - Ax
        p_ext = blk.zeros_ext(1)
        p_ext[1:-1, 1:-1] = r
        rs = yield from self._dot(comm, r, r)
        b_norm2 = yield from self._dot(comm, b_owned, b_owned)
        if b_norm2 == 0.0:
            return blk.zeros_ext(1), 0
        tol2 = (self.config.cg_tol**2) * b_norm2
        it = 0
        while rs > tol2 and it < self.config.cg_max_iters:
            Ap = yield from self._apply_helmholtz(comm, dt, p_ext)
            pAp = yield from self._dot(comm, blk.owned(p_ext), Ap)
            alpha = rs / pAp
            x[1:-1, 1:-1] += alpha * blk.owned(p_ext)
            r -= alpha * Ap
            rs_new = yield from self._dot(comm, r, r)
            p_ext[1:-1, 1:-1] = r + (rs_new / rs) * blk.owned(p_ext)
            rs = rs_new
            it += 1
        yield from self.halo_exchange(comm, x)
        return x, it

    # -- solver steps -----------------------------------------------------
    def calculate_E(self, comm, dt, rho_owned, J_owned) -> Generator:
        """Distributed implicit field solve (cf. FieldSolver.calculate_E)."""
        cfg, blk = self.config, self.block
        ctdt = cfg.c * cfg.theta * dt
        yield from self.halo_exchange(comm, self.B)
        curlB = blk.curl(self.B)
        rhs = blk.owned(self.E) + ctdt * (curlB - 4.0 * np.pi * J_owned / cfg.c)
        total = 0
        for c in range(3):
            x0 = np.array(self.E_theta[c])
            sol, iters = yield from self._cg(comm, dt, rhs[c], x0)
            self.E_theta[c] = sol
            total += iters
        if cfg.theta > 0:
            self.E[:, 1:-1, 1:-1] = (
                self.E_theta[:, 1:-1, 1:-1]
                - (1.0 - cfg.theta) * self.E[:, 1:-1, 1:-1]
            ) / cfg.theta
        else:
            self.E = self.E_theta.copy()
        yield from self.halo_exchange(comm, self.E)
        self.last_cg_iters = total
        return total

    def calculate_B(self, comm, dt) -> Generator:
        """Distributed Faraday update of B from the decentred E field."""
        yield from self.halo_exchange(comm, self.E_theta)
        curlE = self.block.curl(self.E_theta)
        self.B[:, 1:-1, 1:-1] -= self.config.c * dt * curlE
        yield from self.halo_exchange(comm, self.B)

    def field_energy_local(self) -> float:
        """This block's contribution to the total field energy."""
        cell = self.block.dx * self.block.dy
        return 0.5 * cell * float(
            np.sum(self.block.owned(self.E) ** 2)
            + np.sum(self.block.owned(self.B) ** 2)
        )


class DistributedParticles:
    """The particle solver's state on one block, with two-phase
    migration and moment fold."""

    def __init__(self, block: Block2D, species: List[Species]):
        self.block = block
        self.species = species

    def move(self, E_ext, B_ext, dt) -> None:
        """Boris push against the block-extended field arrays (local)."""
        b = self.block
        for sp in self.species:
            if sp.n == 0:
                continue
            sp.push(
                b.interpolate(E_ext, sp.x, sp.y),
                b.interpolate(B_ext, sp.x, sp.y),
                dt,
            )
            b.global_grid.wrap_positions(sp.x, sp.y)

    def _migrate_axis(self, comm, si, sp, axis) -> Generator:
        b = self.block
        if axis == "x":
            lo, hi, length = b.x0, b.x1, b.global_grid.lx
            coord = sp.x
            dest_plus, dest_minus = b.right, b.left
            tag = TAG_MIG_X + 20 * si
        else:
            lo, hi, length = b.y0, b.y1, b.global_grid.ly
            coord = sp.y
            dest_plus, dest_minus = b.up, b.down
            tag = TAG_MIG_Y + 20 * si
        inside = (coord >= lo) & (coord < hi)
        d_plus = (coord - hi) % length
        d_minus = (lo - coord) % length
        goes_plus = ~inside & (d_plus <= d_minus)
        goes_minus = ~inside & ~goes_plus
        # the neighbours own [hi, hi + extent) and [lo - extent, lo):
        # a particle further away cannot be handed on
        extent = hi - lo
        beyond = (goes_plus & (d_plus >= extent)) | (goes_minus & (d_minus > extent))
        if beyond.any():
            raise ValueError(
                f"{int(beyond.sum())} particle(s) moved more than one block "
                f"extent ({extent:g}) along {axis} in one step; "
                "reduce dt or use fewer blocks along that axis"
            )
        plus_pack = sp.extract(goes_plus)
        # extract() compacts the arrays: keep the mask aligned
        minus_pack = sp.extract(goes_minus[~goes_plus])
        got_minus = yield from comm.sendrecv(
            plus_pack, dest=dest_plus, source=dest_minus,
            sendtag=tag, recvtag=tag,
        )
        got_plus = yield from comm.sendrecv(
            minus_pack, dest=dest_minus, source=dest_plus,
            sendtag=tag + 1, recvtag=tag + 1,
        )
        sp.inject(got_minus)
        sp.inject(got_plus)

    def migrate(self, comm) -> Generator:
        """Ship particles that left the block to the neighbour ranks.

        Two-phase nearest-neighbour exchange (x then y): diagonal movers
        reach their block in two hops.  One step's travel must stay
        under one block extent on each axis; a particle that goes
        further raises :class:`ValueError`.
        """
        b = self.block
        for si, sp in enumerate(self.species):
            if b.px > 1:
                yield from self._migrate_axis(comm, si, sp, "x")
            if b.py > 1:
                yield from self._migrate_axis(comm, si, sp, "y")

    def gather_moments(self, comm) -> Generator:
        """Deposit rho and J on the block and fold ghosts to the owners."""
        b = self.block
        rho_ext = np.zeros((b.rows + 2, b.cols + 2))
        J_ext = np.zeros((3, b.rows + 2, b.cols + 2))
        for sp in self.species:
            q = np.full(sp.x.shape, sp.charge)
            rho_ext += b.deposit(sp.x, sp.y, q)
            for c in range(3):
                J_ext[c] += b.deposit(sp.x, sp.y, q * sp.v[c])
        stacked = np.concatenate([rho_ext[None, ...], J_ext], axis=0)
        yield from self._fold(comm, stacked)
        return stacked[0, 1:-1, 1:-1], stacked[1:, 1:-1, 1:-1]

    def _fold(self, comm, ext) -> Generator:
        """Add ghost contributions into the owning neighbours
        (x first, then y over the full width: corners fold correctly)."""
        b = self.block
        if b.px == 1:
            ext[..., :, 1] += ext[..., :, -1]
            ext[..., :, -1] = 0.0
        else:
            send_right = np.ascontiguousarray(ext[..., :, -1])
            got = yield from comm.sendrecv(
                send_right, dest=b.right, source=b.left,
                sendtag=TAG_FOLD_X, recvtag=TAG_FOLD_X,
            )
            ext[..., :, 1] += got
            ext[..., :, -1] = 0.0
        if b.py == 1:
            ext[..., 1, :] += ext[..., -1, :]
            ext[..., -1, :] = 0.0
        else:
            send_up = np.ascontiguousarray(ext[..., -1, :])
            got = yield from comm.sendrecv(
                send_up, dest=b.up, source=b.down,
                sendtag=TAG_FOLD_Y, recvtag=TAG_FOLD_Y,
            )
            ext[..., 1, :] += got
            ext[..., -1, :] = 0.0

    def kinetic_energy_local(self) -> float:
        """This block's contribution to the total kinetic energy."""
        return sum(sp.kinetic_energy() for sp in self.species)

    @property
    def n_particles(self) -> int:
        """Macro-particles currently on this block."""
        return sum(sp.n for sp in self.species)


def load_block_species(config: XpicConfig, block: Block2D) -> List[Species]:
    """Load the *same global particle population* as the reference run
    and keep only this block's share.

    Every rank draws the identical global sample (same seed, same
    order) and filters by block ownership — guaranteeing the distributed
    run starts from exactly the reference initial condition.
    """
    rng = np.random.default_rng(config.seed)
    out = []
    for sc in config.species:
        sp_global = maxwellian_species(sc, block.global_grid, rng)
        mask = (
            (sp_global.x >= block.x0)
            & (sp_global.x < block.x1)
            & (sp_global.y >= block.y0)
            & (sp_global.y < block.y1)
        )
        out.append(
            Species(
                sc,
                sp_global.x[mask],
                sp_global.y[mask],
                sp_global.v[:, mask],
                weight=sp_global.weight,
            )
        )
    return out
