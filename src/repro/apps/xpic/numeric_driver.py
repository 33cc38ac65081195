"""Numeric (real-physics) partitioned xPic drivers.

Unlike :mod:`repro.apps.xpic.driver` (which charges modeled kernel
times for the performance study), these drivers execute the actual
NumPy physics, block-decomposed over the simulated MPI as a
``layout = (px, py)`` process grid (a row slab is ``(1, n)``) —
including the Cluster-Booster mode, where the field solver ranks live
on Cluster nodes and the particle solver ranks on Booster nodes,
exchanging real interface buffers through the inter-communicator.

They exist to *validate* the partition: every mode must produce the
same physics as the single-process reference loop (Listing 1), which
is what the paper means by "codes stay portable and keep the
capability to run out-of-the-box" (section III).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ...hardware.machine import Machine
from ...mpi import MPIRuntime, RankContext
from .config import XpicConfig
from .driver import Mode
from .parallel import (
    Block2D,
    DistributedFields,
    DistributedParticles,
    load_block_species,
)

__all__ = ["run_numeric_experiment"]

TAG_NF = 201  # fields cluster -> booster
TAG_NM = 202  # moments booster -> cluster
TAG_NM0 = 203  # initial moments


def _allreduced_fingerprint(comm, fields: DistributedFields, particles, rho_owned):
    """Global fingerprint assembled with MPI reductions (all ranks)."""
    fe = yield from comm.allreduce(fields.field_energy_local())
    ke = yield from comm.allreduce(
        particles.kinetic_energy_local() if particles else 0.0
    )
    rho_sum = yield from comm.allreduce(float(np.sum(rho_owned)))
    e2 = yield from comm.allreduce(
        float(np.sum(fields.block.owned(fields.E) ** 2))
    )
    b2 = yield from comm.allreduce(
        float(np.sum(fields.block.owned(fields.B) ** 2))
    )
    return {
        "field_energy": fe,
        "kinetic_energy": ke,
        "rho_sum": rho_sum,
        "E_norm": float(np.sqrt(e2)),
        "B_norm": float(np.sqrt(b2)),
    }


# --------------------------------------------------------------------------
# Homogeneous numeric app: both solvers on every rank's block
# --------------------------------------------------------------------------
def _numeric_homogeneous_app(ctx: RankContext, cfg: XpicConfig, layout):
    comm = ctx.world
    block = Block2D(cfg, layout, comm.rank)
    fields = DistributedFields(block, cfg)
    particles = DistributedParticles(block, load_block_species(cfg, block))
    rho, J = yield from particles.gather_moments(comm)
    for _ in range(cfg.steps):
        yield from fields.calculate_E(comm, cfg.dt, rho, J)
        particles.move(fields.E_theta, fields.B, cfg.dt)
        yield from particles.migrate(comm)
        rho, J = yield from particles.gather_moments(comm)
        yield from fields.calculate_B(comm, cfg.dt)
    fp = yield from _allreduced_fingerprint(comm, fields, particles, rho)
    return fp


# --------------------------------------------------------------------------
# C+B numeric apps: field ranks on the Cluster, particle ranks on Booster
# --------------------------------------------------------------------------
def _numeric_cluster_app(ctx: RankContext, cfg: XpicConfig, layout):
    """Field solver (Listing 2) with real numerics."""
    world = ctx.world
    inter = ctx.get_parent()
    partner = world.rank
    block = Block2D(cfg, layout, world.rank)
    fields = DistributedFields(block, cfg)
    rho, J = yield from inter.recv(source=partner, tag=TAG_NM0)
    for _ in range(cfg.steps):
        yield from fields.calculate_E(world, cfg.dt, rho, J)
        # ClusterToBooster: ship the extended E_theta and B (ghosts
        # filled, so the particle side needs no halo of its own)
        req = inter.isend(
            np.concatenate([fields.E_theta, fields.B], axis=0),
            dest=partner,
            tag=TAG_NF,
        )
        yield req.wait()
        rho, J = yield from inter.recv(source=partner, tag=TAG_NM)
        yield from fields.calculate_B(world, cfg.dt)
    fp = yield from _allreduced_fingerprint(world, fields, None, rho)
    # hand the field-side fingerprint to the booster side
    yield from inter.send(fp, dest=partner, tag=TAG_NM0)
    return fp


def _numeric_booster_app(
    ctx: RankContext, cfg: XpicConfig, layout, cluster_nodes: Sequence
):
    """Particle solver (Listing 3) with real numerics."""
    world = ctx.world
    inter = yield from world.spawn(
        lambda c: _numeric_cluster_app(c, cfg, layout),
        cluster_nodes,
        nprocs=world.size,
        name="xpic-numeric-fields",
        startup_cost_s=0.0,
    )
    partner = world.rank
    block = Block2D(cfg, layout, world.rank)
    particles = DistributedParticles(block, load_block_species(cfg, block))
    rho, J = yield from particles.gather_moments(world)
    yield from inter.send((rho, J), dest=partner, tag=TAG_NM0)
    for _ in range(cfg.steps):
        buf = yield from inter.recv(source=partner, tag=TAG_NF)
        particles.move(buf[:3], buf[3:], cfg.dt)
        yield from particles.migrate(world)
        rho, J = yield from particles.gather_moments(world)
        req = inter.isend((rho, J), dest=partner, tag=TAG_NM)
        yield req.wait()
    cluster_fp = yield from inter.recv(source=partner, tag=TAG_NM0)
    ke = yield from world.allreduce(particles.kinetic_energy_local())
    cluster_fp = dict(cluster_fp)
    cluster_fp["kinetic_energy"] = ke
    return cluster_fp


# --------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------
def run_numeric_experiment(
    machine: Machine,
    mode: Mode,
    config: XpicConfig,
    layout: Tuple[int, int] = (1, 1),
) -> Dict[str, float]:
    """Run the real physics in the given mode, block-decomposed as
    ``layout = (px, py)`` with one rank (one node) per block and per
    solver; returns the global fingerprint (identical across modes and
    layouts up to floating-point noise).

    Raises ``ValueError`` when a factor of ``layout`` is below 1 or the
    layout has more blocks than a module it runs on has nodes (C+B
    needs them on both modules)."""
    mode = Mode(mode)
    px, py = layout
    if px < 1 or py < 1:
        raise ValueError(f"layout {layout} needs factors of at least 1")
    n = px * py
    modules = []
    if mode is not Mode.BOOSTER:
        modules.append(("Cluster", machine.cluster))
    if mode is not Mode.CLUSTER:
        modules.append(("Booster", machine.booster))
    for name, nodes in modules:
        if n > len(nodes):
            raise ValueError(
                f"layout {layout} needs {n} nodes, but the {name} has "
                f"{len(nodes)}"
            )
    rt = MPIRuntime(machine)
    if mode in (Mode.CLUSTER, Mode.BOOSTER):
        nodes = machine.cluster[:n] if mode is Mode.CLUSTER else machine.booster[:n]
        results = rt.run_app(
            lambda c: _numeric_homogeneous_app(c, config, layout), nodes
        )
        return results[0]
    results = rt.run_app(
        lambda c: _numeric_booster_app(c, config, layout, machine.cluster[:n]),
        machine.booster[:n],
    )
    return results[0]
