"""Workload accounting for the xPic performance experiments.

For the benchmark runs (Figs 7 and 8) the driver executes the xPic main
loop *structurally* on the simulated machine: every phase is charged
through the calibrated kernel cost model and every message crosses the
fabric model with its physical size.  This module derives those per-rank
work and message quantities from a run configuration and a node count
(strong scaling over row slabs, as in the paper's Fig 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...perfmodel import Kernel, field_kernel, particle_kernel
from ...perfmodel.calibration import CG_ITERS_PER_STEP, PARTICLE_STATE_BYTES
from .config import XpicConfig

__all__ = [
    "StepWorkload",
    "build_workload",
    "LOAD_IMBALANCE_ALPHA",
    "fields_nbytes",
    "moments_nbytes",
]

#: Growth rate of particle-solver load imbalance with node count:
#: imbalance(n) = 1 + alpha * log2(n).  Spatially clustering plasma makes
#: equal-area slabs carry unequal particle counts at scale.
LOAD_IMBALANCE_ALPHA = 0.03

#: Fraction of a solver's compute time spent in overlappable auxiliary
#: computations (energy diagnostics, post-processing; Listing 2/3 lines
#: "Auxiliary computations" / "I/O and auxiliary computations").
AUX_FRACTION = 0.03

#: The Implicit Moment Method's field solve consumes the full moment
#: set: charge density, current (3) and the pressure tensor (6) per
#: species [Markidis et al. 2010], so the Booster->Cluster interface
#: buffer carries 10 moments per species per cell.
IMM_MOMENTS_PER_SPECIES = 10

#: Output snapshot cadence (steps between field/moment dumps).
IO_EVERY_STEPS = 10

#: Aggregate bandwidth of the storage servers (section II-B: two
#: BeeGFS storage servers on spinning disks).
STORAGE_AGG_BW_BPS = 2.0e9

#: Metadata-server cost per task-local file operation.  Task-local
#: output makes this grow linearly with rank count — the exact
#: bottleneck SIONlib exists to remove (section III-C).
METADATA_OP_S = 0.8e-3


@dataclass(frozen=True)
class StepWorkload:
    """Per-rank, per-step work and message sizes for one run setup."""

    nodes_per_solver: int
    cells_per_rank: int
    particles_per_rank: int
    field_kernel: Kernel
    particle_kernel: Kernel
    aux_field_kernel: Kernel
    aux_particle_kernel: Kernel
    #: field-solver halo traffic per step, aggregated over CG iterations
    field_halo_nbytes: int
    #: number of latency-bound rounds in the field solve per step
    #: (dot-product allreduces: 2 per CG iteration)
    field_allreduce_count: int
    #: particles leaving a slab per step, per boundary
    migrants_per_boundary: int
    #: moment halo-add exchange per step (one row of rho + J)
    moment_halo_nbytes: int
    #: interface buffers crossing Cluster<->Booster each step (C+B mode)
    fields_exchange_nbytes: int
    moments_exchange_nbytes: int
    #: per-rank output volume of one snapshot (fields + moments)
    io_snapshot_nbytes: int = 0
    #: dynamic load balancing (extension): equalize particle counts by
    #: periodically re-partitioning slabs, trading imbalance for
    #: repartition traffic
    load_balanced: bool = False
    rebalance_every: int = 20
    rebalance_nbytes: int = 0
    #: imbalance growth rate in effect for this workload
    imbalance_alpha: float = LOAD_IMBALANCE_ALPHA

    def io_snapshot_time(self) -> float:
        """Wall time of one task-local snapshot write.

        The global volume streams at the storage servers' aggregate
        bandwidth; every rank's file open/close serializes at the
        metadata server, so the per-snapshot cost grows with rank count
        (the task-local-I/O pathology SIONlib addresses).
        """
        n = self.nodes_per_solver
        stream = n * self.io_snapshot_nbytes / STORAGE_AGG_BW_BPS
        metadata = n * METADATA_OP_S
        return stream + metadata

    def imbalance_factor(self, rank: int) -> float:
        """Per-rank particle-load multiplier (mean 1 across ranks).

        With dynamic load balancing enabled the slabs track the plasma
        and every rank carries the mean load.
        """
        n = self.nodes_per_solver
        if n == 1 or self.load_balanced:
            return 1.0
        peak = 1.0 + self.imbalance_alpha * math.log2(n)
        if rank == 0:
            return peak
        return (n - peak) / (n - 1)


def fields_nbytes(cells: int) -> int:
    """Wire size of the packed field buffer for ``cells`` grid cells
    (:func:`.interface.pack_fields`: E and B, six float64 per cell)."""
    return 6 * cells * 8


def moments_nbytes(cells: int) -> int:
    """Wire size of the packed moment buffer for ``cells`` grid cells
    (:func:`.interface.pack_moments`: rho and J, four float64 per cell)."""
    return 4 * cells * 8


def build_workload(
    config: XpicConfig,
    nodes_per_solver: int,
    load_balanced: bool = False,
    imbalance_alpha: float = LOAD_IMBALANCE_ALPHA,
) -> StepWorkload:
    """Derive the per-rank step workload for ``nodes_per_solver`` nodes.

    Strong scaling: the global Table II problem is split into row slabs,
    one rank (one node) per slab and per solver.  ``load_balanced``
    enables the dynamic repartitioning extension.
    """
    n = nodes_per_solver
    if n < 1:
        raise ValueError("need at least one node per solver")
    if config.ny % n != 0:
        raise ValueError(f"ny={config.ny} not divisible by {n} slabs")
    cells_rank = config.cells // n
    particles_rank = config.total_particles // n

    fk = field_kernel(cells_rank, steps=1)
    pk = particle_kernel(particles_rank, steps=1)

    # Halo: one boundary row (nx nodes) of 3 components, both directions,
    # per CG iteration, 8-byte reals.
    halo_row = config.nx * 3 * 8
    field_halo = halo_row * CG_ITERS_PER_STEP if n > 1 else 0

    # Migration: particles within one step's travel of a slab boundary.
    # Travel depth ~ thermal velocity x dt; slab height ly/n.
    vth = max(s.thermal_velocity for s in config.species)
    depth = min(vth * config.dt, config.ly / n)
    migrants = int(particles_rank * depth / (config.ly / n) / 2) if n > 1 else 0

    moment_halo = config.nx * 4 * 8 if n > 1 else 0

    return StepWorkload(
        nodes_per_solver=n,
        cells_per_rank=cells_rank,
        particles_per_rank=particles_rank,
        field_kernel=fk,
        particle_kernel=pk,
        aux_field_kernel=fk.scaled(AUX_FRACTION),
        aux_particle_kernel=pk.scaled(AUX_FRACTION),
        field_halo_nbytes=field_halo,
        field_allreduce_count=2 * CG_ITERS_PER_STEP,
        migrants_per_boundary=migrants,
        moment_halo_nbytes=moment_halo,
        fields_exchange_nbytes=fields_nbytes(cells_rank),
        moments_exchange_nbytes=IMM_MOMENTS_PER_SPECIES
        * config.nspec
        * cells_rank
        * 8,
        io_snapshot_nbytes=(6 + IMM_MOMENTS_PER_SPECIES * config.nspec)
        * cells_rank
        * 8,
        load_balanced=load_balanced,
        # repartition ships the excess particles off the hot rank: the
        # imbalance fraction of its load, amortized over the window
        rebalance_nbytes=int(
            imbalance_alpha
            * math.log2(max(n, 2))
            * particles_rank
            * PARTICLE_STATE_BYTES
        )
        if (load_balanced and n > 1)
        else 0,
        imbalance_alpha=imbalance_alpha,
    )


def migration_nbytes(workload: StepWorkload) -> int:
    """Wire size of one boundary's migration message."""
    return workload.migrants_per_boundary * PARTICLE_STATE_BYTES
