"""Seismic FDTD on the simulated machine: the monolithic counterpoint.

Three placements are modelled:

* whole code on the Cluster;
* whole code on the Booster (where the stream-bound stencil belongs);
* a (deliberately wrong-headed) Cluster-Booster split that ships the
  wavefield across the fabric every step — what partitioning costs
  when an application has *no* separable phases.

The paper's point, quantified: modularity helps applications whose
parts have different characters; monolithic codes should just pick
their best module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ...hardware.machine import Machine
from ...mpi import Bytes, MPIRuntime, RankContext
from ...perfmodel import AccessPattern, Kernel

__all__ = ["SeismicPlacement", "SeismicResult", "run_seismic"]

TAG_FIELD = 301

#: Work of one cell update of :meth:`.kernel.AcousticWave2D.step`: the
#: 5-point stencil, update and sponge take ~12 flops, and three
#: full-grid arrays stream through memory (7 reads and writes of 8 B).
FLOPS_PER_CELL_STEP = 12.0
BYTES_PER_CELL_STEP = 7 * 8.0


class SeismicPlacement(str, enum.Enum):
    CLUSTER = "Cluster"
    BOOSTER = "Booster"
    SPLIT = "Split"  # wavefield ping-pongs between modules each step


@dataclass
class SeismicResult:
    placement: SeismicPlacement
    nodes: int
    steps: int
    total_runtime: float
    comm_time: float

    @property
    def comm_fraction(self) -> float:
        """Share of the runtime spent in inter-module communication."""
        return self.comm_time / self.total_runtime if self.total_runtime else 0.0


def stencil_kernel(cells: int, steps: int = 1) -> Kernel:
    """The FDTD sweep: perfectly parallel, unit-stride STREAM access."""
    return Kernel(
        name="seismic.fdtd",
        flops=FLOPS_PER_CELL_STEP * cells * steps,
        bytes_mem=BYTES_PER_CELL_STEP * cells * steps,
        parallel_fraction=1.0,
        vector_fraction=1.0,
        access=AccessPattern.STREAM,
        working_set_bytes=int(3 * 8 * cells) or 1,
    )


def _monolithic_app(ctx: RankContext, cells: int, steps: int, halo_nbytes: int):
    comm = ctx.world
    n = comm.size
    kernel = stencil_kernel(cells // n)
    comm_time = 0.0
    for _ in range(steps):
        yield from ctx.execute(kernel)
        if n > 1:
            t0 = ctx.sim.now
            up, down = (comm.rank + 1) % n, (comm.rank - 1) % n
            yield from comm.sendrecv(
                Bytes(halo_nbytes), dest=up, source=down, sendtag=1, recvtag=1
            )
            yield from comm.sendrecv(
                Bytes(halo_nbytes), dest=down, source=up, sendtag=2, recvtag=2
            )
            comm_time += ctx.sim.now - t0
    return comm_time


def _split_parent_app(
    ctx: RankContext, cells: int, steps: int, peer_nodes, field_nbytes: int
):
    """Half the stencil work per module, full wavefield shipped twice a
    step — the anti-pattern for a tightly coupled kernel."""
    world = ctx.world

    def child(cctx):
        parent = cctx.get_parent()
        kernel = stencil_kernel(cells // 2)
        for _ in range(steps):
            yield from parent.recv(source=cctx.world.rank, tag=TAG_FIELD)
            yield from cctx.execute(kernel)
            yield from parent.send(
                Bytes(field_nbytes), dest=cctx.world.rank, tag=TAG_FIELD
            )

    inter = yield from world.spawn(
        child, peer_nodes, nprocs=world.size, startup_cost_s=0.0
    )
    kernel = stencil_kernel(cells // 2)
    comm_time = 0.0
    for _ in range(steps):
        yield from ctx.execute(kernel)
        t0 = ctx.sim.now
        yield from inter.send(
            Bytes(field_nbytes), dest=world.rank, tag=TAG_FIELD
        )
        yield from inter.recv(source=world.rank, tag=TAG_FIELD)
        comm_time += ctx.sim.now - t0
    return comm_time


def run_seismic(
    machine: Machine,
    placement: SeismicPlacement,
    cells: int = 4096 * 16,
    steps: int = 200,
    nodes: int = 1,
    runtime: Optional[MPIRuntime] = None,
) -> SeismicResult:
    """Run the seismic workload under one placement."""
    placement = SeismicPlacement(placement)
    rt = runtime if runtime is not None else MPIRuntime(machine)
    halo_nbytes = int((cells**0.5)) * 8 * 3  # one row of three arrays

    if placement in (SeismicPlacement.CLUSTER, SeismicPlacement.BOOSTER):
        pool = (
            machine.cluster if placement is SeismicPlacement.CLUSTER
            else machine.booster
        )
        start = machine.sim.now
        comm_times = rt.run_app(
            lambda c: _monolithic_app(c, cells, steps, halo_nbytes),
            pool[:nodes],
        )
        return SeismicResult(
            placement, nodes, steps, machine.sim.now - start, max(comm_times)
        )

    field_nbytes = cells * 8  # the whole wavefield crosses per handoff
    start = machine.sim.now
    comm_times = rt.run_app(
        lambda c: _split_parent_app(
            c, cells, steps, machine.cluster[:nodes], field_nbytes
        ),
        machine.booster[:nodes],
    )
    return SeismicResult(
        placement, nodes, steps, machine.sim.now - start, max(comm_times)
    )
