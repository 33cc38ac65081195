"""Partitioned xPic drivers on the simulated Cluster-Booster machine.

Implements the three execution modes of the paper's evaluation
(section IV):

* ``CLUSTER`` — both solvers run on Cluster nodes (Listing 1 on CNs);
* ``BOOSTER`` — both solvers run on Booster nodes;
* ``CB``      — the Cluster-Booster mode of Listings 2/3: the particle
  solver runs on Booster nodes, spawns the field solver onto Cluster
  nodes via ``MPI_Comm_spawn``, and the two exchange interface buffers
  through the inter-communicator with non-blocking sends overlapped by
  auxiliary computations.

The drivers execute the *structure* of the main loop on the simulated
machine: compute phases are charged through the calibrated kernel cost
model, and every message crosses the fabric model at its physical size.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Sequence

from ...hardware.machine import Machine
from ...mpi import Bytes, Comm, MPIRuntime, RankContext
from ...partition import Partition
from ...sim.trace import Tracer
from .config import XpicConfig, table2_setup
from .workload import (
    IO_EVERY_STEPS,
    StepWorkload,
    build_workload,
    migration_nbytes,
)

if TYPE_CHECKING:
    from ...engine import ExperimentSpec

__all__ = [
    "Mode",
    "Placement",
    "RunResult",
    "config_of",
    "normalize_mode",
    "partition_of",
    "place",
    "run_experiment",
    "workload_of",
]

TAG_FIELDS = 101
TAG_MOMENTS = 102
TAG_MOMENTS_INIT = 103
TAG_TIMERS = 104


class Mode(str, enum.Enum):
    """Execution mode of the evaluation (Fig 7/8 series labels)."""

    CLUSTER = "Cluster"
    BOOSTER = "Booster"
    CB = "C+B"


_MODE_ALIASES = {
    "cluster": Mode.CLUSTER,
    "booster": Mode.BOOSTER,
    "cb": Mode.CB,
    "c+b": Mode.CB,
}


def normalize_mode(mode) -> Mode:
    """Accept a Mode, its value, or a case-insensitive alias ('cb')."""
    if isinstance(mode, Mode):
        return mode
    try:
        return Mode(mode)
    except ValueError:
        pass
    key = str(mode).strip().lower()
    if key in _MODE_ALIASES:
        return _MODE_ALIASES[key]
    raise ValueError(
        f"unknown mode {mode!r} (expected one of "
        f"{[m.value for m in Mode]} or {sorted(_MODE_ALIASES)})"
    )


@dataclass
class RankTimers:
    """Per-rank phase accounting."""

    fields: float = 0.0
    particles: float = 0.0
    inter_module_comm: float = 0.0
    start: float = 0.0
    end: float = 0.0


@dataclass
class RunResult:
    """Outcome of one experiment run (one bar/point of Fig 7/8)."""

    mode: Mode
    nodes_per_solver: int
    steps: int
    total_runtime: float
    fields_time: float
    particles_time: float
    inter_module_comm_time: float

    @property
    def comm_overhead_fraction(self) -> float:
        """Inter-module communication overhead relative to total time
        (the paper's "3% to 4% overhead per solver")."""
        if self.total_runtime == 0:
            return 0.0
        return self.inter_module_comm_time / self.total_runtime

    def energy_report(self, power_model=None):
        """Energy-to-solution of this run (section I: energy efficiency
        is the architecture's motivation).

        Homogeneous modes keep their nodes busy for the whole run; in
        C+B mode the Cluster nodes are busy only during the field
        phases (plus exchange) and idle while the Booster computes, and
        vice versa.
        """
        from ...hardware.node import NodeKind
        from ...perfmodel.power import PowerModel

        pm = power_model or PowerModel()
        n = self.nodes_per_solver
        T = self.total_runtime
        if self.mode is Mode.CLUSTER:
            busy = {NodeKind.CLUSTER: {f"cn{i:02d}": T for i in range(n)}}
        elif self.mode is Mode.BOOSTER:
            busy = {NodeKind.BOOSTER: {f"bn{i:02d}": T for i in range(n)}}
        else:
            cluster_busy = min(T, self.fields_time + self.inter_module_comm_time)
            booster_busy = min(T, self.particles_time + self.inter_module_comm_time)
            busy = {
                NodeKind.CLUSTER: {f"cn{i:02d}": cluster_busy for i in range(n)},
                NodeKind.BOOSTER: {f"bn{i:02d}": booster_busy for i in range(n)},
            }
        return pm.run_energy(T, busy)


def _exchange_transfer_time(ctx: RankContext, inter: Comm, partner: int, nbytes: int) -> float:
    """Modeled wire time of one inter-module interface-buffer exchange.

    Used for the "comm overhead per solver" accounting: the wait a rank
    observes on a recv also contains pipeline dependency (waiting for
    the other solver to *produce* the data), which is not communication
    overhead; the fabric's message cost is.
    """
    peer = inter.remote.proc(partner).node.node_id
    return ctx.runtime.fabric.transfer_time(peer, ctx.node.node_id, nbytes)


def _allreduce_latency_estimate(ctx: RankContext, comm: Comm) -> float:
    """Analytic cost of one small allreduce in this rank's group.

    Used to charge the CG dot-product reductions without simulating
    each of the ~60 per step as discrete events (one per step *is*
    simulated so skew stays emergent; the rest are charged here).
    """
    n = comm.size
    if n <= 1:
        return 0.0
    fabric = ctx.runtime.fabric
    peer = comm.group.proc((ctx.world.rank + 1) % n).node.node_id
    rounds = math.ceil(math.log2(n))
    return rounds * fabric.latency(ctx.node.node_id, peer)


def _field_phase(ctx, comm: Comm, wl: StepWorkload):
    """calculateE + intra-solver communication (halo + CG reductions)."""
    yield from ctx.execute(wl.field_kernel)
    n = comm.size
    if n > 1:
        up, down = (comm.rank + 1) % n, (comm.rank - 1) % n
        nbytes = wl.field_halo_nbytes
        yield from comm.sendrecv(
            None, dest=up, source=down, sendtag=1, recvtag=1, nbytes=nbytes
        )
        yield from comm.sendrecv(
            None, dest=down, source=up, sendtag=2, recvtag=2, nbytes=nbytes
        )
        yield from comm.allreduce(0.0)
        remaining = wl.field_allreduce_count - 1
        yield ctx.compute(remaining * _allreduce_latency_estimate(ctx, comm))


def _rank_particle_kernel(wl: StepWorkload, rank: int):
    """ParticlesMove + ParticleMoments of one rank, scaled by its load
    imbalance: the same kernel every step, so a driver builds it once."""
    return wl.particle_kernel.scaled(wl.imbalance_factor(rank))


def _moment_halo(ctx, comm: Comm, wl: StepWorkload):
    """Halo-add of boundary moment rows (needed before the field solve)."""
    n = comm.size
    if n > 1:
        up, down = (comm.rank + 1) % n, (comm.rank - 1) % n
        nbytes = wl.moment_halo_nbytes
        yield from comm.sendrecv(
            None, dest=up, source=down, sendtag=3, recvtag=3, nbytes=nbytes
        )
        yield from comm.sendrecv(
            None, dest=down, source=up, sendtag=4, recvtag=4, nbytes=nbytes
        )


def _migration(ctx, comm: Comm, wl: StepWorkload):
    """Exchange of particles that left the slab (next step's inputs)."""
    n = comm.size
    if n > 1:
        nbytes = migration_nbytes(wl)
        up, down = (comm.rank + 1) % n, (comm.rank - 1) % n
        yield from comm.sendrecv(
            None, dest=up, source=down, sendtag=5, recvtag=5, nbytes=nbytes
        )
        yield from comm.sendrecv(
            None, dest=down, source=up, sendtag=6, recvtag=6, nbytes=nbytes
        )


def _rebalance(ctx, comm: Comm, wl: StepWorkload, step: int):
    """Dynamic load balancing (extension): every ``rebalance_every``
    steps the hot slab ships its excess particles to a neighbour and
    the decomposition is recomputed (an allreduce of counts)."""
    n = comm.size
    if not wl.load_balanced or n == 1:
        return
    if (step + 1) % wl.rebalance_every != 0:
        return
    yield from comm.allreduce(0.0)  # agree on the new partition
    up = (comm.rank + 1) % n
    down = (comm.rank - 1) % n
    yield from comm.sendrecv(
        None, dest=up, source=down, sendtag=7, recvtag=7,
        nbytes=wl.rebalance_nbytes,
    )


# --------------------------------------------------------------------------
# Homogeneous modes: both solvers per step on the same allocation
# (the paper runs them sequentially on the same nodes; total = sum).
# --------------------------------------------------------------------------
def _homogeneous_app(
    ctx: RankContext, cfg: XpicConfig, wl: StepWorkload, resil=None
):
    comm = ctx.world
    particle_kernel = _rank_particle_kernel(wl, comm.rank)
    timers = RankTimers()
    yield from comm.barrier()
    timers.start = ctx.sim.now
    start_step = 0 if resil is None else resil.start_step
    for step in range(start_step, cfg.steps):
        # ---- field solver ------------------------------------------------
        t0 = ctx.sim.now
        yield from _field_phase(ctx, comm, wl)
        timers.fields += ctx.sim.now - t0
        # ---- particle solver ----------------------------------------------
        t0 = ctx.sim.now
        yield from ctx.execute(particle_kernel)
        yield from _moment_halo(ctx, comm, wl)
        yield from _migration(ctx, comm, wl)
        yield from _rebalance(ctx, comm, wl, step)
        # auxiliary computations, diagnostics and output — all on the
        # critical path, since the same nodes must run everything
        yield from ctx.execute(wl.aux_field_kernel)
        yield from ctx.execute(wl.aux_particle_kernel)
        yield from comm.allreduce(0.0)  # energy diagnostics reduction
        if (step + 1) % IO_EVERY_STEPS == 0:
            yield ctx.compute(wl.io_snapshot_time())
        timers.particles += ctx.sim.now - t0
        if resil is not None:
            yield from resil.maybe_checkpoint(ctx, step)
    timers.end = ctx.sim.now
    return timers


# --------------------------------------------------------------------------
# Cluster-Booster mode (Listings 2 and 3)
# --------------------------------------------------------------------------
def _rec(tracer, ctx, actor, label, t0):
    """Record a traced interval ending now (no-op without a tracer)."""
    if tracer is not None and ctx.sim.now > t0:
        tracer.record(actor, label, t0, ctx.sim.now)


def _cluster_field_app(
    ctx: RankContext,
    cfg: XpicConfig,
    wl: StepWorkload,
    overlap: bool = True,
    tracer: Tracer = None,
    resil=None,
):
    """Listing 2: the field solver, spawned onto the Cluster.

    ``overlap=False`` replaces the non-blocking exchange + overlapped
    auxiliary work with blocking sends (the overlap ablation).
    ``resil`` (a resilience hook, see the resilient driver) shifts the
    step loop to the restart step so both solvers resume in lock-step.
    """
    world = ctx.world
    inter = ctx.get_parent()
    partner = world.rank  # 1:1 pairing of cluster and booster ranks
    actor = f"CN{world.rank}"
    timers = RankTimers()
    # initial moments so the first calculateE has sources
    t0 = ctx.sim.now
    yield from inter.recv(source=partner, tag=TAG_MOMENTS_INIT)
    timers.inter_module_comm += ctx.sim.now - t0
    yield from world.barrier()
    timers.start = ctx.sim.now
    start_step = 0 if resil is None else resil.start_step
    for step in range(start_step, cfg.steps):
        # fld.solver->calculateE()
        t0 = ctx.sim.now
        yield from _field_phase(ctx, world, wl)
        timers.fields += ctx.sim.now - t0
        _rec(tracer, ctx, actor, "fields", t0)
        if overlap:
            # ClusterToBooster(): non-blocking send of the field buffer
            req = inter.isend(
                ctx.sim.now,
                dest=partner,
                tag=TAG_FIELDS,
                nbytes=wl.fields_exchange_nbytes,
            )
            # Auxiliary computations overlapped with the send (Listing 2)
            t0 = ctx.sim.now
            yield from ctx.execute(wl.aux_field_kernel)
            _rec(tracer, ctx, actor, "aux", t0)
            t0 = ctx.sim.now
            yield req.wait()  # ClusterWait(): unhidden part of the send
            timers.inter_module_comm += ctx.sim.now - t0
            _rec(tracer, ctx, actor, "xchg", t0)
            # Output: in C+B mode the Cluster side holds the complete
            # field and moment state and would otherwise idle while the
            # Booster pushes particles, so the snapshot I/O hides in
            # that window (one of the optimizations the partition
            # enables; homogeneous mode pays it on the critical path).
            if (step + 1) % IO_EVERY_STEPS == 0:
                t0 = ctx.sim.now
                yield ctx.compute(wl.io_snapshot_time())
                _rec(tracer, ctx, actor, "io", t0)
        else:
            # Ablation: no overlap — auxiliary work and output happen
            # before the (blocking) send, extending the Booster's wait
            # for the fields.
            yield from ctx.execute(wl.aux_field_kernel)
            if (step + 1) % IO_EVERY_STEPS == 0:
                yield ctx.compute(wl.io_snapshot_time())
            t0 = ctx.sim.now
            yield from inter.send(
                ctx.sim.now,
                dest=partner,
                tag=TAG_FIELDS,
                nbytes=wl.fields_exchange_nbytes,
            )
            timers.inter_module_comm += ctx.sim.now - t0
        # BoosterToCluster() + BoosterWait(): receive the moment buffer
        t0 = ctx.sim.now
        yield from inter.recv(source=partner, tag=TAG_MOMENTS)
        timers.inter_module_comm += _exchange_transfer_time(
            ctx, inter, partner, wl.moments_exchange_nbytes
        )
        _rec(tracer, ctx, actor, "wait", t0)
        # fld.solver->calculateB(): cheap curl update, part of the
        # field kernel accounting (folded into calculateE's kernel)
    timers.end = ctx.sim.now
    # ship this rank's timers to its booster partner for aggregation
    yield from inter.send(timers, dest=partner, tag=TAG_TIMERS, nbytes=64)
    return timers


def _booster_particle_app(
    ctx: RankContext,
    cfg: XpicConfig,
    wl: StepWorkload,
    cluster_nodes: Sequence,
    overlap: bool = True,
    tracer: Tracer = None,
    resil=None,
):
    """Listing 3: the particle solver on the Booster; spawns the
    field solver onto the Cluster (section IV-B approach (1))."""
    world = ctx.world
    cluster_app = lambda c: _cluster_field_app(  # noqa: E731
        c, cfg, wl, overlap=overlap, tracer=tracer, resil=resil
    )
    if resil is not None:
        # under fault injection the spawned solver must fail soft: its
        # aborts are collected by the supervisor, not crash the sim
        cluster_app = resil.wrap(cluster_app)
    inter = yield from world.spawn(
        cluster_app,
        cluster_nodes,
        nprocs=world.size,
        name="xpic-field-solver",
    )
    partner = world.rank
    actor = f"BN{world.rank}"
    particle_kernel = _rank_particle_kernel(wl, world.rank)
    timers = RankTimers()
    # send initial moments
    yield from inter.send(
        Bytes(wl.moments_exchange_nbytes), dest=partner, tag=TAG_MOMENTS_INIT
    )
    yield from world.barrier()
    timers.start = ctx.sim.now
    start_step = 0 if resil is None else resil.start_step
    for step in range(start_step, cfg.steps):
        # ClusterToBooster() + ClusterWait(): receive fields.  The
        # transfer cost is comm overhead; any wait beyond that is the
        # pipeline dependency on the field solve, accounted to neither
        # solver.
        t0 = ctx.sim.now
        yield from inter.recv(source=partner, tag=TAG_FIELDS)
        timers.inter_module_comm += _exchange_transfer_time(
            ctx, inter, partner, wl.fields_exchange_nbytes
        )
        _rec(tracer, ctx, actor, "wait", t0)
        # pcl.cpyFromArr_F(); ParticlesMove(); ParticleMoments()
        t0 = ctx.sim.now
        yield from ctx.execute(particle_kernel)
        # moment halo-add must complete before moments are shipped
        yield from _moment_halo(ctx, world, wl)
        timers.particles += ctx.sim.now - t0
        _rec(tracer, ctx, actor, "particles", t0)
        if overlap:
            # BoosterToCluster(): non-blocking send of the moment buffer
            req = inter.isend(
                ctx.sim.now,
                dest=partner,
                tag=TAG_MOMENTS,
                nbytes=wl.moments_exchange_nbytes,
            )
            # I/O and auxiliary computations overlapped (Listing 3), and
            # the particle solver's own migration exchange also overlaps
            # the cluster's next field solve
            t0 = ctx.sim.now
            yield from ctx.execute(wl.aux_particle_kernel)
            yield from _migration(ctx, world, wl)
            yield from world.allreduce(0.0)  # kinetic-energy diagnostics
            _rec(tracer, ctx, actor, "aux", t0)
            t0 = ctx.sim.now
            yield req.wait()  # BoosterWait()
            timers.inter_module_comm += ctx.sim.now - t0
            _rec(tracer, ctx, actor, "xchg", t0)
        else:
            # Ablation: no overlap — the solver's own migration and
            # auxiliary work run *before* the moments are shipped, so
            # they land on the cluster's critical path.
            yield from ctx.execute(wl.aux_particle_kernel)
            yield from _migration(ctx, world, wl)
            yield from world.allreduce(0.0)
            t0 = ctx.sim.now
            yield from inter.send(
                ctx.sim.now,
                dest=partner,
                tag=TAG_MOMENTS,
                nbytes=wl.moments_exchange_nbytes,
            )
            timers.inter_module_comm += ctx.sim.now - t0
        if resil is not None:
            yield from resil.maybe_checkpoint(ctx, step)
    timers.end = ctx.sim.now
    cluster_timers = yield from inter.recv(source=partner, tag=TAG_TIMERS)
    return (timers, cluster_timers)


# --------------------------------------------------------------------------
# Experiment runner
# --------------------------------------------------------------------------
@dataclass
class Placement:
    """A partition placed on concrete nodes.

    ``launch`` holds the nodes the job starts its ranks on (the particle
    solver, and the ranks that checkpoint); ``spawn`` the nodes those
    ranks spawn the field solver onto, empty for a homogeneous run.
    """

    partition: Partition
    launch: List
    spawn: List

    @property
    def mode(self) -> Mode:
        """The execution mode the partition runs in."""
        return Mode(self.partition.mode)

    @property
    def ranks(self) -> int:
        """Width of each solver side."""
        return self.partition.nodes_per_solver

    @property
    def overlap(self) -> bool:
        """Whether the spawned pair overlaps its exchange (a nested
        layout takes its arm's knob)."""
        return (self.partition.arm or self.partition).overlap

    def app(self, cfg: XpicConfig, wl: StepWorkload, tracer=None, resil=None):
        """The rank program the launch nodes run."""
        if self.spawn:
            return lambda c: _booster_particle_app(
                c, cfg, wl, self.spawn, overlap=self.overlap, tracer=tracer,
                resil=resil,
            )
        return lambda c: _homogeneous_app(c, cfg, wl, resil=resil)

    def result(self, steps: int, values: Sequence) -> RunResult:
        """Critical-path aggregation of the launch ranks' return values
        (their timers, paired with their spawned partner's)."""
        if self.spawn:
            return _aggregate(
                self.mode, self.ranks, steps,
                [v[0] for v in values], [v[1] for v in values],
            )
        return _aggregate(self.mode, self.ranks, steps, values, [])


def partition_of(spec: ExperimentSpec) -> Partition:
    """The partition ``spec`` runs: its nested ``partition`` when set,
    else the one its flat fields describe."""
    if spec.partition is not None:
        return Partition.from_dict(spec.partition)
    n = spec.nodes_per_solver
    if spec.mode == Mode.CB:
        return Partition(
            n, n, overlap=spec.overlap, swap_placement=spec.swap_placement
        )
    return Partition(n, 0) if spec.mode == Mode.CLUSTER else Partition(0, n)


def config_of(spec: ExperimentSpec) -> XpicConfig:
    """The xPic configuration ``spec`` runs: its ``config``, else
    Table II at ``spec.steps`` seeded with ``spec.seed``."""
    if spec.config is not None:
        return spec.config
    cfg = table2_setup(steps=spec.steps)
    return cfg if cfg.seed == spec.seed else replace(cfg, seed=spec.seed)


def place(machine: Machine, partition: Partition) -> Placement:
    """Place ``partition`` on the machine's healthy nodes, taking each
    pool in order.

    C+B launches the particle solver on the Booster and spawns the
    field solver onto the Cluster (``swap_placement`` inverts that).  A
    nested homogeneous layout (``2k`` same-kind nodes with a ``k+k``
    arm) reuses that split topology inside one pool: field ranks on the
    first ``k`` nodes, particle ranks on the last ``k``.
    """
    cluster = [nd for nd in machine.cluster if not nd.failed]
    booster = [nd for nd in machine.booster if not nd.failed]
    if partition.mode == "C+B":
        n = partition.cluster_nodes
        if len(cluster) < n or len(booster) < n:
            raise ValueError("not enough nodes for C+B mode")
        spawn, launch = cluster[:n], booster[:n]
        if partition.swap_placement:
            spawn, launch = launch, spawn
        return Placement(partition, launch, spawn)
    pool = cluster if partition.mode == "Cluster" else booster
    need = partition.total_nodes
    if len(pool) < need:
        raise ValueError(
            f"machine has only {len(pool)} healthy {partition.mode} "
            f"nodes but {partition.label()!r} needs {need}"
        )
    if partition.is_nested:
        k = partition.arm.cluster_nodes
        return Placement(partition, pool[k:need], pool[:k])
    return Placement(partition, pool[:need], [])


def workload_of(spec: ExperimentSpec, placement: Placement) -> StepWorkload:
    """The per-rank step workload of ``spec`` at the placement's width."""
    kwargs = {"load_balanced": spec.load_balanced}
    if spec.imbalance_alpha is not None:
        kwargs["imbalance_alpha"] = spec.imbalance_alpha
    return build_workload(config_of(spec), placement.ranks, **kwargs)


def run_experiment(
    machine: Machine,
    spec: ExperimentSpec,
    runtime: Optional[MPIRuntime] = None,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """Run the xPic experiment ``spec`` describes on ``machine`` and
    return its timing breakdown.

    The spec's partition (:func:`partition_of`) is placed on healthy
    nodes by :func:`place`: ``nodes_per_solver`` follows Fig 8's
    x-axis (homogeneous modes use that many nodes total; C+B that many
    Cluster nodes *and* that many Booster nodes), ``overlap=False``
    disables C+B's non-blocking exchange, ``swap_placement=True``
    inverts the C+B placement (the ablations), and a nested
    ``partition`` co-schedules both solvers in one pool.
    """
    placement = place(machine, partition_of(spec))
    config = config_of(spec)
    wl = workload_of(spec, placement)
    rt = runtime if runtime is not None else MPIRuntime(machine)
    if rt.machine is not machine:
        raise ValueError("runtime belongs to a different machine")
    values = rt.run_app(placement.app(config, wl, tracer), placement.launch)
    return placement.result(config.steps, values)


def _aggregate(
    mode: Mode,
    n: int,
    steps: int,
    primary: List[RankTimers],
    secondary: List[RankTimers],
) -> RunResult:
    """Critical-path aggregation of per-rank timers into a RunResult."""
    everyone = list(primary) + list(secondary)
    start = min(t.start for t in everyone)
    end = max(t.end for t in everyone)
    fields = max(t.fields for t in everyone)
    particles = max(t.particles for t in everyone)
    comm = max((t.inter_module_comm for t in everyone), default=0.0)
    return RunResult(
        mode=mode,
        nodes_per_solver=n,
        steps=steps,
        total_runtime=end - start,
        fields_time=fields,
        particles_time=particles,
        inter_module_comm_time=comm,
    )
