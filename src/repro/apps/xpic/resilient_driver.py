"""Resilient xPic drivers: checkpoint/restart under live fault injection.

Two layers close the loop between the application and the resiliency
stack:

* :func:`run_resilient` — the *numeric* simulation: actual physics
  state (particles, fields, moments) is captured into SCR buddy
  checkpoints at its true byte size, a node failure wipes the in-memory
  state, and the run resumes from the restored payload — on a spare
  node — producing *bit-identical* physics to an uninterrupted run.

* :func:`run_resilient_experiment` — the epoch supervisor: the
  *modeled* partitioned drivers of :mod:`.driver` run through
  crash/recovery epochs.  A
  :class:`~repro.resiliency.inject.FaultInjector` kills nodes and links
  mid-run, every rank aborts (ParaStation-style global job abort), the
  supervisor restores the newest checkpoint level that survived and
  re-runs the remaining steps on a recovered placement.  One loop
  serves both recovery strategies: *heal* (swap spares in, or reboot,
  degrading C+B to a homogeneous-Cluster run when the Booster
  partition becomes unreachable) and *re-tune* (the malleable model
  search of :mod:`repro.resiliency.malleable`).  Lost/rework time is
  quantified in the returned resiliency report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ...hardware.machine import Machine
from ...io.beegfs import BeeGFS
from ...mpi import FAULT_RUN_POLICY, MPIRuntime
from ...mpi.datatypes import payload_nbytes
from ...mpi.errors import TransportError
from ...nam.device import NAMDevice
from ...network.fabric import NodeFailedError, NoRouteError
from ...partition import Partition
from ...perfmodel import field_kernel, particle_kernel, time_on_node
from ...perfmodel.calibration import PARTICLE_STATE_BYTES
from ...resiliency import (
    SCR,
    CheckpointLevel,
    FaultInjector,
    FaultPlan,
    optimal_interval,
)
from ...resiliency.malleable import MalleabilityPolicy, retune
from ...sim import Interrupt
from ...sim.events import AllOf
from .config import XpicConfig
from .driver import (
    Mode,
    Placement,
    config_of,
    partition_of,
    place,
    workload_of,
)

if TYPE_CHECKING:
    from ...engine import ExperimentSpec
    from .simulation import XpicSimulation

__all__ = [
    "capture_state",
    "restore_state",
    "run_resilient",
    "ResilientRunResult",
    "ResilienceHooks",
    "run_resilient_experiment",
]

#: a rank hitting any of these mid-epoch is a *recoverable* job abort
ABORT_EXCEPTIONS = (
    Interrupt,
    TransportError,
    NodeFailedError,
    NoRouteError,
)

#: epochs (the first launch plus its relaunches) a job may take before
#: the supervisor gives up on it
MAX_EPOCHS = 200


def capture_state(sim: XpicSimulation) -> Dict:
    """Snapshot everything needed to restart the simulation."""
    return {
        "step_count": sim.step_count,
        "E": sim.fields.E.copy(),
        "B": sim.fields.B.copy(),
        "E_theta": sim.fields.E_theta.copy(),
        "rho": sim.rho.copy(),
        "J": sim.J.copy(),
        "species": [
            {"x": sp.x.copy(), "y": sp.y.copy(), "v": sp.v.copy(),
             "weight": sp.weight}
            for sp in sim.species
        ],
    }


def restore_state(sim: XpicSimulation, state: Dict) -> None:
    """Load a captured snapshot back into a (fresh) simulation."""
    sim.step_count = state["step_count"]
    sim.fields.E = state["E"].copy()
    sim.fields.B = state["B"].copy()
    sim.fields.E_theta = state["E_theta"].copy()
    sim.rho = state["rho"].copy()
    sim.J = state["J"].copy()
    if len(state["species"]) != len(sim.species):
        raise ValueError("species mismatch between snapshot and simulation")
    for sp, saved in zip(sim.species, state["species"]):
        sp.x = saved["x"].copy()
        sp.y = saved["y"].copy()
        sp.v = saved["v"].copy()
        sp.weight = saved["weight"]


@dataclass
class ResilientRunResult:
    """Outcome of a resilient run."""

    fingerprint: Dict[str, float]
    steps_completed: int
    checkpoints_written: int
    failed: bool
    restarted_from_step: Optional[int]
    wall_time_s: float
    checkpoint_nbytes: int


def run_resilient(
    machine: Machine,
    config: XpicConfig,
    ckpt_every: int = 5,
    fail_at_step: Optional[int] = None,
) -> ResilientRunResult:
    """Run the numeric simulation with SCR buddy checkpointing.

    The physics executes for real; per-step wall time is charged from
    the kernel cost model on the executing Booster node.  If
    ``fail_at_step`` is set, the node dies right after that step: the
    run restarts on a spare node from the newest buddy checkpoint and
    continues to completion.
    """
    if ckpt_every < 1:
        raise ValueError("ckpt_every must be >= 1")
    if fail_at_step is not None and not 0 < fail_at_step < config.steps:
        raise ValueError("fail_at_step must fall inside the run")
    from .simulation import XpicSimulation

    nodes = machine.booster[:2]  # rank 0 + its buddy
    spare = machine.booster[2]
    scr = SCR(machine.sim, nodes, machine.fabric)
    sim_app = XpicSimulation(config)
    step_cost = time_on_node(
        nodes[0], particle_kernel(config.total_particles)
    ) + time_on_node(nodes[0], field_kernel(config.cells))
    state = {
        "failed": False,
        "restart_step": None,
        "ckpts": 0,
        "nbytes": 0,
    }

    def job(sim):
        nonlocal sim_app
        step = 0
        while step < config.steps:
            yield sim.timeout(step_cost)
            sim_app.step()
            step += 1
            if step % ckpt_every == 0:
                payload = capture_state(sim_app)
                nbytes = payload_nbytes(payload)
                state["nbytes"] = nbytes
                yield from scr.checkpoint(
                    0, step=step, nbytes=nbytes,
                    level=CheckpointLevel.BUDDY, payload=payload,
                )
                state["ckpts"] += 1
            if fail_at_step is not None and step == fail_at_step and not state["failed"]:
                # the node dies: in-memory state and local NVMe gone
                nodes[0].fail()
                state["failed"] = True
                sim_app = XpicSimulation(config)  # cold process on spare
                restart_step = scr.latest_restartable_step([0])
                if restart_step is None:
                    raise RuntimeError("failure before the first checkpoint")
                yield from scr.restart(0, step=restart_step, onto=spare)
                restore_state(sim_app, scr.last_restored_payload)
                scr.replace_node(0, spare)
                state["restart_step"] = restart_step
                step = restart_step

        return sim_app.state_fingerprint()

    t0 = machine.sim.now
    fp = machine.sim.run_process(job(machine.sim))
    return ResilientRunResult(
        fingerprint=fp,
        steps_completed=config.steps,
        checkpoints_written=state["ckpts"],
        failed=state["failed"],
        restarted_from_step=state["restart_step"],
        wall_time_s=machine.sim.now - t0,
        checkpoint_nbytes=state["nbytes"],
    )


# --------------------------------------------------------------------------
# Fault-injected modeled experiments (epoch supervisor)
# --------------------------------------------------------------------------
class ResilienceHooks:
    """Per-epoch glue between the modeled drivers and the SCR manager.

    Handed to the :mod:`.driver` apps as their ``resil`` argument: it
    tells each rank where to resume (``start_step``), decides — once
    per step, for all ranks consistently — whether the Young/Daly
    cadence calls for a checkpoint, and wraps rank generators so that
    faults turn into collectable abort markers instead of simulator
    crashes.  With no checkpoint interval configured,
    :meth:`maybe_checkpoint` yields nothing at all.
    """

    def __init__(self, scr: SCR, start_step: int, ckpt_nbytes: int):
        self.scr = scr
        self.start_step = start_step
        self.ckpt_nbytes = ckpt_nbytes
        #: step -> whether that step ends with a checkpoint (the first
        #: rank to reach the step decides for everyone, so checkpoint
        #: sets stay aligned across ranks)
        self._decisions: Dict[int, bool] = {}
        #: step -> slowest rank's checkpoint duration (job-level cost)
        self.round_costs: Dict[int, float] = {}
        #: sim times at which wrapped ranks aborted
        self.abort_times: List[float] = []

    def maybe_checkpoint(self, ctx, step: int):
        """Checkpoint this rank at the end of ``step`` if it is time."""
        if self.scr.checkpoint_interval_s is None:
            return
        decision = self._decisions.get(step)
        if decision is None:
            decision = self.scr.need_checkpoint()
            self._decisions[step] = decision
        if not decision:
            return
        rank = ctx.world.rank
        t0 = ctx.sim.now
        yield from self.scr.checkpoint(
            rank, step=step + 1, nbytes=self.ckpt_nbytes
        )
        cost = ctx.sim.now - t0
        self.round_costs[step + 1] = max(
            self.round_costs.get(step + 1, 0.0), cost
        )

    def wrap(self, app_fn):
        """Fail-soft wrapper: returns ``("ok", result)`` or
        ``("aborted", exception)`` instead of crashing the simulator.
        The exception comes without its traceback, whose frames would
        hold the rank's locals, and with them the whole machine, in a
        reference cycle until a generation-2 collection."""

        def wrapped(ctx):
            try:
                result = yield from app_fn(ctx)
            except ABORT_EXCEPTIONS as exc:
                self.abort_times.append(ctx.sim.now)
                return ("aborted", exc.with_traceback(None))
            return ("ok", result)

        return wrapped


def _estimate_ckpt_nbytes(wl) -> int:
    """Per-rank restart state: particle state + field/moment arrays."""
    return int(
        wl.particles_per_rank * PARTICLE_STATE_BYTES + wl.io_snapshot_nbytes
    )


def _estimate_ckpt_cost_s(scr: SCR, nbytes: int) -> float:
    """Analytic cost of one buddy checkpoint (feeds Young/Daly)."""
    node = scr.nodes[0]
    cost = node.nvme.write_time(nbytes) if node.nvme else nbytes / 1e9
    if len(scr.nodes) > 1:
        buddy = scr.nodes[1]
        cost += scr.fabric.transfer_time(
            node.node_id, buddy.node_id, nbytes
        )
        if buddy.nvme:
            cost += buddy.nvme.write_time(nbytes)
    return cost


def _drain(sim, rt, injector) -> None:
    """Run the event loop to quiescence, absorbing transport failures.

    Library helper processes (e.g. the collective isends a communicator
    spawns internally) are not registered with the runtime, so when a
    node crash kills their transfer mid-flight the failure escapes
    ``sim.run`` instead of reaching a supervised rank.  The epoch is
    lost either way: absorb the failure, abort any ranks still live,
    and keep draining until the queue is quiet.
    """
    while True:
        try:
            sim.run()
            return
        except ABORT_EXCEPTIONS:
            injector.stop()
            for p in rt.live_processes():
                p.interrupt(cause="epoch aborted")


def _make_scr(machine: Machine, placement: Placement) -> SCR:
    """SCR over the launch ranks, plus a buddy spare for a 1-node job."""
    scr_nodes = list(placement.launch)
    if len(scr_nodes) == 1:
        buddy = next(
            (
                nd
                for nd in machine.nodes_of_kind(scr_nodes[0].kind)
                if nd not in scr_nodes and nd not in placement.spawn
                and not nd.failed
            ),
            None,
        )
        if buddy is not None:
            scr_nodes.append(buddy)
    fs = BeeGFS(machine) if machine.storage else None
    nam = NAMDevice(machine, machine.nams[0]) if machine.nams else None
    return SCR(machine.sim, scr_nodes, machine.fabric, fs=fs, nam=nam)


def _heal(
    machine: Machine,
    placement: Placement,
    scr: SCR,
    reserved: Sequence,
    allow_reboot: bool,
    stats: dict,
) -> Placement:
    """The heal recovery: swap a healthy node of the same kind in for
    each dead one (never one of ``reserved``), else reboot it in place
    (its NVMe contents stay lost), else — C+B only, or when the Booster
    is unreachable — degrade to a homogeneous Cluster run on the field
    solver's nodes.  Returns the placement to relaunch on."""

    def heal(nodes: List) -> bool:
        for rank, node in enumerate(nodes):
            if not node.failed:
                continue
            spare = next(
                (
                    nd
                    for nd in machine.nodes_of_kind(node.kind)
                    if not nd.failed
                    and nd not in placement.launch
                    and nd not in placement.spawn
                    and nd not in reserved
                ),
                None,
            )
            if spare is not None:
                nodes[rank] = spare
                if nodes is placement.launch:
                    scr.replace_node(rank, spare)
                stats["node_replacements"] += 1
            elif allow_reboot:
                machine.fabric.restore_node(node.node_id)
                stats["reboots"] += 1
            else:
                return False
        return True

    def reachable() -> bool:
        try:
            machine.fabric.directed_route(
                placement.spawn[0].node_id, placement.launch[0].node_id
            )
        except NoRouteError:
            return False
        return True

    healed = heal(placement.launch)
    if placement.spawn:
        healed = heal(placement.spawn) and healed
    if placement.mode is Mode.CB and (not healed or not reachable()):
        stats["degraded_mode"] = True
        if not heal(placement.spawn):
            raise RuntimeError("no healthy Cluster nodes to degrade onto")
        placement = Placement(Partition(placement.ranks, 0), placement.spawn, [])
        for rank, node in enumerate(placement.launch):
            scr.replace_node(rank, node)
    elif not healed:
        raise RuntimeError("no healthy nodes left to restart the job on")
    return placement


def run_resilient_experiment(
    machine: Machine,
    spec: ExperimentSpec,
    runtime: Optional[MPIRuntime] = None,
    tracer=None,
    allow_reboot: bool = True,
):
    """Run one modeled xPic experiment under fault injection.

    Mirrors :func:`~repro.apps.xpic.driver.run_experiment`, reading
    every run input from ``spec``, but drives the rank processes
    through crash/recovery *epochs*: the fault injector replays the
    spec's ``fault_plan`` (or streams Poisson node crashes at its
    ``mtbf_s``, seeded with its ``seed``, over the launch nodes of the
    current placement); a crash of a node the job runs on aborts every
    rank; the supervisor restores the newest step that every rank can
    read back from the cheapest surviving checkpoint level and
    relaunches the remaining steps.  Each relaunch restarts the
    checkpoint cadence, and the job's node set follows it.  A job still
    failing after :data:`MAX_EPOCHS` epochs raises :class:`RuntimeError`.

    The recovery step is one of two strategies:

    * **heal** (the default): replace dead nodes with spares of the
      same kind, or reboot them when ``allow_reboot`` (their NVMe
      contents stay lost); in C+B mode, if the Booster partition
      becomes unreachable, degrade to a homogeneous-Cluster run;
    * **re-tune** (when ``spec.wants_malleability``): re-run the model
      search of the spec's :class:`~repro.resiliency.malleable.
      MalleabilityPolicy` over the surviving nodes, redistribute the
      checkpoint onto the winning partition and resume there, at
      whatever mode and width it has (see
      :mod:`repro.resiliency.malleable`).

    The spec's ``ckpt_interval_s`` defaults to the Young/Daly optimum
    when an MTBF is known.  Returns ``(RunResult, resiliency,
    malleability)``: the resiliency dict quantifies faults, retries,
    checkpoints by level, restarts and lost work seconds; the
    malleability dict (empty under heal) records the re-partition event
    log, time to recover, and the final partition.
    """
    partition = partition_of(spec)
    config = config_of(spec)
    policy = (
        MalleabilityPolicy.from_dict(spec.malleability)
        if spec.wants_malleability
        else None
    )
    ckpt_interval_s = spec.ckpt_interval_s
    sim = machine.sim
    rt = runtime if runtime is not None else MPIRuntime(
        machine, fault_tolerance=FAULT_RUN_POLICY
    )
    if rt.machine is not machine:
        raise ValueError("runtime belongs to a different machine")

    placement = place(machine, partition)
    wl = workload_of(spec, placement)
    ckpt_nbytes = _estimate_ckpt_nbytes(wl)
    scr = _make_scr(machine, placement)
    reserved = list(scr.nodes)  # heal never takes these as spares
    if ckpt_interval_s is None and spec.mtbf_s is not None:
        ckpt_interval_s = optimal_interval(
            _estimate_ckpt_cost_s(scr, ckpt_nbytes), spec.mtbf_s
        )
    scr.checkpoint_interval_s = ckpt_interval_s
    scrs = [scr]

    # -- fault injector ---------------------------------------------------
    injector = FaultInjector(
        machine,
        plan=(
            FaultPlan.from_dict(spec.fault_plan)
            if spec.fault_plan is not None
            else None
        ),
        mtbf_s=spec.mtbf_s,
        targets=[nd.node_id for nd in placement.launch],
        seed=spec.seed,
    )
    job_node_ids = {nd.node_id for nd in placement.launch + placement.spawn}
    crash_info = {"time": None}

    def _on_fault(ev):
        # a dead job node dooms the whole job (ParaStation aborts all
        # ranks); faults elsewhere are survived by retry/reroute
        if ev.kind != "node_crash" or ev.target not in job_node_ids:
            return
        if crash_info["time"] is None:
            crash_info["time"] = sim.now
        for p in rt.live_processes():
            p.interrupt(cause=f"node {ev.target} crashed")

    injector.on_fault(_on_fault)

    # -- supervisor state --------------------------------------------------
    stats = {
        "restarts": 0,
        "reboots": 0,
        "node_replacements": 0,
        "lost_work_s": 0.0,
        "restart_costs": [],
        "restored_steps": [],
        "degraded_mode": False,
    }
    events: List[dict] = []  # re-tune log
    memo: Dict[tuple, tuple] = {}
    memo_hits = 0
    hooks_list: List[ResilienceHooks] = []
    start_step = 0
    epochs = 0
    final_values = None
    job_start = sim.now

    def _ckpt_time_of(step: int) -> Optional[float]:
        times = [rec.time for rec in scr.database if rec.step == step]
        return max(times) if times else None

    # -- epoch loop --------------------------------------------------------
    while True:
        epochs += 1
        if epochs > MAX_EPOCHS:
            raise RuntimeError(
                f"job did not complete within {MAX_EPOCHS} epochs"
            )
        hooks = ResilienceHooks(scr, start_step, ckpt_nbytes)
        hooks_list.append(hooks)
        epoch_start = sim.now
        crash_info["time"] = None
        scr.restart_cadence()
        app = hooks.wrap(placement.app(config, wl, tracer, resil=hooks))
        procs = rt.launch(app, placement.launch, nprocs=placement.ranks)
        injector.start()
        settled = AllOf(sim, procs)
        settled.callbacks.append(lambda _ev: injector.stop())
        _drain(sim, rt, injector)
        if not all(p.triggered for p in procs) or rt.live_processes():
            # partial abort (e.g. one rank died of a transport error and
            # its peers are blocked on it): abort the stragglers too
            injector.stop()
            for p in rt.live_processes():
                p.interrupt(cause="epoch aborted")
            _drain(sim, rt, injector)
        values = [p.value for p in procs]
        if all(tag == "ok" for tag, _ in values):
            final_values = [payload for _tag, payload in values]
            break

        # ---- recovery ----------------------------------------------------
        abort_time = crash_info["time"]
        if abort_time is None:
            abort_time = min(hooks.abort_times, default=sim.now)
        old = placement
        restart_step = scr.latest_restartable_step(range(old.ranks))
        ref = _ckpt_time_of(restart_step) if restart_step is not None else None
        if ref is None or ref < epoch_start:
            ref = epoch_start
        stats["lost_work_s"] += max(0.0, abort_time - ref)
        if policy is None:
            placement = _heal(machine, old, scr, reserved, allow_reboot, stats)
            new_scr = scr
        else:
            if len(events) >= policy.max_repartitions:
                raise RuntimeError(
                    f"exceeded max_repartitions={policy.max_repartitions}"
                )
            new_part, predicted_s, n_cands, hit = retune(
                machine, config, policy, memo
            )
            memo_hits += int(hit)
            placement = place(machine, new_part)
            new_scr = _make_scr(machine, placement)
            new_scr.checkpoint_interval_s = ckpt_interval_s
            events.append(
                {
                    "epoch": epochs,
                    "time_s": abort_time,
                    "from": old.partition.to_dict(),
                    "from_label": old.partition.label(),
                    "to": new_part.to_dict(),
                    "to_label": new_part.label(),
                    "changed": new_part != old.partition,
                    "restart_step": restart_step,
                    "candidates": n_cands,
                    "predicted_step_s": predicted_s,
                }
            )
        wl = workload_of(spec, placement)
        ckpt_nbytes = _estimate_ckpt_nbytes(wl)
        if restart_step is not None:
            # charge the (parallel) checkpoint read-back, round-robin
            # onto the new launch nodes
            t0 = sim.now
            restore_procs = [
                sim.process(
                    scr.restart(
                        rank, restart_step,
                        onto=placement.launch[rank % placement.ranks],
                    )
                )
                for rank in range(old.ranks)
            ]
            sim.run()
            for rp in restore_procs:
                if not rp.triggered or not rp.ok:
                    raise RuntimeError("checkpoint restore failed")
            if new_scr is not scr:
                # re-slice it as a fresh checkpoint at the new width so
                # later faults restore at the new shape
                redist_procs = [
                    sim.process(
                        new_scr.checkpoint(
                            rank, step=restart_step, nbytes=ckpt_nbytes
                        )
                    )
                    for rank in range(placement.ranks)
                ]
                sim.run()
                for rp in redist_procs:
                    if not rp.triggered or not rp.ok:
                        raise RuntimeError("checkpoint redistribution failed")
            stats["restart_costs"].append(sim.now - t0)
            stats["restored_steps"].append(restart_step)
        if new_scr is not scr:
            scr = new_scr
            scrs.append(new_scr)
        start_step = restart_step if restart_step is not None else 0
        # the job follows its placement
        job_node_ids.clear()
        job_node_ids.update(
            nd.node_id for nd in placement.launch + placement.spawn
        )
        injector.targets = [nd.node_id for nd in placement.launch]
        stats["restarts"] += 1
        if policy is not None:
            events[-1]["recover_s"] = sim.now - abort_time

    injector.stop()
    _drain(sim, rt, injector)  # drain any pending injector interrupt
    end = sim.now

    # -- aggregate timers of the completing epoch -------------------------
    result = placement.result(config.steps, final_values)
    if stats["restarts"] or epochs > 1:
        # faulted job: report the full wall time, launch to completion
        # (lost work, restart reads and re-run epochs included) — the
        # barrier-to-end window of the last epoch would hide the cost
        result = dataclasses.replace(result, total_runtime=end - job_start)

    round_costs: Dict[int, float] = {}
    for hooks in hooks_list:
        for step, cost in hooks.round_costs.items():
            round_costs[step] = max(round_costs.get(step, 0.0), cost)
    ckpt_costs = list(round_costs.values())
    level_counts: Dict[str, int] = {}
    for s in scrs:
        for level, count in s.level_counts().items():
            level_counts[level] = level_counts.get(level, 0) + count
    post_steps = config.steps - hooks_list[-1].start_step
    resiliency = {
        "enabled": True,
        "mtbf_s": spec.mtbf_s,
        "ckpt_interval_s": ckpt_interval_s,
        "faults": injector.metrics(),
        "transport": rt.transport_metrics(),
        "checkpoints": level_counts,
        "checkpoints_total": sum(len(s.database) for s in scrs),
        "degraded_checkpoints": sum(s.degraded_checkpoints for s in scrs),
        "checkpoint_rounds": len(ckpt_costs),
        "checkpoint_cost_s": (
            sum(ckpt_costs) / len(ckpt_costs) if ckpt_costs else 0.0
        ),
        "checkpoint_time_s": sum(ckpt_costs),
        "restarts": stats["restarts"],
        "restart_cost_s": (
            sum(stats["restart_costs"]) / len(stats["restart_costs"])
            if stats["restart_costs"]
            else 0.0
        ),
        "restart_time_s": sum(stats["restart_costs"]),
        "restored_steps": stats["restored_steps"],
        "lost_work_s": stats["lost_work_s"],
        "node_replacements": stats["node_replacements"],
        "reboots": stats["reboots"],
        "degraded_mode": stats["degraded_mode"],
        "epochs": epochs,
        # throughput over the completing epoch: after the last recovery
        # (or the whole run when nothing failed) — the denominator of
        # the re-tune-vs-heal recovery comparison
        "post_fault": {
            "steps": post_steps,
            "window_s": end - epoch_start,
            "steps_per_s": (
                post_steps / (end - epoch_start) if end > epoch_start else 0.0
            ),
        },
    }
    if policy is None:
        return result, resiliency, {}
    malleability = {
        "enabled": True,
        "policy": policy.to_dict(),
        "initial_partition": partition.to_dict(),
        "initial_label": partition.label(),
        "final_partition": placement.partition.to_dict(),
        "final_label": placement.partition.label(),
        "repartitions": events,
        "repartitions_count": sum(1 for e in events if e["changed"]),
        "recoveries": len(events),
        "time_to_recover_s": sum(e["recover_s"] for e in events),
        "retune_memo_hits": memo_hits,
        "post_fault_steps_per_s": resiliency["post_fault"]["steps_per_s"],
    }
    return result, resiliency, malleability
