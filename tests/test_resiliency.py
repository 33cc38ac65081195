"""Tests for the failure model and SCR multi-level checkpoint/restart."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import build_deep_er_prototype
from repro.io import BeeGFS
from repro.nam import NAMDevice
from repro.resiliency import (
    SCR,
    CheckpointLevel,
    expected_runtime,
    optimal_interval,
)


@pytest.fixture()
def setup():
    machine = build_deep_er_prototype()
    fs = BeeGFS(machine)
    nam = NAMDevice(machine, machine.nams[0])
    nodes = machine.booster[:4]
    scr = SCR(machine.sim, nodes, machine.fabric, fs=fs, nam=nam)
    return machine, scr


# ------------------------------------------------------------ failure math
def test_optimal_interval_formula():
    assert optimal_interval(10.0, 720000.0) == pytest.approx(3794.7, rel=1e-3)


def test_optimal_interval_validation():
    with pytest.raises(ValueError):
        optimal_interval(0, 100)
    with pytest.raises(ValueError):
        optimal_interval(10, -1)


def test_expected_runtime_penalizes_extremes():
    """The Young/Daly interval beats both too-frequent and too-rare."""
    kw = dict(
        work_s=1e5, checkpoint_cost_s=30.0, restart_cost_s=60.0, mtbf_s=2e4
    )
    opt = optimal_interval(30.0, 2e4)
    t_opt = expected_runtime(interval_s=opt, **kw)
    assert t_opt < expected_runtime(interval_s=opt / 10, **kw)
    assert t_opt < expected_runtime(interval_s=opt * 10, **kw)


@given(
    c=st.floats(min_value=1.0, max_value=100.0),
    mtbf=st.floats(min_value=1e3, max_value=1e6),
)
@settings(max_examples=40, deadline=None)
def test_optimal_interval_is_near_minimum(c, mtbf):
    """Property: perturbing the Young/Daly interval never helps much."""
    kw = dict(work_s=1e5, checkpoint_cost_s=c, restart_cost_s=2 * c, mtbf_s=mtbf)
    opt = optimal_interval(c, mtbf)
    t_opt = expected_runtime(interval_s=opt, **kw)
    for factor in (0.5, 2.0):
        assert t_opt <= expected_runtime(interval_s=opt * factor, **kw) * 1.05


# ----------------------------------------------------------------------- SCR
def test_local_checkpoint_and_restart(setup):
    machine, scr = setup

    def proc():
        rec = yield from scr.checkpoint(0, step=5, nbytes=10**6, level=CheckpointLevel.LOCAL)
        got = yield from scr.restart(0, step=5)
        return rec, got

    rec, got = machine.sim.run_process(proc())
    assert rec.level is CheckpointLevel.LOCAL
    assert got.ckpt_id == rec.ckpt_id


def test_buddy_checkpoint_survives_node_failure(setup):
    """The core DEEP-ER resiliency claim: after losing a node, its state
    restarts from the buddy's NVMe copy."""
    machine, scr = setup

    def write(rank):
        yield from scr.checkpoint(rank, step=3, nbytes=10**6, level=CheckpointLevel.BUDDY)

    machine.sim.run_process(write(0))
    scr.nodes[0].fail()
    assert scr.available_checkpoints(0)  # buddy copy survives

    spare = machine.booster[5]

    def restart():
        rec = yield from scr.restart(0, step=3, onto=spare)
        return rec

    rec = machine.sim.run_process(restart())
    assert rec.level is CheckpointLevel.BUDDY


def test_local_checkpoint_lost_with_node(setup):
    machine, scr = setup

    def write():
        yield from scr.checkpoint(0, step=1, nbytes=100, level=CheckpointLevel.LOCAL)

    machine.sim.run_process(write())
    scr.nodes[0].fail()
    assert scr.available_checkpoints(0) == []
    with pytest.raises(LookupError):
        machine.sim.run_process(scr.restart(0, step=1))


def test_nam_checkpoint_survives_any_compute_failure(setup):
    machine, scr = setup

    def write():
        yield from scr.checkpoint(1, step=2, nbytes=10**6, level=CheckpointLevel.NAM)

    machine.sim.run_process(write())
    for node in scr.nodes:
        node.fail()
    assert scr.available_checkpoints(1)

    spare = machine.cluster[0]
    rec = machine.sim.run_process(scr.restart(1, step=2, onto=spare))
    assert rec.level is CheckpointLevel.NAM


def test_global_checkpoint_via_sion(setup):
    machine, scr = setup

    def proc():
        for rank in range(4):
            yield from scr.checkpoint(
                rank, step=7, nbytes=10**6, level=CheckpointLevel.GLOBAL
            )
        rec = yield from scr.restart(2, step=7)
        return rec

    rec = machine.sim.run_process(proc())
    assert rec.level is CheckpointLevel.GLOBAL
    assert scr.fs.metadata_ops >= 1


def test_multilevel_policy_escalates(setup):
    _, scr = setup
    levels = [scr.next_level() for _ in range(1)]
    # simulate database growth
    machine, scr = setup

    def proc():
        out = []
        for step in range(1, 9):
            rec = yield from scr.checkpoint(0, step=step, nbytes=1000)
            out.append(rec.level)
        return out

    levels = machine.sim.run_process(proc())
    assert CheckpointLevel.GLOBAL in levels
    assert CheckpointLevel.NAM in levels
    assert levels.count(CheckpointLevel.GLOBAL) == 2  # every 4th


def test_latest_restartable_step_requires_all_ranks(setup):
    machine, scr = setup

    def proc():
        for rank in range(4):
            yield from scr.checkpoint(rank, step=1, nbytes=100, level=CheckpointLevel.BUDDY)
        for rank in range(3):  # rank 3 misses step 2
            yield from scr.checkpoint(rank, step=2, nbytes=100, level=CheckpointLevel.BUDDY)

    machine.sim.run_process(proc())
    assert scr.latest_restartable_step(range(4)) == 1
    assert scr.latest_restartable_step(range(3)) == 2


def test_need_checkpoint_cadence(setup):
    machine, _ = setup
    nodes = machine.booster[:2]
    scr = SCR(machine.sim, nodes, machine.fabric, checkpoint_interval_s=10.0)
    assert not scr.need_checkpoint()  # nothing elapsed yet

    def advance():
        yield machine.sim.timeout(11.0)
        return scr.need_checkpoint()

    assert machine.sim.run_process(advance())


def test_checkpoint_levels_cost_ordering():
    """With all ranks checkpointing concurrently (the real pattern),
    LOCAL < BUDDY < GLOBAL: node-local levels scale with the job, the
    global file system is a shared bottleneck."""
    nbytes = 50 * 2**20

    def timed(level):
        machine = build_deep_er_prototype()
        fs = BeeGFS(machine)
        scr = SCR(machine.sim, machine.booster[:4], machine.fabric, fs=fs)
        done = []

        def one(rank):
            yield from scr.checkpoint(rank, step=1, nbytes=nbytes, level=level)
            done.append(machine.sim.now)

        for rank in range(4):
            machine.sim.process(one(rank))
        machine.sim.run()
        return max(done)

    t_local = timed(CheckpointLevel.LOCAL)
    t_buddy = timed(CheckpointLevel.BUDDY)
    t_global = timed(CheckpointLevel.GLOBAL)
    assert t_local < t_buddy < t_global
