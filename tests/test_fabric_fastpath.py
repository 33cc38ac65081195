"""The fabric's two transfer paths must be observationally identical.

Uncontended transfers skip the ``Request`` event machinery (fast path);
contended ones fall back to per-link FIFO queueing (slow path).  These
tests force the slow path via ``Fabric.fast_path_enabled`` and check
that simulated timestamps and every per-link counter agree exactly, and
that the per-route cost cache and the wire-time memo forget every
fabric change.
"""

import pytest

from repro.engine import Engine, ExperimentSpec, preset_machine
from repro.network.fabric import Fabric, NodeFailedError, NoRouteError
from repro.sim import Resource, Simulator

NBYTES = 64 * 1024  # above the eager threshold: exercises rendezvous


def _link_stats(fabric):
    return {
        link.key: (link.bytes_carried, link.messages_carried, link.stall_time_s)
        for link in fabric.topology.links
    }


def _run_scenario(fast_enabled, contenders, n_msgs=10):
    """``contenders`` senders each push ``n_msgs`` messages at bn00."""
    machine = preset_machine("deep-er")
    fabric = machine.fabric
    fabric.fast_path_enabled = fast_enabled  # instance attr, shadows class
    sim = machine.sim
    completions = []

    def sender(src):
        for _ in range(n_msgs):
            yield from fabric.transfer(src, "bn00", NBYTES)
            completions.append((src, sim.now))

    for i in range(contenders):
        sim.process(sender(f"cn{i:02d}"))
    sim.run()
    return completions, _link_stats(fabric), fabric


def test_fast_and_slow_agree_uncontended():
    fast_done, fast_links, fast_fab = _run_scenario(True, contenders=1)
    slow_done, slow_links, slow_fab = _run_scenario(False, contenders=1)
    assert fast_done == slow_done  # identical simulated timestamps
    assert fast_links == slow_links  # identical bytes/messages/stalls
    # a lone sender never sees a busy link: every transfer is fast
    assert fast_fab.fast_transfers == 10 and fast_fab.slow_transfers == 0
    assert slow_fab.slow_transfers == 10 and slow_fab.fast_transfers == 0


def test_fast_and_slow_agree_contended():
    fast_done, fast_links, fast_fab = _run_scenario(True, contenders=4)
    slow_done, slow_links, slow_fab = _run_scenario(False, contenders=4)
    assert fast_done == slow_done
    assert fast_links == slow_links
    # rivals launched at t=0 queue on the shared switch links, so the
    # fast run must have exercised BOTH paths
    assert fast_fab.fast_transfers > 0 and fast_fab.slow_transfers > 0
    assert slow_fab.fast_transfers == 0
    # contention really happened: someone stalled
    assert sum(s[2] for s in fast_links.values()) > 0


def _plan(events):
    return {
        "schema": "repro.fault_plan/1", "seed": 1, "mtbf_s": None,
        "events": events,
    }


_CRASH_PLAN = _plan([{"time_s": 1.0, "kind": "node_crash", "target": "bn00"}])

# a quarter of the Booster lost before the first checkpoint: the
# supervisor re-tunes over the survivors
_MALLEABLE_PLAN = _plan([
    {"time_s": 0.3, "kind": "node_crash", "target": "bn00"},
    {"time_s": 0.3, "kind": "node_crash", "target": "bn01"},
])

# 5 ms outages of the Booster ranks' only links: a send that hits one
# retries until its retries run out, and the failed rank restarts the
# run from its checkpoint
_FLAP_PLAN = _plan([
    {
        "time_s": t, "kind": "link_down", "target": [node, "sw.booster"],
        "duration_s": 5e-3,
    }
    for t in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35)
    for node in ("bn00", "bn01")
])

_ENGINE_SPECS = {
    **{
        f"{mode}-{n}": dict(mode=mode, nodes_per_solver=n)
        for mode in ("C+B", "Cluster", "Booster")
        for n in (1, 2, 8)
    },
    "no-overlap": dict(mode="C+B", nodes_per_solver=4, overlap=False),
    "swap": dict(mode="C+B", nodes_per_solver=4, swap_placement=True),
    "trace": dict(mode="C+B", nodes_per_solver=2, trace=True),
    "fault-plan": dict(
        mode="C+B",
        nodes_per_solver=2,
        steps=60,
        fault_plan=_CRASH_PLAN,
        ckpt_interval_s=0.5,
    ),
    "malleable-fault": dict(
        mode="C+B",
        nodes_per_solver=8,
        steps=60,
        fault_plan=_MALLEABLE_PLAN,
        ckpt_interval_s=0.5,
        malleability={"enabled": True},
    ),
    "transport-retry": dict(
        mode="C+B",
        nodes_per_solver=2,
        steps=60,
        fault_plan=_FLAP_PLAN,
        ckpt_interval_s=0.5,
    ),
}


@pytest.mark.parametrize("name", sorted(_ENGINE_SPECS))
def test_engine_run_identical_without_fast_path(name):
    """A full engine run reports the same physics either way.

    ``fast_path_enabled = False`` also sends every ``isend`` through a
    process over the blocking ``transmit`` path instead of the MPI
    runtime's callbacks, so this is the differential oracle for both
    fast paths."""
    spec = ExperimentSpec(**{"steps": 5, "seed": 3, **_ENGINE_SPECS[name]})
    fast = Engine().run(spec)
    Fabric.fast_path_enabled = False
    try:
        slow = Engine().run(spec)
    finally:
        Fabric.fast_path_enabled = True
    if name not in ("Cluster-1", "Booster-1"):  # these cross no link
        assert fast.network["fast_transfers"] > 0
    assert slow.network["fast_transfers"] == 0
    fd, sd = fast.to_dict(), slow.to_dict()
    for key in (
        "spec", "result", "mpi", "phases", "intervals", "resiliency",
        "malleability",
    ):
        assert fd[key] == sd[key], key
    for d in (fd, sd):  # only the path mix may differ
        d["network"] = {
            k: v
            for k, v in d["network"].items()
            if k not in ("fast_transfers", "slow_transfers")
        }
    assert fd["network"] == sd["network"]
    assert fast.sim["sim_time_s"] == slow.sim["sim_time_s"]
    if spec.fault_plan is not None:
        assert fast.resiliency["restarts"] >= 1  # the crash really hit
    if spec.malleability:
        assert fast.malleability["repartitions_count"] >= 1
    if name == "transport-retry":
        assert fast.mpi["transport"]["retries"] > 0


# -- route-cost cache ---------------------------------------------------------

def test_route_cost_cached_and_invalidated_by_link_faults():
    fabric = preset_machine("deep-er").fabric
    rc = fabric.route_cost("cn00", "bn00")
    assert fabric.route_cost("cn00", "bn00") is rc  # cached, stable identity
    t_direct = fabric.transfer_time("cn00", "bn00", 1024)

    fabric.fail_link("sw.cluster", "sw.booster")
    rc_detour = fabric.route_cost("cn00", "bn00")
    assert rc_detour is not rc
    assert len(rc_detour.links) > len(rc.links)  # rerouted the long way
    assert fabric.transfer_time("cn00", "bn00", 1024) > t_direct

    fabric.restore_link("sw.cluster", "sw.booster")
    rc_back = fabric.route_cost("cn00", "bn00")
    assert rc_back is not rc_detour
    assert len(rc_back.links) == len(rc.links)
    assert fabric.transfer_time("cn00", "bn00", 1024) == pytest.approx(t_direct)


def _counted_begin(monkeypatch, fabric):
    """``begin(src, dst, nbytes, rdma=False)`` on ``fabric``: ``(duration,
    route lookups)`` of one claimed transfer, its links given back."""
    route_cost = fabric.route_cost
    lookups = []

    def counted(src, dst):
        lookups.append((src, dst))
        return route_cost(src, dst)

    monkeypatch.setattr(fabric, "route_cost", counted)

    def begin(src, dst, nbytes, rdma=False):
        lookups.clear()
        duration, rc, claimed = fabric.begin_transfer(src, dst, nbytes, rdma)
        assert claimed
        if rc is not None:
            fabric.release_route(rc)
        return duration, len(lookups)

    return begin


def test_begin_transfer_prices_like_transfer_time_from_one_lookup(
    monkeypatch,
):
    """``begin_transfer`` charges what ``transfer_time`` reports, bit for
    bit, from the memo the two share: a message priced for the first
    time costs one route lookup and a priced one none."""
    fabric = preset_machine("deep-er").fabric
    fresh = preset_machine("deep-er").fabric  # prices on its own memo
    begin = _counted_begin(monkeypatch, fabric)
    for nbytes in (0, 4096, fabric.eager_threshold + 1, 10**6):
        for rdma in (False, True):
            expected = fresh.transfer_time("cn00", "bn00", nbytes, rdma)
            assert begin("cn00", "bn00", nbytes, rdma) == (expected, 1)
            assert begin("cn00", "bn00", nbytes, rdma) == (expected, 0)
            assert fabric.transfer_time("cn00", "bn00", nbytes, rdma) == (
                expected
            )
    # transfer_time fills the memo begin_transfer reads, too
    fabric.transfer_time("cn01", "bn01", 512)
    assert begin("cn01", "bn01", 512) == (
        fresh.transfer_time("cn01", "bn01", 512), 0
    )
    # a same-node message is a memory copy, 200 ns + n / bandwidth,
    # with no route to look up or claim
    bw = fabric.node("cn00").memory.peak_bandwidth
    assert fabric.latency("cn00", "cn00") == 200e-9
    for nbytes in (0, 2**20):
        expected = fabric.transfer_time("cn00", "cn00", nbytes)
        assert expected == 200e-9 + nbytes / bw
        assert begin("cn00", "cn00", nbytes) == (expected, 0)


def test_begin_transfer_error_order():
    """A failed node first; then, as transfer_time reports them, a
    negative size, an unregistered node and a missing route."""
    fabric = preset_machine("deep-er").fabric
    fabric.fail_link("cn00", "sw.cluster")
    with pytest.raises(NoRouteError):
        fabric.begin_transfer("cn00", "cn01", 8)
    with pytest.raises(KeyError):
        fabric.begin_transfer("cn00", "ghost", 8)
    with pytest.raises(ValueError):
        fabric.begin_transfer("cn00", "ghost", -1)
    fabric.fail_node("cn01")
    with pytest.raises(NodeFailedError):
        fabric.begin_transfer("ghost", "cn01", -1)


def test_transfer_after_reroute_crosses_detour_links():
    machine = preset_machine("deep-er")
    fabric = machine.fabric

    def proc():
        yield from fabric.transfer("cn00", "bn00", 100)
        fabric.fail_link("sw.cluster", "sw.booster")
        yield from fabric.transfer("cn00", "bn00", 100)

    machine.sim.run_process(proc())
    carried = {k for k, s in _link_stats(fabric).items() if s[1] > 0}
    assert ("sw.booster", "sw.cluster") in carried  # first transfer
    assert len(carried) > 3  # second one took extra links


# -- wire-time memo ---------------------------------------------------------

_SWITCHES = ("sw.booster", "sw.cluster")

#: each case: the fault-method calls that make the change, in order
_FABRIC_CHANGES = {
    "fail_link": [("fail_link", *_SWITCHES)],
    "restore_link": [("fail_link", *_SWITCHES), ("restore_link", *_SWITCHES)],
    "fail_node": [("fail_node", "cn00")],
    "restore_node": [("fail_node", "cn00"), ("restore_node", "cn00")],
    "degrade_link": [("degrade_link", *_SWITCHES, 0.1)],
    "restore_link_quality": [
        ("degrade_link", *_SWITCHES, 0.1),
        ("restore_link_quality", *_SWITCHES),
    ],
}


def _wire_times(fabric):
    """``latency`` and ``transfer_time`` of a few routes through the
    switch link and ``cn00``: each a float, or the error class raised."""
    out = {}
    for src, dst in (("cn00", "bn00"), ("bn01", "cn00"), ("cn01", "bn01")):
        calls = [("latency", (src, dst))] + [
            ("transfer_time", (src, dst, nbytes, rdma))
            for nbytes in (0, 4096, 10**6)
            for rdma in (False, True)
        ]
        for name, args in calls:
            try:
                out[name, args] = getattr(fabric, name)(*args)
            except Exception as exc:
                out[name, args] = type(exc)
    return out


@pytest.mark.parametrize("case", sorted(_FABRIC_CHANGES))
def test_wire_times_forget_every_fabric_change(case):
    """A fabric that priced its routes before each change prices them
    afterwards as a freshly built fabric given the same change does."""
    warm = preset_machine("deep-er").fabric
    fresh = preset_machine("deep-er").fabric
    for method, *args in _FABRIC_CHANGES[case]:
        before = _wire_times(warm)
        getattr(warm, method)(*args)
        getattr(fresh, method)(*args)
        after = _wire_times(warm)
        assert after != before  # the change moved prices the memo held
    assert after == _wire_times(fresh)


@pytest.mark.parametrize("case", sorted(_FABRIC_CHANGES))
def test_begin_transfer_looks_up_again_after_every_fabric_change(
    monkeypatch, case
):
    """Each fault method empties the shared memo: the next message looks
    its route up again and is priced as on a fabric given the same
    change."""
    fabric = preset_machine("deep-er").fabric
    changed = preset_machine("deep-er").fabric
    begin = _counted_begin(monkeypatch, fabric)
    begin("cn01", "bn01", 512)
    assert begin("cn01", "bn01", 512)[1] == 0  # warm
    for method, *args in _FABRIC_CHANGES[case]:
        getattr(fabric, method)(*args)
        getattr(changed, method)(*args)
        assert begin("cn01", "bn01", 512) == (
            changed.transfer_time("cn01", "bn01", 512), 1
        )


# -- event-free acquisition primitives ---------------------------------------

def test_try_acquire_respects_capacity_and_waiters():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert res.try_acquire()
    assert not res.try_acquire()  # occupied
    req = res.request()  # a FIFO waiter queues behind the slot
    assert not req.triggered
    res.release_slot()  # hands the slot to the waiter, not back to idle
    assert req.triggered and res.in_use == 1 and res.queued == 0
    assert not res.try_acquire()  # the waiter holds it now
    res.release(req)
    assert res.in_use == 0
    assert res.try_acquire()  # idle again
    res.release_slot()
    assert res.in_use == 0


def test_release_slot_without_acquire_raises():
    with pytest.raises(RuntimeError):
        Resource(Simulator()).release_slot()
