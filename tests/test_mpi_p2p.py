"""Point-to-point semantics of the simulated MPI."""

import numpy as np
import pytest

from repro.hardware import build_deep_er_prototype
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    Bytes,
    FaultTolerancePolicy,
    MPIRuntime,
    PeerFailedError,
    RankError,
    Status,
    payload_nbytes,
)
from repro.network.fabric import NodeFailedError
from repro.sim import Process


@pytest.fixture()
def rt():
    machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
    return MPIRuntime(machine)


def test_send_recv_roundtrip(rt):
    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            yield from comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
            return None
        data = yield from comm.recv(source=0, tag=11)
        return data

    results = rt.run_app(app, rt.machine.cluster[:2])
    assert results[1] == {"a": 7, "b": 3.14}


def test_send_recv_numpy_array(rt):
    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            yield from comm.send(np.arange(1000), dest=1)
        else:
            data = yield from comm.recv(source=0)
            return int(data.sum())

    results = rt.run_app(app, rt.machine.cluster[:2])
    assert results[1] == sum(range(1000))


def test_recv_any_source_fills_status(rt):
    def app(ctx):
        comm = ctx.world
        if comm.rank != 0:
            yield from comm.send(Bytes(64), dest=0, tag=comm.rank)
            return None
        seen = set()
        for _ in range(comm.size - 1):
            st = Status()
            yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=st)
            assert st.tag == st.source
            assert st.nbytes == 64
            seen.add(st.source)
        return seen

    results = rt.run_app(app, rt.machine.cluster[:4])
    assert results[0] == {1, 2, 3}


def test_tag_matching_out_of_order(rt):
    """A receive by tag must skip earlier non-matching messages."""

    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            yield from comm.send("first", dest=1, tag=1)
            yield from comm.send("second", dest=1, tag=2)
            return None
        second = yield from comm.recv(source=0, tag=2)
        first = yield from comm.recv(source=0, tag=1)
        return (first, second)

    results = rt.run_app(app, rt.machine.cluster[:2])
    assert results[1] == ("first", "second")


def test_messages_same_tag_preserve_order(rt):
    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            for i in range(5):
                yield from comm.send(i, dest=1, tag=0)
            return None
        out = []
        for _ in range(5):
            out.append((yield from comm.recv(source=0, tag=0)))
        return out

    results = rt.run_app(app, rt.machine.cluster[:2])
    assert results[1] == [0, 1, 2, 3, 4]


def test_head_to_head_exchange_no_deadlock(rt):
    """Buffered-send semantics: both ranks send before receiving."""

    def app(ctx):
        comm = ctx.world
        peer = 1 - comm.rank
        yield from comm.send(Bytes(10**6), dest=peer)
        data = yield from comm.recv(source=peer)
        return data.nbytes

    results = rt.run_app(app, rt.machine.cluster[:2])
    assert results == [10**6, 10**6]


def test_isend_irecv_overlap(rt):
    """Non-blocking ops let compute overlap communication."""

    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            req = comm.isend(Bytes(16 * 2**20), dest=1)
            t0 = ctx.sim.now
            yield ctx.compute(1.0)  # 1 s of overlapped work
            compute_done = ctx.sim.now - t0
            yield req.wait()
            return compute_done
        else:
            req = comm.irecv(source=0)
            payload = yield req.wait()
            return payload.nbytes

    results = rt.run_app(app, rt.machine.cluster[:2])
    assert results[0] == pytest.approx(1.0)
    assert results[1] == 16 * 2**20


def test_request_test_before_completion(rt):
    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            yield ctx.compute(1.0)
            yield from comm.send(Bytes(8), dest=1)
            return None
        req = comm.irecv(source=0)
        early = req.test()
        yield req.wait()
        late = req.test()
        return (early, late)

    results = rt.run_app(app, rt.machine.cluster[:2])
    assert results[1] == (False, True)


def test_sendrecv_exchange(rt):
    def app(ctx):
        comm = ctx.world
        peer = 1 - comm.rank
        got = yield from comm.sendrecv(f"from{comm.rank}", dest=peer, source=peer)
        return got

    results = rt.run_app(app, rt.machine.cluster[:2])
    assert results == ["from1", "from0"]


def test_send_to_invalid_rank_raises(rt):
    def app(ctx):
        yield from ctx.world.send(1, dest=99)

    with pytest.raises(RankError):
        rt.run_app(app, rt.machine.cluster[:2])


@pytest.mark.parametrize("probe", ["iprobe", "probe"])
def test_probe_of_an_invalid_rank_raises(rt, probe):
    """Probes validate ``source`` as ``recv`` does, instead of matching
    nothing (``iprobe``) or waiting forever (``probe``)."""

    def app(ctx):
        if probe == "iprobe":
            ctx.world.iprobe(source=7)
        else:
            yield from ctx.world.probe(source=7)
        yield ctx.compute(0)

    with pytest.raises(RankError):
        rt.run_app(app, rt.machine.cluster[:2])


def test_send_timing_matches_fabric_model(rt):
    """A blocking send costs exactly the fabric's modelled message time."""
    fab = rt.machine.fabric

    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            t0 = ctx.sim.now
            yield from comm.send(Bytes(2**20), dest=1)
            return ctx.sim.now - t0
        yield from ctx.world.recv(source=0)

    results = rt.run_app(app, rt.machine.cluster[:2])
    expected = fab.transfer_time("cn00", "cn01", 2**20)
    assert results[0] == pytest.approx(expected)


def test_cross_module_send(rt):
    """Ranks on different modules communicate transparently (global MPI)."""

    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            yield from comm.send("hello booster", dest=1)
            return ctx.node.kind.value
        data = yield from comm.recv(source=0)
        return (data, ctx.node.kind.value)

    nodes = [rt.machine.cluster[0], rt.machine.booster[0]]
    results = rt.run_app(app, nodes)
    assert results[0] == "cluster"
    assert results[1] == ("hello booster", "booster")


def test_payload_nbytes_estimates():
    assert payload_nbytes(None) == 0
    assert payload_nbytes(Bytes(123)) == 123
    assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
    assert payload_nbytes(b"abcd") == 4
    assert payload_nbytes(3.14) == 8
    assert payload_nbytes("hello") == 5
    assert payload_nbytes([1, 2, 3]) >= 24
    assert payload_nbytes({"k": 1.0}) >= 9


def test_bytes_validation():
    with pytest.raises(ValueError):
        Bytes(-1)


def test_unfinished_rank_detected(rt):
    """A rank blocked forever on recv is reported, not silently dropped."""

    def app(ctx):
        if ctx.world.rank == 1:
            yield from ctx.world.recv(source=0)  # never sent

    with pytest.raises(RuntimeError, match="never completed"):
        rt.run_app(app, rt.machine.cluster[:2])


def test_multiple_ranks_per_node(rt):
    def app(ctx):
        yield ctx.compute(0)
        return ctx.node.node_id

    results = rt.run_app(app, rt.machine.cluster[:2], nprocs=4, procs_per_node=2)
    assert results == ["cn00", "cn00", "cn01", "cn01"]


def test_placement_capacity_enforced(rt):
    def app(ctx):
        yield ctx.compute(0)

    with pytest.raises(ValueError):
        rt.run_app(app, rt.machine.cluster[:2], nprocs=5, procs_per_node=2)


# -- communicator duplication ---------------------------------------------

def test_dup_traffic_never_matches_the_original(rt):
    """A receive posted on a duplicate must not take a message sent on
    the original communicator, even with the same source and tag."""

    def app(ctx):
        comm = ctx.world
        d = comm.dup()
        if comm.rank == 0:
            yield from comm.send("on-original", dest=1, tag=5)
            yield from d.send("on-dup", dest=1, tag=5)
            return None
        on_dup = yield from d.recv(source=0, tag=5)
        on_original = yield from comm.recv(source=0, tag=5)
        return (on_dup, on_original)

    results = rt.run_app(app, rt.machine.cluster[:2])
    assert results[1] == ("on-dup", "on-original")
    # every rank's first dup() shares one context pair, registered for
    # per-communicator traffic under its own name
    traffic = rt.comm_traffic()
    assert traffic["world"]["p2p_messages"] == 1
    assert traffic["world/dup1"]["p2p_messages"] == 1


def test_dup_of_an_intercommunicator_spans_both_sides(rt):
    def child(ctx):
        d = ctx.get_parent().dup()
        msg = yield from d.recv(source=0, tag=1)
        yield from d.send(f"ack:{msg}", dest=0, tag=1)

    def parent_app(ctx):
        inter = yield from ctx.world.spawn(
            child, rt.machine.cluster[:1], name="kids", startup_cost_s=0.0
        )
        d = inter.dup()
        yield from d.send("hi", dest=0, tag=1)
        reply = yield from d.recv(source=0, tag=1)
        return reply

    assert rt.run_app(parent_app, rt.machine.booster[:1]) == ["ack:hi"]
    assert rt.comm_traffic()["world<->kids/dup1"]["p2p_messages"] == 2


# -- the non-blocking send path --------------------------------------------

def _same_time_sends(through_isend, node_ids, sends):
    """Post every ``(sender, dest, nbytes)`` of ``sends`` at t=0, in list
    order, as isends or as processes over the blocking send; returns
    each send's completion time, the per-link stall times, and the
    fabric."""
    machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
    rt = MPIRuntime(machine)
    sim = machine.sim
    done = [None] * len(sends)

    def app(ctx):
        comm = ctx.world
        events = []
        for i, (sender, dest, nbytes) in enumerate(sends):
            if sender != comm.rank:
                continue
            if through_isend:
                ev = comm.isend(Bytes(nbytes), dest=dest, tag=i).wait()
            else:
                ev = sim.process(comm.send(Bytes(nbytes), dest=dest, tag=i))
            ev.callbacks.append(lambda _ev, i=i: done.__setitem__(i, sim.now))
            events.append(ev)
        for i, (sender, dest, _nbytes) in enumerate(sends):
            if dest == comm.rank:
                yield from comm.recv(source=sender, tag=i)
        for ev in events:
            yield ev

    rt.run_app(app, [machine.fabric.node(n) for n in node_ids])
    stalls = {link.key: link.stall_time_s for link in machine.fabric.topology.links}
    return done, stalls, machine.fabric


def test_contended_isends_fall_back_to_the_generator_path():
    args = (["cn00", "cn01"], [(0, 1, 2**20), (0, 1, 2**20)])
    done, stalls, fabric = _same_time_sends(True, *args)
    ref_done, ref_stalls, _ = _same_time_sends(False, *args)
    # the first send claims the idle route, the second finds it busy
    # and queues on the links like a blocking send would
    assert fabric.fast_transfers == 1 and fabric.slow_transfers == 1
    assert done == ref_done
    assert done[1] > done[0]  # really serialized behind the first
    assert stalls == ref_stalls
    assert sum(stalls.values()) > 0


def test_contended_isend_queues_at_its_own_instant():
    """X holds cn01's inbound link; Y (cn00->cn01) finds it busy, so it
    queues, but first takes cn00's outbound link, which sorts first.
    Z (cn00->cn03), posted right after Y at the same time, must then
    queue behind Y on cn00's outbound link, as with blocking sends.
    Y's queueing process starting one event later would let Z claim
    the idle link first and change every completion time."""
    args = (
        ["cn02", "cn00", "cn01", "cn03"],
        [(0, 2, 8 * 2**20), (1, 2, 2**20), (1, 3, 2**20)],
    )
    done, stalls, fabric = _same_time_sends(True, *args)
    ref_done, ref_stalls, _ = _same_time_sends(False, *args)
    assert fabric.fast_transfers == 1 and fabric.slow_transfers == 2
    assert done == ref_done
    assert done[0] < done[1] < done[2]
    assert stalls == ref_stalls


def _isend_races_a_later_send(path):
    """Rank 0 (cn00) posts a 1 MiB isend to rank 2 (cn02); rank 1
    (cn01), run next at the same instant, sends rank 2 1 MiB with the
    blocking send.  Both need the link into cn02.  ``path`` is
    ``"callback"`` or ``"oracle"`` (``fast_path_enabled = False``: sends
    in processes).  Returns when each message arrived at rank 2, by
    source rank."""
    machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
    machine.fabric.fast_path_enabled = path != "oracle"
    rt = MPIRuntime(machine)
    arrived = {}

    def app(ctx):
        comm = ctx.world
        if comm.rank == 0:
            yield comm.isend(Bytes(2**20), dest=2).wait()
        elif comm.rank == 1:
            yield from comm.send(Bytes(2**20), dest=2)
        else:
            status = Status()
            for _ in range(2):
                yield from comm.recv(source=ANY_SOURCE, status=status)
                arrived[status.source] = ctx.sim.now

    rt.run_app(app, machine.cluster[:3])
    return arrived


@pytest.mark.parametrize("path", ["callback", "oracle"])
def test_posting_order_decides_a_same_instant_link_race(path):
    """An isend claims its route when it is posted, as ``MPI_Isend``
    starts at the call, on every send path: rank 0's isend takes the
    link into cn02 first and arrives after one wire time (103.98 us);
    the blocking send rank 1 issues later in the same instant queues
    behind it and arrives after two.  A send that began one queue
    entry after it was posted would let the blocking send overtake
    it."""
    arrived = _isend_races_a_later_send(path)
    wire = build_deep_er_prototype(
        cluster_nodes=4, booster_nodes=4
    ).fabric.transfer_time("cn00", "cn02", 2**20)
    assert arrived[0] == pytest.approx(103.98e-6, abs=5e-9)
    assert arrived[0] == pytest.approx(wire)
    assert arrived[1] == pytest.approx(2 * wire)


@pytest.mark.parametrize("fast_path", [True, False])
def test_isend_to_a_failed_node_fails_its_request(fast_path):
    def make_rt():
        machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
        machine.fabric.fast_path_enabled = fast_path
        machine.fabric.fail_node("cn01")
        return MPIRuntime(machine)

    def waited(ctx):
        if ctx.world.rank == 0:
            req = ctx.world.isend("x", dest=1)
            try:
                yield req.wait()
            except NodeFailedError:
                return "raised"
            return "delivered"
        yield ctx.compute(0)

    rt = make_rt()
    assert rt.run_app(waited, rt.machine.cluster[:2])[0] == "raised"

    def unwaited(ctx):
        if ctx.world.rank == 0:
            ctx.world.isend("x", dest=1)
        yield ctx.compute(0)

    # nobody waits on the failed request: the error must not be lost
    rt = make_rt()
    with pytest.raises(NodeFailedError):
        rt.run_app(unwaited, rt.machine.cluster[:2])


@pytest.mark.parametrize(
    "policy, processes",
    [
        (None, 0),
        (FaultTolerancePolicy(max_retries=1), 0),
    ],
)
def test_uncontended_isend_constructs_no_process(monkeypatch, policy, processes):
    """Only a send that needs per-link queueing (or the oracle) runs in
    a sim process; retries run on callbacks."""
    created = []
    bind = Process._bind

    def counting_bind(self, sim, generator):
        created.append(generator)
        bind(self, sim, generator)

    monkeypatch.setattr(Process, "_bind", counting_bind)
    machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
    rt = MPIRuntime(machine, fault_tolerance=policy)

    def app(ctx):
        comm = ctx.world
        if comm.rank == 1:
            payload = yield from comm.recv(source=0)
            return payload
        before = len(created)
        req = comm.isend("hello", dest=1)
        yield req.wait()
        return len(created) - before

    assert rt.run_app(app, machine.cluster[:2]) == [processes, "hello"]


# -- transport retries under a FaultTolerancePolicy -------------------------

_RETRY = FaultTolerancePolicy(max_retries=2, backoff_base_s=1e-4)


def _policy_send(path, policy, setup, nbytes=1024):
    """Rank 0 (cn00) sends ``nbytes`` to rank 1 (cn01) under ``policy``,
    once ``setup(machine)`` has broken the fabric.  ``path`` is
    ``"isend"`` (the callback path), ``"oracle"`` (an isend with
    ``fast_path_enabled = False``) or ``"send"`` (the blocking send).
    Returns what the sender got, as ``(outcome, time)``, the number of
    transfers the fabric delivered, and the transport counters."""
    machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
    machine.fabric.fast_path_enabled = path != "oracle"
    rt = MPIRuntime(machine, fault_tolerance=policy)
    setup(machine)
    sim = machine.sim

    def app(ctx):
        comm = ctx.world
        if comm.rank == 1:
            yield ctx.compute(0)
            return None
        try:
            if path == "send":
                yield from comm.send(Bytes(1), dest=1, nbytes=nbytes)
            else:
                yield comm.isend(Bytes(1), dest=1, nbytes=nbytes).wait()
        except Exception as exc:
            return type(exc).__name__, sim.now
        return "delivered", sim.now

    sent = rt.run_app(app, machine.cluster[:2])[0]
    return sent, machine.fabric.messages_transferred, rt.transport_metrics()


def _peer_back_after_first_retry(machine):
    machine.fabric.fail_node("cn01")
    # cn01 is back between the first retry (t=1e-4) and the second (3e-4)
    machine.sim.call_in(2e-4, lambda _entry: machine.fabric.restore_node("cn01"))


def _peer_down(machine):
    machine.fabric.fail_node("cn01")


def _route_severed(machine):
    machine.fabric.fail_link("cn01", "sw.cluster")


_NO_FAULTS = {"failures": 0, "retries": 0, "backoff_time_s": 0.0}


@pytest.mark.parametrize(
    "setup, nbytes, outcome, delivered, metrics",
    [
        (
            _peer_back_after_first_retry, 1024, "delivered", 1,
            {"failures": 2, "retries": 2, "backoff_time_s": 3e-4},
        ),
        (
            _peer_down, 1024, "PeerFailedError", 0,
            {"failures": 3, "retries": 2, "backoff_time_s": 3e-4},
        ),
        (
            _route_severed, 1024, "RouteDownError", 0,
            {"failures": 3, "retries": 2, "backoff_time_s": 3e-4},
        ),
        # not a transport fault: raised raw at once, never retried
        (lambda machine: None, -1, "ValueError", 0, _NO_FAULTS),
    ],
    ids=["peer-back", "peer-down", "route-severed", "unmapped-error"],
)
def test_retried_send_matches_the_oracle_and_the_blocking_send(
    setup, nbytes, outcome, delivered, metrics
):
    """Retries on callbacks map errors, count, back off and deliver
    exactly as the process over ``transmit`` and the blocking send do."""
    got = {
        path: _policy_send(path, _RETRY, setup, nbytes)
        for path in ("isend", "oracle", "send")
    }
    (what, when), n_delivered, counters = got["isend"]
    assert what == outcome
    assert n_delivered == delivered
    assert counters == pytest.approx(metrics)
    if outcome == "delivered":
        # two backoffs (1e-4 + 2e-4) and the 1 KiB transfer itself
        wire = build_deep_er_prototype(
            cluster_nodes=4, booster_nodes=4
        ).fabric.transfer_time("cn00", "cn01", nbytes)
        assert when == pytest.approx(3e-4 + wire)
    elif outcome == "ValueError":
        assert when == 0.0
    else:
        assert when == pytest.approx(3e-4)  # gave up at the last attempt
    assert got["oracle"] == got["isend"]
    assert got["send"] == got["isend"]


@pytest.mark.parametrize("fast_path", [True, False])
def test_exhausted_retries_fail_the_request(fast_path):
    """A send whose retries run out raises ``PeerFailedError`` at
    ``req.wait()``, and from ``sim.run()`` when nobody waits."""

    def make_rt():
        machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
        machine.fabric.fast_path_enabled = fast_path
        machine.fabric.fail_node("cn01")
        return MPIRuntime(machine, fault_tolerance=_RETRY)

    def waited(ctx):
        if ctx.world.rank == 0:
            req = ctx.world.isend("x", dest=1)
            try:
                yield req.wait()
            except PeerFailedError:
                return "raised"
            return "delivered"
        yield ctx.compute(0)

    rt = make_rt()
    assert rt.run_app(waited, rt.machine.cluster[:2])[0] == "raised"

    def unwaited(ctx):
        if ctx.world.rank == 0:
            ctx.world.isend("x", dest=1)
        yield ctx.compute(0)

    rt = make_rt()
    with pytest.raises(PeerFailedError):
        rt.run_app(unwaited, rt.machine.cluster[:2])
    assert rt.transport_metrics()["failures"] == 3


def _retry_order(fast_path):
    """Rank 0 (cn00) posts an isend of 1 MiB to rank 2 on cn02, which
    is down at t=0 and back at t=5e-5; rank 1 (cn01) sends it 1 MiB
    with the blocking send one zero-delay wait later.  Returns each
    send's completion time, the per-link stall times and the transport
    counters."""
    machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
    machine.fabric.fast_path_enabled = fast_path
    machine.fabric.fail_node("cn02")
    machine.sim.call_in(5e-5, lambda _entry: machine.fabric.restore_node("cn02"))
    rt = MPIRuntime(machine, fault_tolerance=_RETRY)

    def app(ctx):
        comm = ctx.world
        if comm.rank == 2:
            for source in (0, 1):
                yield from comm.recv(source=source)
            return None
        if comm.rank == 0:
            yield comm.isend(Bytes(2**20), dest=2).wait()
        else:
            yield ctx.compute(0)
            yield from comm.send(Bytes(2**20), dest=2)
        return ctx.sim.now

    done = rt.run_app(app, machine.cluster[:3])[:2]
    stalls = {l.key: l.stall_time_s for l in machine.fabric.topology.links}
    return done, stalls, rt.transport_metrics()


def test_same_instant_retries_keep_their_order():
    """Both first attempts fail at t=0, rank 0's first, and both retries
    land at t=1e-4, where they contend for cn02's link: rank 0's retry
    must claim it first, as its send process would.  A retry entry
    pushed one slot late would let the blocking send overtake it."""
    done, stalls, metrics = _retry_order(fast_path=True)
    assert done[0] < done[1]
    assert metrics["failures"] == 2 and metrics["retries"] == 2
    assert (done, stalls, metrics) == _retry_order(fast_path=False)


def _give_up_times(policy, fast_path):
    """Ranks 0 and 1 both post to rank 2 on a dead cn02; returns when
    each gave up, and the transport counters."""
    machine = build_deep_er_prototype(cluster_nodes=4, booster_nodes=4)
    machine.fabric.fast_path_enabled = fast_path
    machine.fabric.fail_node("cn02")
    rt = MPIRuntime(machine, fault_tolerance=policy)

    def app(ctx):
        if ctx.world.rank == 2:
            yield ctx.compute(0)
            return None
        try:
            yield ctx.world.isend("x", dest=2).wait()
        except PeerFailedError:
            return ctx.sim.now
        return "delivered"

    return rt.run_app(app, machine.cluster[:3])[:2], rt.transport_metrics()


def test_retrying_senders_follow_the_fixed_schedule():
    """Two senders retrying the same dead peer back off on the same
    fixed schedule (0.1, 0.2, then 0.4 ms) and give up together, on
    callbacks and on the oracle path alike."""
    policy = FaultTolerancePolicy(max_retries=3, backoff_base_s=1e-4)
    times, metrics = _give_up_times(policy, fast_path=True)
    assert times == [pytest.approx(1e-4 + 2e-4 + 4e-4)] * 2
    assert metrics["failures"] == 8 and metrics["retries"] == 6
    assert _give_up_times(policy, fast_path=False) == (times, metrics)
