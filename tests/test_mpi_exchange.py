"""The MPI exchange round: one send and one receive, one joined event.

``MPIRuntime.exchange`` backs ``Comm.sendrecv``, each recursive-doubling
``allreduce`` round and each dissemination ``barrier`` round (and the
``allgather``, ``alltoall`` and ``merge`` rounds).  On the
callback path a round message costs two queue entries, the send's
completion callback and the round event; the process oracle
(``fast_path_enabled = False``) runs the send in a process that
completes the same round.  Both paths must deliver the same payloads
at the same simulated times.
"""

import pytest

from repro.hardware import build_deep_er_prototype
from repro.mpi import (
    ANY_SOURCE,
    FaultTolerancePolicy,
    MPIRuntime,
    PeerFailedError,
    RankError,
)
from repro.sim import Interrupt

PATHS = ("callback", "oracle")

_RETRY = FaultTolerancePolicy(max_retries=2, backoff_base_s=1e-4)


def _runtime(path="callback", policy=None, nodes=8):
    """A runtime on an idle DEEP-ER prototype, its sends on ``path``."""
    machine = build_deep_er_prototype(cluster_nodes=nodes, booster_nodes=nodes)
    machine.fabric.fast_path_enabled = path != "oracle"
    return MPIRuntime(machine, fault_tolerance=policy)


# -- differential: callback path == process oracle ---------------------------

def _ring(source_any):
    """Three sendrecv rounds around the ring, each rank skewed by its
    rank so some receives match before their send completes and some
    after."""

    def app(ctx):
        comm = ctx.world
        n, rank = comm.size, comm.rank
        got = []
        for i in range(3):
            yield ctx.compute(rank * 3e-7 * (i + 1))
            payload = yield from comm.sendrecv(
                (rank, i), dest=(rank + 1) % n,
                source=ANY_SOURCE if source_any else (rank - 1) % n,
                sendtag=i, recvtag=i, nbytes=4096 * (rank + 1),
            )
            got.append((payload, ctx.sim.now))
        return got

    return app


def _allreduce(ctx):
    comm = ctx.world
    yield ctx.compute(comm.rank * 1e-6)
    total = yield from comm.allreduce(comm.rank + 1)
    biggest = yield from comm.allreduce([comm.rank], op=lambda a, b: a + b)
    return total, biggest, ctx.sim.now


def _barrier(ctx):
    """Two barriers entered at skewed times: (entered, left) of each."""
    times = []
    for i in range(2):
        yield ctx.compute(((ctx.world.rank * 7 + i) % 5) * 1e-6)
        entered = ctx.sim.now
        yield from ctx.world.barrier()
        times.append((entered, ctx.sim.now))
    return times


def _allgather_alltoall(ctx):
    comm = ctx.world
    yield ctx.compute(((comm.rank * 3) % comm.size) * 1e-6)
    gathered = yield from comm.allgather(comm.rank * 10)
    swapped = yield from comm.alltoall(
        [(comm.rank, peer) for peer in range(comm.size)]
    )
    return gathered, swapped, ctx.sim.now


CASES = {
    "ring": (_ring(source_any=False), 8),
    "ring-any-source": (_ring(source_any=True), 8),
    "allreduce-2": (_allreduce, 2),
    "allreduce-4": (_allreduce, 4),
    "allreduce-8": (_allreduce, 8),
    "barrier-3": (_barrier, 3),
    "barrier-5": (_barrier, 5),
    "allgather-alltoall-5": (_allgather_alltoall, 5),
}


def _outcome(path, case):
    app, ranks = CASES[case]
    rt = _runtime(path)
    results = rt.run_app(app, rt.machine.booster[:ranks])
    return results, rt.comm_traffic()


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_send_path_completes_rounds_identically(case):
    assert _outcome("oracle", case) == _outcome("callback", case)


def test_round_results_are_what_the_operations_promise():
    ring, traffic = _outcome("callback", "ring")
    assert traffic["world"]["p2p_messages"] == 8 * 3
    for rank, rounds in enumerate(ring):
        assert [payload for payload, _ in rounds] == [
            ((rank - 1) % 8, i) for i in range(3)
        ]
    reduced, _ = _outcome("callback", "allreduce-8")
    assert {(total, tuple(sorted(items))) for total, items, _ in reduced} == {
        (36, tuple(range(8)))
    }
    # no rank leaves a barrier before the last one entered it
    barrier, _ = _outcome("callback", "barrier-5")
    for i in range(2):
        entered = max(times[i][0] for times in barrier)
        assert entered > 0
        assert min(times[i][1] for times in barrier) > entered


# -- structure: one completion callback and one round event per message -----

def _ring_events(rounds):
    rt = _runtime()

    def app(ctx):
        comm = ctx.world
        n = comm.size
        for _ in range(rounds):
            yield from comm.sendrecv(
                None, dest=(comm.rank + 1) % n, source=(comm.rank - 1) % n,
                nbytes=1024,
            )

    rt.run_app(app, rt.machine.booster[:8])
    assert rt.fabric.slow_transfers == 0  # the idle fabric never queues
    return rt.sim.events_processed


@pytest.mark.parametrize("rounds", [1, 4])
def test_a_round_message_costs_two_queue_entries(rounds):
    """One more round of an 8-rank ring is 8 messages: 8 completion
    callbacks and 8 round events, exactly 16 queue entries."""
    assert _ring_events(rounds + 1) - _ring_events(rounds) == 16


# -- errors -------------------------------------------------------------------

@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize(
    "dest, source", [(2, 0), (-1, 0), (1, 2), (1, -2)],
    ids=["dest-high", "dest-negative", "source-high", "source-negative"],
)
def test_an_out_of_range_rank_raises_at_the_call(path, dest, source):
    """Nothing is posted: no message is counted and no time passes."""
    rt = _runtime(path)

    def app(ctx):
        comm = ctx.world
        if comm.rank == 1:
            yield ctx.compute(0)
            return None
        try:
            yield from comm.sendrecv("x", dest=dest, source=source)
        except RankError:
            return "raised", ctx.sim.now, rt.traffic
        return "completed"

    assert rt.run_app(app, rt.machine.cluster[:2])[0] == ("raised", 0.0, {})


@pytest.mark.parametrize("path", PATHS)
def test_exhausted_retries_raise_in_the_waiting_rank(path):
    """Rank 0's round sends to rank 1 on a dead node and receives from
    rank 2, which sends only at 1 ms.  The typed error is raised in
    rank 0 when the last attempt fails (3e-4 s), without waiting for
    the receive, and the round's receive is withdrawn: the message from
    rank 2 stays for rank 0's next receive."""
    rt = _runtime(path, _RETRY)
    rt.machine.fabric.fail_node("cn01")

    def app(ctx):
        comm = ctx.world
        if comm.rank == 1:
            yield ctx.compute(0)
            return None
        if comm.rank == 2:
            yield ctx.compute(1e-3)
            yield from comm.send("late", dest=0, tag=5)
            return None
        try:
            yield from comm.sendrecv("x", dest=1, source=2, recvtag=5)
        except PeerFailedError:
            failed_at = ctx.sim.now
        else:
            return "completed"
        late = yield from comm.recv(source=2, tag=5)
        return failed_at, late

    failed_at, late = rt.run_app(app, rt.machine.cluster[:3])[0]
    assert failed_at == pytest.approx(3e-4)
    assert late == "late"
    assert rt.transport_metrics()["failures"] == 3


@pytest.mark.parametrize("path", PATHS)
def test_an_interrupted_rank_is_never_resumed_by_its_round(path):
    """Rank 0 waits on a round whose message arrives at 1 ms and is
    interrupted at 10 us.  It then sleeps 5 ms: the round completing
    meanwhile must not wake it, nor take the message, which rank 0's
    next receive gets instead."""
    rt = _runtime(path)
    sim = rt.sim

    def app(ctx):
        comm = ctx.world
        if comm.rank == 1:
            yield ctx.compute(1e-3)
            yield from comm.send("late", dest=0, tag=5)
            return None
        try:
            yield from comm.sendrecv("x", dest=1, source=1, recvtag=5)
        except Interrupt:
            interrupted_at = ctx.sim.now
        else:
            return "completed"
        yield ctx.compute(5e-3)
        woke_at = ctx.sim.now
        late = yield from comm.recv(source=1, tag=5)
        return interrupted_at, woke_at, late

    ranks = rt.launch(app, rt.machine.cluster[:2])

    def interrupter():
        yield 1e-5
        ranks[0].interrupt("stop")

    sim.process(interrupter())
    sim.run()
    assert ranks[0].value == (1e-5, 1e-5 + 5e-3, "late")
