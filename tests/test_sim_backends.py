"""Differential tests: the calendar queue against a reference heap.

The simulator's one event queue, :class:`~repro.sim.CalendarEventQueue`
(timestamp buckets, batch dequeue), promises *exact* equivalence with
the classic ``heapq`` event loop kept here as :class:`HeapEventQueue`:
the same workload replays event-for-event, in the same order, at the
same timestamps, producing the same results and the same deterministic
metrics.  These tests enforce that promise on randomized seeded
workloads spanning every waiting primitive (timeouts, the bare-delay
fast path, interrupts, resources, stores, fabric transfers) and on full
engine reports, each run once on the default simulator and once with
the heap plugged in.
"""

import json
import random
from heapq import heappop, heappush
from typing import List, Tuple

import pytest

import repro.sim.core
from repro.sim import EmptyQueue, Interrupt, Resource, Simulator, Store


class HeapEventQueue:
    """Reference queue: one binary heap of ``(time, seq, entry)``.

    ``seq`` is a monotonically increasing tie-breaker, so entries that
    share a timestamp pop in FIFO (insertion) order — the ordering
    contract the calendar queue must reproduce.
    """

    __slots__ = ("_heap", "_seq", "count")

    def __init__(self):
        self._heap: List[tuple] = []
        self._seq = 0
        #: live entry count (kept as a plain attribute so the hot
        #: scheduling path reads it without a method call)
        self.count = 0

    def push(self, when: float, entry) -> None:
        """Insert ``entry`` at time ``when`` (FIFO among equal times)."""
        self._seq += 1
        heappush(self._heap, (when, self._seq, entry))
        self.count += 1

    def pop_batch(self) -> Tuple[float, list]:
        """Remove and return ``(when, entries)`` for the next timestamp.

        ``entries`` holds every queued entry scheduled at exactly
        ``when``, in insertion order.  Raises :class:`EmptyQueue` when
        idle.
        """
        heap = self._heap
        if not heap:
            raise EmptyQueue("event queue is empty")
        when, _seq, entry = heappop(heap)
        batch = [entry]
        while heap and heap[0][0] == when:
            batch.append(heappop(heap)[2])
        self.count -= len(batch)
        return when, batch

    def peek(self) -> float:
        """Time of the next entry; raises :class:`EmptyQueue` when idle."""
        heap = self._heap
        if not heap:
            raise EmptyQueue("event queue is empty")
        return heap[0][0]

    def __len__(self) -> int:
        return self.count


def _heap_simulator() -> Simulator:
    """A simulator running on the reference heap (plugged in before
    anything is scheduled)."""
    sim = Simulator()
    sim._queue = HeapEventQueue()
    return sim


# exactly representable floats on purpose *and* awkward ones: equal
# timestamps must group identically however they were computed
DELAYS = (0.0, 0.125, 0.25, 0.1, 0.2, 0.3, 1.0, 1e-6, 3.7e-6)


def _random_workload(sim: Simulator, seed: int, log: list):
    """Build a randomized process soup; every action appends to ``log``.

    The RNG drives structure only (how many processes, which primitive
    each step uses) and is consumed identically for every backend, so
    two runs differ *only* by the scheduler implementation under test.
    """
    rng = random.Random(seed)
    resource = Resource(sim, capacity=rng.randint(1, 3))
    store = Store(sim, capacity=rng.choice([4, float("inf")]))
    n_procs = rng.randint(8, 16)

    def worker(pid, plan):
        try:
            for step, (kind, arg) in enumerate(plan):
                if kind == "timeout":
                    yield sim.timeout(arg)
                elif kind == "fast":
                    yield arg
                elif kind == "resource":
                    req = resource.request()
                    yield req
                    log.append(("acq", pid, step, sim.now))
                    try:
                        yield arg
                    finally:
                        resource.release(req)
                elif kind == "put":
                    yield store.put((pid, step))
                elif kind == "get":
                    item = yield store.get()
                    log.append(("got", pid, step, sim.now, item))
                log.append((kind, pid, step, sim.now))
        except Interrupt as i:
            log.append(("worker-interrupted", pid, sim.now, i.cause))
            return -1
        return pid

    def saboteur(victims, plan):
        for when, idx in plan:
            yield when
            victim = victims[idx % len(victims)]
            if victim.is_alive and sim.active_process is not victim:
                victim.interrupt(cause=("boom", idx))
                log.append(("interrupt", idx, sim.now))

    def resilient(pid, plan):
        # sleeps long, absorbs interrupts, then keeps going: exercises
        # cancelled-wakeup discard and pool reuse under churn
        for step, delay in enumerate(plan):
            try:
                yield delay * 50
            except Interrupt as i:
                log.append(("caught", pid, step, sim.now, i.cause))
            yield delay
            log.append(("resumed", pid, step, sim.now))

    victims = []
    for pid in range(n_procs):
        kinds = ("timeout", "fast", "resource", "put", "get")
        plan = [
            (rng.choice(kinds), rng.choice(DELAYS))
            for _ in range(rng.randint(3, 10))
        ]
        # keep put/get balanced enough that getters cannot all starve
        if all(k != "put" for k, _ in plan):
            plan.append(("put", 0.0))
        p = sim.process(worker(pid, plan))
        victims.append(p)
    for pid in range(rng.randint(1, 3)):
        plan = [rng.choice(DELAYS[1:]) for _ in range(rng.randint(2, 5))]
        victims.append(sim.process(resilient(100 + pid, plan)))
    sab_plan = [
        (rng.choice(DELAYS[1:]), rng.randrange(64))
        for _ in range(rng.randint(2, 6))
    ]
    sim.process(saboteur(victims, sab_plan))
    return victims


def _replay(make_sim, seed: int):
    sim = make_sim()
    log: list = []
    procs = _random_workload(sim, seed, log)
    sim.run(until=500.0)
    outcomes = [
        (p.value if (p.triggered and p.ok) else None, p.triggered)
        for p in procs
    ]
    return {
        "log": log,
        "outcomes": outcomes,
        "events": sim.events_processed,
        "fast_wakeups": sim.fast_wakeups,
        "peak_depth": sim.peak_queue_depth,
        "batches": sim.batches,
        "max_batch": sim.max_batch,
        "hist": sim.batch_size_hist(),
        "now": sim.now,
    }


@pytest.mark.parametrize("seed", range(12))
def test_randomized_workloads_replay_identically(seed):
    """Same seed, calendar queue vs the heap oracle: event-for-event
    identical traces — every action at the same timestamp in the same
    order, the same event/batch counters, the same process outcomes."""
    calendar = _replay(Simulator, seed)
    heap = _replay(_heap_simulator, seed)
    assert calendar["log"] == heap["log"]
    assert calendar == heap


def _transfer_trace(make_sim) -> list:
    from repro.engine import preset_machine

    sim = make_sim()
    machine = preset_machine(sim=sim)
    fabric = machine.fabric
    log = []

    def sender(src, dst, n, size):
        for i in range(n):
            yield from fabric.transfer(src, dst, size)
            log.append((src, dst, i, sim.now))

    # one uncontended sender (pure fast path) and a contended pair
    # sharing a route (FIFO slow path)
    sim.process(sender("cn00", "bn00", 20, 64 * 1024))
    sim.process(sender("cn01", "bn01", 15, 16 * 1024))
    sim.process(sender("cn01", "bn01", 15, 4 * 1024))
    sim.run()
    log.append(("totals", fabric.bytes_transferred,
                fabric.messages_transferred, fabric.fast_transfers))
    return log


def test_fabric_transfers_replay_identically():
    assert _transfer_trace(Simulator) == _transfer_trace(_heap_simulator)


# -- wakeup-pool hygiene under interrupt/cancel churn ------------------------


def test_wakeup_pool_reuse_under_interrupt_churn():
    """Interrupting fast-path waits over and over must not leak pending
    wakeups: each cancelled entry is discarded on pop, the pool object
    is replaced only while its predecessor is still queued, and the
    ``fast_wakeups`` counter counts exactly the waits that completed."""
    sim = Simulator()
    completed = []
    last = []

    def sleeper(sim):
        n = 0
        while True:
            try:
                yield 10.0
            except Interrupt:
                continue
            n += 1
            completed.append(n)
            if n >= 5:
                last.append(sim.active_process._wakeup)
                return n

    def churner(sim, victim):
        # interrupt mid-wait 20 times, always re-arming a fresh wait
        # while the cancelled wakeup is still queued
        for _ in range(20):
            yield 1.0
            if victim.is_alive:
                victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(churner(sim, victim))
    sim.run()
    assert victim.ok and victim.value == 5
    # every completed wait took the fast path; interrupted waits never
    # increment the counter (their queued wakeups popped cancelled)
    assert sim.fast_wakeups == 5 + 20  # victim waits + churner waits
    # nothing left pending once the simulation drained
    assert len(sim) == 0
    assert last[0] is not None and not last[0].pending
    # the finished process dropped its pooled wakeup
    assert victim._wakeup is None


def _churn(make_sim) -> int:
    sim = make_sim()

    def flapper(sim):
        for _ in range(10):
            try:
                yield 5.0
            except Interrupt:
                pass

    def interrupter(sim, victims):
        for _ in range(30):
            yield 0.5
            for v in victims:
                if v.is_alive:
                    v.interrupt()

    victims = [sim.process(flapper(sim)) for _ in range(4)]
    sim.process(interrupter(sim, victims))
    sim.run()
    assert len(sim) == 0
    assert sim._queue.count == 0
    return sim.fast_wakeups


def test_no_leaked_wakeups_after_churn():
    """After heavy cancel churn the queue drains to empty — cancelled
    entries never linger — and the ``fast_wakeups`` counter is exact:
    the heap oracle reproduces it bit-for-bit."""
    assert _churn(Simulator) == _churn(_heap_simulator)


# -- engine reports: byte-identical modulo host timing ------------------------


def _normalized_report() -> str:
    from repro.engine import Engine, ExperimentSpec

    spec = ExperimentSpec(mode="cb", steps=5)
    doc = Engine().run(spec).to_dict()
    # host-side timing is the *only* field allowed to differ between
    # the queue and the oracle
    for key in ("wall_time_s", "events_per_sec", "host_wall_s"):
        doc["sim"].pop(key, None)
    return json.dumps(doc, sort_keys=True)


def test_fig7_report_byte_identical_across_backends(monkeypatch):
    """A fig7-style engine run serializes to byte-identical JSON on the
    calendar queue and on the heap oracle once host-timing fields are
    stripped.  The batch-size histogram intentionally stays in the
    comparison: both queues must group co-temporal events identically."""
    calendar = _normalized_report()
    monkeypatch.setattr(repro.sim.core, "CalendarEventQueue", HeapEventQueue)
    assert type(Simulator()._queue) is HeapEventQueue
    assert _normalized_report() == calendar
