"""Unit and property tests for Resource and Store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import NO_ITEM, Resource, Simulator, Store


# ---------------------------------------------------------------- Resource
def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.in_use == 2 and res.queued == 1


def test_resource_release_wakes_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(sim, res, name, hold):
        req = res.request()
        yield req
        order.append((name, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    sim.process(user(sim, res, "a", 2.0))
    sim.process(user(sim, res, "b", 1.0))
    sim.process(user(sim, res, "c", 1.0))
    sim.run()
    assert order == [("a", 0.0), ("b", 2.0), ("c", 3.0)]


def test_resource_release_foreign_request_rejected():
    sim = Simulator()
    r1, r2 = Resource(sim), Resource(sim)
    req = r1.request()
    with pytest.raises(ValueError):
        r2.release(req)


def test_resource_contention_serializes():
    """Total occupancy of a capacity-1 resource is the sum of holds."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    finished = []

    def user(sim, res, hold):
        req = res.request()
        yield req
        yield sim.timeout(hold)
        res.release(req)
        finished.append(sim.now)

    for hold in (1.0, 2.0, 3.0):
        sim.process(user(sim, res, hold))
    sim.run()
    assert finished == [1.0, 3.0, 6.0]


# ------------------------------------------------------------------- Store
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)

    def proc(sim, store):
        yield store.put("x")
        item = yield store.get()
        return item

    assert sim.run_process(proc(sim, store)) == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer(sim, store):
        item = yield store.get()
        return (item, sim.now)

    def producer(sim, store):
        yield sim.timeout(5.0)
        yield store.put("late")

    c = sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert c.value == ("late", 5.0)


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)

    def proc(sim, store):
        for i in range(3):
            yield store.put(i)
        out = []
        for _ in range(3):
            out.append((yield store.get()))
        return out

    assert sim.run_process(proc(sim, store)) == [0, 1, 2]


def test_store_filtered_get_skips_nonmatching():
    sim = Simulator()
    store = Store(sim)

    def proc(sim, store):
        yield store.put(("tag", 1))
        yield store.put(("other", 2))
        item = yield store.get(lambda m: m[0] == "other")
        return (item, len(store))

    item, remaining = sim.run_process(proc(sim, store))
    assert item == ("other", 2)
    assert remaining == 1


def test_store_filtered_get_waits_for_match():
    sim = Simulator()
    store = Store(sim)

    def consumer(sim, store):
        item = yield store.get(lambda m: m == "wanted")
        return (item, sim.now)

    def producer(sim, store):
        yield sim.timeout(1.0)
        yield store.put("unwanted")
        yield sim.timeout(1.0)
        yield store.put("wanted")

    c = sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert c.value == ("wanted", 2.0)
    assert store.peek() == "unwanted"


def test_store_bounded_put_blocks():
    sim = Simulator()
    store = Store(sim, capacity=1)
    times = []

    def producer(sim, store):
        for i in range(2):
            yield store.put(i)
            times.append(sim.now)

    def consumer(sim, store):
        yield sim.timeout(3.0)
        yield store.get()

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert times == [0.0, 3.0]


def test_store_peek_nonexistent():
    sim = Simulator()
    store = Store(sim)
    assert store.peek() is None
    assert store.peek(lambda x: True) is None


# A buffered item may legitimately *be* None — the store must never use
# None internally as a "nothing found" sentinel.

def test_store_watch_fires_on_buffered_none():
    sim = Simulator()
    store = Store(sim)
    store.put(None)
    ev = store.watch(lambda m: m is None)
    assert ev.triggered and ev.value is None
    assert store.watch().triggered  # unfiltered watch sees it too
    assert len(store) == 1  # watching never consumes


def test_store_waiting_watcher_woken_by_put_none():
    sim = Simulator()
    store = Store(sim)
    ev = store.watch(lambda m: m is None)
    assert not ev.triggered
    store.put("decoy")
    assert not ev.triggered
    store.put(None)
    assert ev.triggered and ev.value is None
    assert len(store) == 2


def test_store_peek_distinguishes_stored_none_from_miss():
    sim = Simulator()
    store = Store(sim)
    store.put(None)
    assert store.peek(default=NO_ITEM) is None  # matched the stored None
    assert store.peek(lambda m: m == "x", default=NO_ITEM) is NO_ITEM
    assert repr(NO_ITEM) == "<NO_ITEM>"


def test_store_get_returns_stored_none():
    sim = Simulator()
    store = Store(sim)

    def proc(sim, store):
        yield store.put(None)
        item = yield store.get(lambda m: m is None)
        return (item, len(store))

    assert sim.run_process(proc(sim, store)) == (None, 0)


# -------------------------------------------------------------- properties
@given(st.lists(st.integers(), min_size=0, max_size=50))
@settings(max_examples=50, deadline=None)
def test_store_preserves_all_items(items):
    """Everything put into a store comes out, in FIFO order."""
    sim = Simulator()
    store = Store(sim)

    def proc(sim, store, items):
        for it in items:
            yield store.put(it)
        out = []
        for _ in items:
            out.append((yield store.get()))
        return out

    assert sim.run_process(proc(sim, store, items)) == items


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_event_processing_order_is_monotonic(delays):
    """The simulator clock never goes backwards."""
    sim = Simulator()
    seen = []

    def proc(sim, d):
        yield sim.timeout(d)
        seen.append(sim.now)

    for d in delays:
        sim.process(proc(sim, d))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20),
)
@settings(max_examples=30, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    """At no instant do more than `capacity` holders run concurrently."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    active = [0]
    max_active = [0]

    def user(sim, res, hold):
        req = res.request()
        yield req
        active[0] += 1
        max_active[0] = max(max_active[0], active[0])
        yield sim.timeout(hold)
        active[0] -= 1
        res.release(req)

    for h in holds:
        sim.process(user(sim, res, h))
    sim.run()
    assert max_active[0] <= capacity
    assert active[0] == 0


def test_interrupted_resource_waiter_does_not_leak_slot():
    """A waiter interrupted out of the queue must not be granted the
    slot on release; the next live waiter gets it."""
    from repro.sim import Interrupt

    sim = Simulator()
    res = Resource(sim, capacity=1)
    got = []

    def holder(sim):
        req = res.request()
        yield req
        yield sim.timeout(10.0)
        res.release(req)

    def doomed(sim):
        req = res.request()
        try:
            yield req
        except Interrupt:
            return "interrupted"
        res.release(req)
        return "ran"

    def patient(sim):
        req = res.request()
        yield req
        got.append(sim.now)
        res.release(req)

    sim.process(holder(sim))
    d = sim.process(doomed(sim))
    sim.process(patient(sim))

    def killer(sim):
        yield sim.timeout(5.0)
        d.interrupt()

    sim.process(killer(sim))
    sim.run()
    assert d.value == "interrupted"
    assert got == [10.0]  # the patient waiter got the slot
    assert res.in_use == 0
