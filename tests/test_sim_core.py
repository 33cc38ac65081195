"""Unit tests for the discrete-event simulation core."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    EmptyQueue,
    Event,
    Interrupt,
    Process,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return sim.now

    assert sim.run_process(proc(sim)) == 2.5


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc(sim):
        v = yield sim.timeout(1.0, value="hello")
        return v

    assert sim.run_process(proc(sim)) == "hello"


def test_sequential_timeouts_accumulate():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        yield sim.timeout(3.0)
        return sim.now

    assert sim.run_process(proc(sim)) == pytest.approx(6.0)


def test_run_until_stops_early():
    sim = Simulator()
    log = []

    def proc(sim):
        for _ in range(10):
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_run_until_in_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        return 42

    p = sim.process(proc(sim))
    sim.run()
    assert p.ok and p.value == 42


def test_process_join():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3.0)
        return "done"

    def parent(sim):
        c = sim.process(child(sim))
        v = yield c
        return (v, sim.now)

    assert sim.run_process(parent(sim)) == ("done", 3.0)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as e:
            return str(e)

    assert sim.run_process(parent(sim)) == "boom"


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("unhandled")

    sim.process(child(sim))
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_event_succeed_once_only():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_manual_event_wakes_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter(sim):
        v = yield ev
        return (v, sim.now)

    def trigger(sim):
        yield sim.timeout(4.0)
        ev.succeed("sig")

    p = sim.process(waiter(sim))
    sim.process(trigger(sim))
    sim.run()
    assert p.value == ("sig", 4.0)


def test_allof_waits_for_all():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(5.0, value="b")
        result = yield AllOf(sim, [t1, t2])
        return (sorted(result.values()), sim.now)

    vals, now = sim.run_process(proc(sim))
    assert vals == ["a", "b"]
    assert now == 5.0


def test_anyof_fires_on_first():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(5.0, value="slow")
        result = yield AnyOf(sim, [t1, t2])
        return (list(result.values()), sim.now)

    vals, now = sim.run_process(proc(sim))
    assert vals == ["fast"]
    assert now == 1.0


def test_condition_operators():
    sim = Simulator()

    def proc(sim):
        a = sim.timeout(1.0)
        b = sim.timeout(2.0)
        yield a & b
        return sim.now

    assert sim.run_process(proc(sim)) == 2.0


def test_empty_allof_is_immediate():
    sim = Simulator()

    def proc(sim):
        yield AllOf(sim, [])
        return sim.now

    assert sim.run_process(proc(sim)) == 0.0


def test_fifo_order_among_simultaneous_events():
    sim = Simulator()
    order = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        sim.process(proc(sim, name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_call_in_takes_an_event_slot_in_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        order.append(name)

    sim.process(proc(sim, "a"))
    sim.call_in(
        0.0,
        lambda _entry: sim.call_in(1.0, lambda _entry: order.append("cb")),
    )
    sim.process(proc(sim, "b"))
    sim.run()
    assert order == ["a", "cb", "b"]
    with pytest.raises(ValueError):
        sim.call_in(-1.0, order.append)


def test_start_now_runs_the_generator_in_the_callers_slot():
    sim = Simulator()
    order = []
    started = []

    def body(name):
        order.append(name)
        yield sim.timeout(0)

    def callback(_entry):
        sim.process(body("deferred"))  # waits for its init event
        started.append(Process.start_now(sim, body("now")))
        order.append("callback returns")

    sim.call_in(0.0, callback)
    sim.run()
    assert order == ["now", "callback returns", "deferred"]
    assert started[0].triggered and started[0].ok


def test_interrupt_delivers_cause():
    sim = Simulator()

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as i:
            return ("interrupted", i.cause, sim.now)

    def attacker(sim, victim_proc):
        yield sim.timeout(2.0)
        victim_proc.interrupt(cause="node-failure")

    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run()
    assert v.value == ("interrupted", "node-failure", 2.0)


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_yield_non_event_raises_inside_process():
    sim = Simulator()

    def proc(sim):
        try:
            yield "not an event"
        except TypeError as e:
            return "caught"

    assert sim.run_process(proc(sim)) == "caught"


def test_yield_bare_number_is_fast_timeout():
    sim = Simulator()

    def proc(sim):
        yield 1.5
        yield 1  # ints work too
        return sim.now

    assert sim.run_process(proc(sim)) == 2.5
    assert sim.fast_wakeups == 2


def test_yield_negative_number_raises_inside_process():
    sim = Simulator()

    def proc(sim):
        try:
            yield -0.5
        except ValueError:
            return "caught"

    assert sim.run_process(proc(sim)) == "caught"


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(ValueError):
        ev.succeed(delay=-1.0)


NAN = float("nan")
INF = float("inf")


def _triggered(sim):
    ev = Event(sim)
    ev._ok = True
    ev._value = None
    return ev


#: every public way to put an entry ``delay`` seconds ahead of the clock
DELAY_ENTRY_POINTS = {
    "timeout": lambda sim, d: sim.timeout(d),
    "call_in": lambda sim, d: sim.call_in(d, lambda _entry: None),
    "succeed": lambda sim, d: sim.event().succeed(delay=d),
    "fail": lambda sim, d: sim.event().fail(KeyError("x"), delay=d).defuse(),
    "schedule_at": lambda sim, d: sim.schedule_at(
        _triggered(sim), sim.now + d
    ),
    "run_until": lambda sim, d: sim.run(until=sim.now + d),
}


@pytest.mark.parametrize("entry", sorted(DELAY_ENTRY_POINTS))
def test_nan_delay_rejected(entry):
    # NaN fails every comparison, so a ``< 0`` guard would let it in
    sim = Simulator(start_time=1.0)
    with pytest.raises(ValueError):
        DELAY_ENTRY_POINTS[entry](sim, NAN)
    assert len(sim) == 0 and sim.now == 1.0


@pytest.mark.parametrize("entry", sorted(DELAY_ENTRY_POINTS))
def test_infinite_delay_still_accepted(entry):
    sim = Simulator(start_time=1.0)
    DELAY_ENTRY_POINTS[entry](sim, INF)
    sim.run()
    assert sim.now == INF


def test_nan_sleep_cannot_run_the_clock_backwards():
    sim = Simulator()
    woke = []

    def sleeper(delay):
        try:
            yield delay
        except ValueError:
            woke.append(("rejected", sim.now))
            return
        woke.append((delay, sim.now))

    for delay in (3.0, NAN, 1.0, 2.0, 0.5):
        sim.process(sleeper(delay))
    sim.process(sleeper(INF))
    sim.run()
    assert woke == [
        ("rejected", 0.0),
        (0.5, 0.5),
        (1.0, 1.0),
        (2.0, 2.0),
        (3.0, 3.0),
        (INF, INF),
    ]


def test_fast_wakeup_reused_not_reallocated():
    sim = Simulator()

    seen = []

    def proc(sim):
        for _ in range(5):
            yield 0.1
            seen.append(sim.active_process._wakeup)

    p = sim.process(proc(sim))
    sim.run()
    # one pooled wakeup object served every wait ...
    assert len(seen) == 5 and all(w is seen[0] for w in seen)
    assert not seen[0].pending
    # ... and the finished process let it go (no process <-> wakeup
    # reference cycle outlives the run)
    assert p._wakeup is None
    assert sim.fast_wakeups == 5


def test_interrupt_during_fast_wait():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield 10.0
        except Interrupt as i:
            return ("interrupted", sim.now, i.cause)

    def interrupter(sim, victim):
        yield 1.0
        victim.interrupt("boom")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert victim.value == ("interrupted", 1.0, "boom")
    # the cancelled wakeup at 10.0 is discarded without moving the clock
    assert sim.now == 1.0


@pytest.mark.parametrize("drive", ["run", "step", "step_batch"])
@pytest.mark.parametrize("sleepers", [1, 2])
def test_cancelled_wakeups_never_move_the_clock(drive, sleepers):
    # one cancelled wakeup alone, or a whole batch of them, at t=10
    sim = Simulator()

    def sleeper(sim):
        try:
            yield 10.0
        except Interrupt:
            return sim.now

    def interrupter(sim, victims):
        yield 1.0
        for v in victims:
            v.interrupt()

    victims = [sim.process(sleeper(sim)) for _ in range(sleepers)]
    sim.process(interrupter(sim, victims))
    if drive == "run":
        sim.run()
    else:
        while len(sim):
            getattr(sim, drive)()
    assert [v.value for v in victims] == [1.0] * sleepers
    assert sim.now == 1.0


def test_fast_wait_after_cancelled_wakeup():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield 10.0
        except Interrupt:
            pass
        # the cancelled wakeup is still queued; this wait must not
        # collide with it
        yield 0.5
        return sim.now

    def interrupter(sim, victim):
        yield 1.0
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert victim.value == 1.5


def test_run_records_wall_time_and_queue_depth():
    sim = Simulator()

    def proc(sim):
        for _ in range(3):
            yield sim.timeout(1.0)

    for _ in range(4):
        sim.process(proc(sim))
    sim.run()
    assert sim.wall_time_s > 0.0
    assert sim.peak_queue_depth >= 4
    assert sim.events_processed > 0


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(7.0)
    assert sim.peek() == 7.0


def test_peek_empty_raises_empty_queue():
    sim = Simulator()
    with pytest.raises(EmptyQueue, match="empty"):
        sim.peek()


def test_step_empty_raises_empty_queue():
    sim = Simulator()
    with pytest.raises(EmptyQueue):
        sim.step()


def test_empty_queue_is_index_error():
    # callers that guarded the old bare IndexError keep working
    sim = Simulator()
    with pytest.raises(IndexError):
        sim.peek()


def test_step_batch_processes_cotemporal_events():
    sim = Simulator()
    order = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        sim.process(proc(sim, name))
    # batch 1: the three initial wakeups at t=0
    assert sim.step_batch() == 3
    assert sim.now == 0.0
    # batch 2: the three timeouts at t=1, delivered FIFO
    assert sim.step_batch() == 3
    assert order == ["a", "b", "c"]
    # batch 3: the three process-completion events, also at t=1
    assert sim.step_batch() == 3
    with pytest.raises(EmptyQueue):
        sim.step_batch()


def test_step_drains_batches_one_event_at_a_time():
    sim = Simulator()
    done = []

    def proc(sim, name):
        yield sim.timeout(2.0)
        done.append(name)

    for name in ("x", "y"):
        sim.process(proc(sim, name))
    while True:
        try:
            sim.step()
        except EmptyQueue:
            break
    assert done == ["x", "y"]
    assert sim.now == 2.0


def test_batch_metrics_accumulate():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    for _ in range(4):
        sim.process(proc(sim))
    sim.run()
    # three batches of four: the t=0 wakeups, the t=1 timeouts, and
    # the t=1 process-completion events
    assert sim.batches == 3
    assert sim.max_batch == 4
    hist = sim.batch_size_hist()
    assert hist == {"4-7": 3}
    assert sum(hist.values()) == sim.batches


def test_active_process_visible_during_execution():
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append(sim.active_process)
        yield sim.timeout(0)

    p = sim.process(proc(sim))
    sim.run()
    assert seen == [p]
    assert sim.active_process is None


def test_nested_start_now_restores_the_active_process():
    """A process that starts a child in place (``Process.start_now``)
    is the active process again once the child yields."""
    sim = Simulator()
    seen = []

    def child(sim):
        seen.append(("child", sim.active_process))
        yield sim.timeout(1.0)
        seen.append(("child later", sim.active_process))

    def parent(sim):
        seen.append(("parent", sim.active_process))
        kid = Process.start_now(sim, child(sim))
        seen.append(("parent after start", sim.active_process))
        yield kid
        seen.append(("parent joined", sim.active_process))

    p = sim.process(parent(sim))
    sim.run()
    kid = seen[1][1]
    assert kid is not p
    assert seen == [
        ("parent", p),
        ("child", kid),
        ("parent after start", p),
        ("child later", kid),
        ("parent joined", p),
    ]
    assert sim.active_process is None


def test_schedule_at_past_rejected():
    sim = Simulator(start_time=3.0)
    ev = Event(sim)
    ev._ok = True
    ev._value = None
    with pytest.raises(ValueError):
        sim.schedule_at(ev, 1.0)
