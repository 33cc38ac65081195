"""MPI matching: the rank mailbox against a reference built from a
generic ``sim.Store`` and a closure filter.

A random script of puts, posted receives, probes, peeks and interrupts
runs against both; every observation — who got which envelope when,
who was interrupted, what a peek saw, what stays queued, how many
events ran — must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ANY_SOURCE, ANY_TAG, Envelope
from repro.mpi.message import Mailbox
from repro.sim import Interrupt, Simulator, Store


def match(context_id, source, tag):
    """The reference filter: MPI matching as a predicate closure."""

    def _filter(env):
        return (
            env.context_id == context_id
            and (source == ANY_SOURCE or env.source == source)
            and (tag == ANY_TAG or env.tag == tag)
        )

    return _filter


class StoreMailbox:
    """Reference mailbox: a FIFO ``Store`` queried through ``match``."""

    def __init__(self, sim):
        self.store = Store(sim)
        self.put_events = 0

    @property
    def unexpected(self):
        return self.store.items

    def put(self, env):
        self.store.put(env)  # one put event, which the mailbox skips
        self.put_events += 1

    def get(self, ctx, source, tag):
        return self.store.get(match(ctx, source, tag))

    def peek(self, ctx, source, tag):
        return self.store.peek(match(ctx, source, tag))

    def watch(self, ctx, source, tag):
        return self.store.watch(match(ctx, source, tag))


# op: (kind, delay before it, argument).  A put's argument is its
# envelope's (context, source, tag); a kill's picks a waiting process;
# receives, probes and peeks take a pattern that may hold wildcards.
ARGS = {
    "put": st.tuples(
        st.sampled_from([1, 2]),
        st.sampled_from([0, 1, 2]),
        st.sampled_from([0, 1]),
    ),
    "kill": st.integers(0, 7),
}
PATTERN = st.tuples(
    st.sampled_from([1, 2]),
    st.sampled_from([0, 1, 2, ANY_SOURCE]),
    st.sampled_from([0, 1, ANY_TAG]),
)
ops = st.sampled_from(
    ["put", "put", "get", "get", "watch", "peek", "kill"]
).flatmap(
    lambda kind: st.tuples(
        st.just(kind),
        st.sampled_from([0.0, 0.0, 1.0]),
        ARGS.get(kind, PATTERN),
    )
)
scripts = st.lists(ops, max_size=40)


def replay(script, make_mailbox):
    """Run ``script`` on a fresh mailbox; returns the observation log."""
    sim = Simulator()
    box = make_mailbox(sim)
    log = []
    waiting = {}  # op id -> process blocked on a receive or probe

    def waiter(op_id, kind, pattern):
        ev = getattr(box, kind)(*pattern)
        waiting[op_id] = sim.active_process
        try:
            env = yield ev
            log.append((sim.now, op_id, env.payload))
        except Interrupt:
            log.append((sim.now, op_id, "killed"))
        finally:
            del waiting[op_id]

    def run_script():
        for op_id, (kind, delay, arg) in enumerate(script):
            if delay:
                yield delay
            if kind == "put":
                box.put(Envelope(*arg, nbytes=8, payload=op_id))
            elif kind == "peek":
                env = box.peek(*arg)
                seen = None if env is None else env.payload
                log.append((sim.now, op_id, seen))
            elif kind == "kill":
                if waiting:
                    victim = sorted(waiting)[arg % len(waiting)]
                    waiting[victim].interrupt("killed")
            else:
                sim.process(waiter(op_id, kind, arg))

    sim.process(run_script())
    sim.run()
    log.append(("left", [env.payload for env in box.unexpected]))
    put_events = getattr(box, "put_events", 0)
    log.append(("events", sim.events_processed - put_events))
    return log


@settings(max_examples=300, deadline=None)
@given(scripts)
def test_mailbox_matches_the_store_reference(script):
    assert replay(script, Mailbox) == replay(script, StoreMailbox)


def test_delivery_to_a_posted_receive_schedules_only_its_event():
    sim = Simulator()
    box = Mailbox(sim)
    got = box.get(1, ANY_SOURCE, 5)
    box.put(Envelope(1, 0, 4, 8, "wrong tag"))
    box.put(Envelope(2, 0, 5, 8, "wrong context"))
    assert not got.triggered and len(sim) == 0
    box.put(Envelope(1, 3, 5, 8, "match"))
    assert got.triggered and got.value.payload == "match"
    assert len(sim) == 1  # the receive's event, nothing for the puts
    assert [env.payload for env in box.unexpected] == [
        "wrong tag", "wrong context",
    ]
