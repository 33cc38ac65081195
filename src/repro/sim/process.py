"""Generator-based simulation processes."""

from __future__ import annotations

from typing import Any, Generator

from .events import PENDING, WAKE_OK, Event, Interrupt, _Wakeup

__all__ = ["Process"]


class Process(Event):
    """A simulation process wrapping a Python generator.

    The generator yields :class:`~repro.sim.events.Event` instances to
    suspend; it is resumed with the event's value (or the event's
    exception is thrown into it).  The process is itself an event that
    succeeds with the generator's ``return`` value, so processes can be
    joined by yielding them.

    As a fast path, a generator may also yield a bare non-negative
    number: it suspends for that many seconds, exactly like yielding
    ``sim.timeout(n)`` but without allocating an event (the simulator
    reuses one pooled wakeup entry per process).
    """

    __slots__ = ("generator", "_target", "_wakeup")

    def __init__(self, sim: "Simulator", generator: Generator):  # noqa: F821
        self._bind(sim, generator)
        # Kick off the process at the current simulation time.
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        sim._schedule(init)

    @classmethod
    def start_now(cls, sim: "Simulator", generator: Generator) -> "Process":  # noqa: F821
        """Start a process by running its generator to the first yield
        right away, instead of at a zero-delay init event.

        What the generator does first (say, queueing on a link) then
        happens at the call, not behind events scheduled for the same
        time meanwhile: a send posted by a rank claims its route when
        it is posted, and a callback's process acts in the callback's
        own queue slot.  It may be called from inside another process;
        that process is the active one again once the new one yields.
        """
        proc = cls.__new__(cls)
        proc._bind(sim, generator)
        proc._resume(WAKE_OK)
        return proc

    def _bind(self, sim: "Simulator", generator: Generator) -> None:  # noqa: F821
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__} "
                "(did you forget to call the generator function?)"
            )
        Event.__init__(self, sim)
        self.generator = generator
        self._target: Event = None
        self._wakeup: _Wakeup = None

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Used e.g. for failure injection.  Interrupting a finished
        process is an error.
        """
        if not self.is_alive:
            raise RuntimeError("cannot interrupt a finished process")
        if self.sim.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        # Detach from the event we were waiting on, then resume with failure.
        target = self._target
        if type(target) is _Wakeup:
            # fast-path wait: leave the queued entry to be discarded
            target.cancelled = True
        elif target is not None and not target.processed:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            # nobody is listening anymore: producers must skip it
            target.abandoned = True
        interrupt_ev = Event(self.sim)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks.append(self._resume)
        self.sim._schedule(interrupt_ev)

    # -- internal ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._value is not PENDING:
            # The process finished between this event being scheduled
            # and delivered (e.g. two same-instant interrupts: the first
            # one ends the generator, the second finds it gone).  The
            # event is stale — discard it.  Fast-path wake tokens never
            # enter the queue, so only real events need defusing.
            if isinstance(event, Event):
                event.defuse()
            return
        sim = self.sim
        send = self.generator.send
        # a process started (start_now) from inside another one hands
        # the active slot back to it, not to nobody
        caller = sim._active_process
        sim._active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        target = send(event._value)
                    else:
                        event.defuse()
                        target = self.generator.throw(event._value)
                except StopIteration as stop:
                    # the pooled wakeup points back at this process:
                    # drop it, or every finished process stays in a
                    # reference cycle until a full collection
                    self._target = self._wakeup = None
                    self.succeed(stop.value)
                    break
                except BaseException as exc:
                    self._target = self._wakeup = None
                    self.fail(exc)
                    break

                cls = target.__class__
                if cls is float or cls is int:
                    # Fast path: a bare number is a timeout of that many
                    # seconds, scheduled without allocating an Event.
                    if not target >= 0:  # NaN included
                        exc = ValueError(f"negative delay {target}")
                        event = Event(sim)
                        event._ok = False
                        event._value = exc
                        event._defused = True
                        continue
                    sim._schedule_wakeup(self, target)
                    self._target = self._wakeup
                    break
                if not isinstance(target, Event):
                    exc = TypeError(
                        f"process yielded a non-event: {target!r}"
                    )
                    # Feed the error straight back into the generator.
                    event = Event(sim)
                    event._ok = False
                    event._value = exc
                    event._defused = True
                    continue
                if target.sim is not sim:
                    raise RuntimeError("yielded an event from another simulator")
                if target.callbacks is None:
                    # Already processed: loop immediately with its value.
                    event = target
                    continue
                target.callbacks.append(self._resume)
                self._target = target
                break
        finally:
            sim._active_process = caller
