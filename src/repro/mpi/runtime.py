"""The simulated MPI runtime: processes, groups, transport, launching.

Plays the role ParaStation MPI plays on the prototype: it starts rank
processes on nodes, carries messages over the EXTOLL fabric model, and
implements the global-MPI spawn mechanism used to bridge Cluster and
Booster (section III-A of the paper).

Application code is written as Python generators receiving a
:class:`RankContext`::

    def app(ctx):
        if ctx.world.rank == 0:
            yield from ctx.world.send(data, dest=1)
        else:
            data = yield from ctx.world.recv(source=0)

Sends have buffered (eager-style) completion semantics: a send blocks
for the wire time of the message, never for the matching receive, so
classic head-to-head exchanges cannot deadlock.  The rendezvous
handshake for large messages is charged inside the wire-time model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from ..backoff import ExponentialBackoff
from ..hardware.machine import Machine
from ..hardware.node import Node
from ..network.fabric import NodeFailedError, NoRouteError
from ..sim import Event, Process, Simulator
from ..sim.events import PENDING
from .datatypes import ANY_SOURCE, payload_nbytes
from .errors import CommError, PeerFailedError, RankError, RouteDownError
from .message import Envelope, Mailbox

__all__ = [
    "MPIProcess",
    "GroupState",
    "MPIRuntime",
    "FaultTolerancePolicy",
    "FAULT_RUN_POLICY",
]

#: kernel prices one rank remembers (see :meth:`RankContext.execute`);
#: a caller that builds a new kernel every step empties a full table
PRICE_CACHE_MAX = 64


@dataclass(frozen=True)
class FaultTolerancePolicy:
    """How the runtime reacts to transport failures.

    With no policy attached (the default), a transfer that hits a dead
    node or severed route raises immediately — byte-for-byte the
    pre-fault-tolerance behaviour.

    ``max_retries`` bounds re-attempts per message; between attempts the
    sender backs off ``backoff_base_s * 2**attempt`` seconds of
    simulated time, which doubles as the window in which a restored
    link lets the retry reroute and succeed.  Sends and their retries
    run on simulator callbacks (see :meth:`MPIRuntime.isend`).  The
    delay sequence comes from the shared
    :class:`repro.backoff.ExponentialBackoff` helper — the same
    implementation the experiment-service clients use.
    """

    max_retries: int = 0
    backoff_base_s: float = 1e-3

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("invalid backoff parameters")

    def backoff(self) -> ExponentialBackoff:
        """A fresh delay generator for one message."""
        return ExponentialBackoff(base_s=self.backoff_base_s)


#: the transport policy of every fault-injected run (the engine's and
#: the epoch supervisor's): two retries, 0.1 ms then 0.2 ms apart
FAULT_RUN_POLICY = FaultTolerancePolicy(max_retries=2, backoff_base_s=1e-4)


class MPIProcess:
    """One MPI rank: its pinned node and its matching
    :class:`~repro.mpi.message.Mailbox`.

    Every message sent to the rank, on any communicator, lands in the
    one mailbox; receives and probes match it on (context, source,
    tag), so communicators never see each other's traffic.
    """

    _ids = itertools.count()

    def __init__(self, runtime: "MPIRuntime", node: Node):
        self.gid = next(MPIProcess._ids)
        self.runtime = runtime
        self.node = node
        self.mailbox = Mailbox(runtime.sim)
        self.sim_process: Optional[Process] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MPIProcess gid={self.gid} on {self.node.node_id}>"


class GroupState:
    """Shared state of a communicator's process group.

    Owns two MPI context ids — one for point-to-point traffic, one for
    collectives — so library-internal messages can never match user
    receives (the same trick real MPI implementations use).
    """

    def __init__(self, runtime: "MPIRuntime", procs: List[MPIProcess], name: str):
        if not procs:
            raise CommError("cannot create an empty group")
        self.runtime = runtime
        self.procs = procs
        self.name = name
        self.context_pt2pt = runtime.next_context()
        self.context_coll = runtime.next_context()
        runtime.register_context(self.context_pt2pt, name, "p2p")
        runtime.register_context(self.context_coll, name, "coll")
        # Rendezvous area for collectively-created objects (spawn):
        # op sequence number -> created object.
        self.spawn_results: dict = {}

    @property
    def size(self) -> int:
        """Number of ranks in the group."""
        return len(self.procs)

    def proc(self, rank: int) -> MPIProcess:
        """The member process at a rank (validates the rank)."""
        if not 0 <= rank < len(self.procs):
            raise _rank_error(self, rank)
        return self.procs[rank]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GroupState {self.name!r} size={self.size}>"


def _rank_error(group: GroupState, rank: int) -> RankError:
    """The error for a ``rank`` outside ``group``."""
    return RankError(
        f"rank {rank} out of range for group {group.name!r} "
        f"of size {len(group.procs)}"
    )


class RankContext:
    """Everything one rank's application code needs.

    Attributes
    ----------
    world:
        The rank's view of its ``MPI_COMM_WORLD``.
    node:
        The hardware node this rank is pinned to.
    """

    def __init__(
        self,
        runtime: "MPIRuntime",
        proc: MPIProcess,
        world: "Comm",  # noqa: F821
        parent: Optional["Comm"] = None,  # noqa: F821
    ):
        self.runtime = runtime
        self.proc = proc
        self.world = world
        self._parent = parent
        # (kernel, threads) -> seconds on this rank's node
        self._prices: dict = {}

    @property
    def sim(self) -> Simulator:
        return self.runtime.sim

    @property
    def node(self) -> Node:
        return self.proc.node

    @property
    def rank(self) -> int:
        return self.world.rank

    def compute(self, seconds: float):
        """``seconds`` of local computation, to be yielded by the rank.

        Returns the validated delay itself: yielding a bare number takes
        the simulator's allocation-free timeout fast path.
        """
        if seconds < 0:
            raise ValueError("negative compute time")
        return seconds

    def execute(self, kernel, threads: Optional[int] = None) -> Generator:
        """Run a perf-model kernel on this rank's node (simulated time).

        Returns the modeled duration in seconds.  A rank's node never
        changes, so the duration is priced once per ``(kernel,
        threads)`` and remembered (at most :data:`PRICE_CACHE_MAX`
        prices; a full table starts over).
        """
        key = (kernel, threads)
        prices = self._prices
        duration = prices.get(key)
        if duration is None:
            from ..perfmodel import time_on_node  # late import: avoid cycle

            duration = time_on_node(self.node, kernel, threads=threads)
            if len(prices) >= PRICE_CACHE_MAX:
                prices.clear()
            prices[key] = duration
        yield duration
        return duration

    def get_parent(self) -> Optional["Comm"]:  # noqa: F821
        """The inter-communicator to the spawning application, if any
        (``MPI_Comm_get_parent`` equivalent)."""
        return self._parent


class MPIRuntime:
    """Factory and transport for simulated MPI jobs on one machine."""

    def __init__(
        self,
        machine: Machine,
        fault_tolerance: Optional[FaultTolerancePolicy] = None,
    ):
        self.machine = machine
        self.sim = machine.sim
        self.fabric = machine.fabric
        self.fault_tolerance = fault_tolerance
        self._context_counter = itertools.count(1)
        #: per-context traffic accounting: context_id -> [messages, bytes]
        self.traffic: dict = {}
        #: context id -> (communicator name, "p2p" | "coll"), so traffic
        #: can be reported per communicator instead of per opaque id
        self.contexts: dict = {}
        #: every rank sim-process ever launched (spawned children too) —
        #: lets a supervisor abort a whole job on a fatal fault
        self.launched_processes: List[Process] = []
        # transport fault-tolerance accounting
        self.transport_failures = 0
        self.transport_retries = 0
        self.backoff_time_s = 0.0

    def live_processes(self) -> List[Process]:
        """Launched rank processes that have not finished yet."""
        return [p for p in self.launched_processes if not p.triggered]

    def transport_metrics(self) -> dict:
        """Fault-tolerance counter snapshot for the instrumentation hub."""
        return {
            "failures": self.transport_failures,
            "retries": self.transport_retries,
            "backoff_time_s": self.backoff_time_s,
        }

    def next_context(self) -> int:
        """Allocate a fresh MPI context id."""
        return next(self._context_counter)

    def register_context(self, context_id: int, comm_name: str, kind: str) -> None:
        """Label a context id for per-communicator traffic reporting."""
        self.contexts[context_id] = (comm_name, kind)

    def comm_traffic(self) -> dict:
        """Traffic aggregated per communicator name.

        Returns ``{name: {p2p_messages, p2p_bytes, coll_messages,
        coll_bytes}}``; unregistered contexts appear as ``ctx<N>``.
        """
        out: dict = {}
        for ctx_id, (messages, nbytes) in sorted(self.traffic.items()):
            name, kind = self.contexts.get(ctx_id, (f"ctx{ctx_id}", "p2p"))
            stats = out.setdefault(
                name,
                {
                    "p2p_messages": 0,
                    "p2p_bytes": 0,
                    "coll_messages": 0,
                    "coll_bytes": 0,
                },
            )
            prefix = "coll" if kind == "coll" else "p2p"
            stats[f"{prefix}_messages"] += messages
            stats[f"{prefix}_bytes"] += nbytes
        return out

    # -- transport ---------------------------------------------------------
    def transmit(
        self,
        src_proc: MPIProcess,
        dst_proc: MPIProcess,
        context_id: int,
        source_rank: int,
        tag: int,
        payload: Any,
        nbytes: Optional[int] = None,
    ) -> Generator:
        """Move one message from ``src_proc`` to ``dst_proc`` (a process).

        The blocking send, and the body of an oracle-path :meth:`isend`.
        Without a :class:`FaultTolerancePolicy` this is exactly one
        fabric transfer (failures propagate raw).  With one, transport
        faults surface as typed
        :class:`~repro.mpi.errors.TransportError` subclasses and each
        message is retried with exponential backoff — a restored link or
        rebooted peer lets the retry reroute.  The retry policy is
        :meth:`_retry_delay`, the same one the callback path follows.
        """
        n = payload_nbytes(payload) if nbytes is None else int(nbytes)
        stats = self.traffic.setdefault(context_id, [0, 0])
        stats[0] += 1
        stats[1] += n
        src_id, dst_id = src_proc.node.node_id, dst_proc.node.node_id
        backoff = None
        while True:
            try:
                yield from self.fabric.transfer(src_id, dst_id, n)
                break
            except Exception as exc:
                delay, backoff = self._retry_delay(exc, backoff)
            yield delay
        dst_proc.mailbox.put(
            Envelope(context_id, source_rank, tag, n, payload)
        )

    def isend(
        self,
        src_proc: MPIProcess,
        group: GroupState,
        dest: int,
        context_id: int,
        source_rank: int,
        tag: int,
        payload: Any,
        nbytes: Optional[int] = None,
    ) -> Event:
        """Post a non-blocking send to rank ``dest`` of ``group``.

        Returns the event that fires when the send completes (fails
        with the transport error otherwise: a ``RankError`` for a bad
        ``dest``, ``NodeFailedError`` without a policy, a typed
        :class:`~repro.mpi.errors.TransportError` once a policy's
        retries are spent).

        The send starts at the call, as ``MPI_Isend`` does: it is sized,
        counted and makes its first transfer attempt before this
        returns, so it claims its route (or queues on a busy link) at
        the instant it is posted, and posting order decides a race for
        a link between sends posted at the same instant.  Sends run on
        callbacks (:class:`_Send`) with no sim process, retries under a
        :class:`FaultTolerancePolicy` included.  A fabric with
        ``fast_path_enabled = False`` (the verification oracle) runs
        each send as a process over :meth:`transmit` instead, started in
        place (:meth:`Process.start_now`) so it too begins when posted.
        """
        if not self.fabric.fast_path_enabled:
            return Process.start_now(
                self.sim,
                self._send(
                    src_proc, group, dest, context_id, source_rank, tag,
                    payload, nbytes,
                ),
            )
        return _Send(
            self, src_proc, group, dest, context_id, source_rank, tag,
            payload, nbytes,
        )

    def exchange(
        self,
        src_proc: MPIProcess,
        group: GroupState,
        dest: int,
        context_id: int,
        source_rank: int,
        sendtag: int,
        payload: Any,
        source: int,
        recvtag: int,
        nbytes: Optional[int] = None,
    ) -> Event:
        """Post one send+receive round: a send to rank ``dest`` of
        ``group``, then a receive from ``source`` (a rank of ``group``
        or ``ANY_SOURCE``) with ``recvtag``, both on ``context_id``.

        Returns one event.  It succeeds with the received
        :class:`~repro.mpi.message.Envelope` once the send is complete
        and the receive has matched, whichever comes last; it fails
        with the send's error (as :meth:`isend`'s event would) the
        moment the send fails, and its receive is then withdrawn, so a
        later matching message stays for another receive.  A rank
        interrupted while it waits abandons the round: the round never
        resumes it, and its receive takes no message.

        An out-of-range ``dest`` or ``source`` raises
        :class:`RankError` here, before anything is posted.  The send
        starts at the call, exactly as :meth:`isend`'s does, and the
        path choice is :meth:`isend`'s: on callbacks, the round is the
        send itself (:class:`_SendRound`), whose completion and the
        mailbox's delivery complete the round directly, so a round
        message costs two queue entries, the send's completion callback
        and the round event.  The oracle (``fast_path_enabled =
        False``) runs the send as a process over :meth:`transmit` that
        completes the round when it ends.
        """
        procs = group.procs
        if not 0 <= dest < len(procs):
            raise _rank_error(group, dest)
        if source != ANY_SOURCE and not 0 <= source < len(procs):
            raise _rank_error(group, source)
        if not self.fabric.fast_path_enabled:
            rnd = _Round(self.sim)
            Process.start_now(
                self.sim,
                self._send_round(
                    rnd, src_proc, procs[dest], context_id, source_rank,
                    sendtag, payload, nbytes,
                ),
            )
        else:
            rnd = _SendRound(
                self, src_proc, group, dest, context_id, source_rank,
                sendtag, payload, nbytes,
            )
        if rnd._value is PENDING:  # else the send failed at the post
            src_proc.mailbox.post(rnd, context_id, source, recvtag)
        return rnd

    def _send(
        self, src_proc, group, dest, context_id, source_rank, tag, payload,
        nbytes,
    ) -> Generator:
        """Process body of an oracle-path :meth:`isend`."""
        yield from self.transmit(
            src_proc, group.proc(dest), context_id, source_rank, tag,
            payload, nbytes=nbytes,
        )

    def _send_round(
        self, rnd, src_proc, dst_proc, context_id, source_rank, tag,
        payload, nbytes,
    ) -> Generator:
        """Process body of an oracle-path :meth:`exchange`: the send,
        then its half of the round."""
        try:
            yield from self.transmit(
                src_proc, dst_proc, context_id, source_rank, tag, payload,
                nbytes=nbytes,
            )
        except Exception as exc:
            rnd._error(exc)
        else:
            rnd._sent()

    def _retry_delay(
        self, exc: Exception, backoff: Optional[ExponentialBackoff]
    ) -> Tuple[float, ExponentialBackoff]:
        """The retry policy both send drivers follow: account one failed
        transfer attempt of a message and return ``(delay, backoff)``
        for the next attempt.

        ``backoff`` is the message's delay generator, ``None`` until its
        first failure builds one.  Raises ``exc`` unchanged when the
        runtime has no policy or ``exc`` is no transport fault, and the
        typed error (``NodeFailedError`` -> :class:`PeerFailedError`, no
        route -> :class:`RouteDownError`) once ``max_retries`` retries
        are spent.
        """
        policy = self.fault_tolerance
        if policy is None:
            raise exc
        if isinstance(exc, NodeFailedError):
            error = PeerFailedError(str(exc))
        elif isinstance(exc, NoRouteError):
            error = RouteDownError(str(exc))
        else:
            raise exc
        self.transport_failures += 1
        if backoff is None:
            backoff = policy.backoff()
        if backoff.attempt == policy.max_retries:
            raise error
        self.transport_retries += 1
        delay = backoff.next_delay()
        self.backoff_time_s += delay
        return delay, backoff

    # -- launching ---------------------------------------------------------
    def _place(
        self, nodes: Sequence[Node], nprocs: int, procs_per_node: int
    ) -> List[Node]:
        if nprocs <= 0:
            raise ValueError("need at least one process")
        if procs_per_node <= 0:
            raise ValueError("procs_per_node must be positive")
        capacity = len(nodes) * procs_per_node
        if nprocs > capacity:
            raise ValueError(
                f"cannot place {nprocs} ranks on {len(nodes)} nodes "
                f"({procs_per_node} per node)"
            )
        placement = []
        for i in range(nprocs):
            placement.append(nodes[i // procs_per_node])
        return placement

    def launch(
        self,
        app: Callable[[RankContext], Generator],
        nodes: Sequence[Node],
        nprocs: Optional[int] = None,
        procs_per_node: int = 1,
        name: str = "world",
        parent_maker: Optional[Callable[[GroupState, int], "Comm"]] = None,  # noqa: F821
    ) -> List[Process]:
        """Start ``nprocs`` ranks of ``app`` over ``nodes``.

        Returns one sim :class:`Process` per rank; each succeeds with
        the application generator's return value.  ``parent_maker`` is
        used internally by spawn to hand children their parent
        inter-communicator.
        """
        from .communicator import Comm  # late import: avoid cycle

        nprocs = nprocs if nprocs is not None else len(nodes) * procs_per_node
        placement = self._place(nodes, nprocs, procs_per_node)
        procs = [MPIProcess(self, node) for node in placement]
        group = GroupState(self, procs, name=name)
        sim_procs = []
        for rank, proc in enumerate(procs):
            world_view = Comm(group, rank)
            parent = parent_maker(group, rank) if parent_maker else None
            ctx = RankContext(self, proc, world_view, parent=parent)
            proc.sim_process = self.sim.process(app(ctx))
            sim_procs.append(proc.sim_process)
        self.launched_processes.extend(sim_procs)
        return sim_procs

    def run_app(
        self,
        app: Callable[[RankContext], Generator],
        nodes: Sequence[Node],
        nprocs: Optional[int] = None,
        procs_per_node: int = 1,
        until: Optional[float] = None,
    ) -> List[Any]:
        """Launch, run the simulation to completion, return rank results."""
        sim_procs = self.launch(
            app, nodes, nprocs=nprocs, procs_per_node=procs_per_node
        )
        self.sim.run(until=until)
        unfinished = [i for i, p in enumerate(sim_procs) if not p.triggered]
        if unfinished:
            raise RuntimeError(
                f"ranks {unfinished} never completed "
                "(deadlock or missing message?)"
            )
        return [p.value for p in sim_procs]


class _Send(Event):
    """One non-blocking send on the callback path; the event itself is
    the send's completion (what the request waits on).

    It starts when it is posted: the constructor resolves the
    destination rank, accounts the message, builds its envelope and
    makes the first transfer attempt (:meth:`_attempt`), which claims
    the route and pushes the completion entry.  Uncontended and
    fault-free the send is then one callback: the completion entry
    (:meth:`_finish`, at ``now + duration``) gives the links back,
    counts the transfer, delivers the envelope and completes the send
    (:meth:`_sent`, which schedules the event itself).  So such a
    message costs two queue entries, its completion callback and its
    own event; the mailbox delivery creates none.

    An error before the first attempt (a bad ``dest`` or ``nbytes``)
    fails the send at once (:meth:`_error`), as a send process's exit
    would: a waiter gets it raised, otherwise ``sim.run()`` does.

    An attempt that fails under a :class:`FaultTolerancePolicy` backs
    off on a callback: :meth:`MPIRuntime._retry_delay` maps and counts
    the error and gives the delay, and the retry entry (another
    :meth:`_attempt`) sits where a send process's bare-delay backoff
    wakeup would.  Once the retries are spent, the typed error fails
    the send as the process's exit would have.

    A route an attempt finds contended still needs per-link FIFO
    queueing; that part runs in a process started in place
    (:meth:`Process.start_now`), so its link requests join the queues
    at the instant of the attempt.
    """

    __slots__ = (
        "runtime", "src_proc", "dst_proc", "env", "rc", "t0", "backoff",
    )

    #: how the send completes and fails: as this event (a round
    #: overrides both, see :class:`_RoundHalves`)
    _sent = Event.succeed
    _error = Event.fail

    def __init__(
        self, runtime, src_proc, group, dest, context_id, source_rank, tag,
        payload, nbytes,
    ):
        # Event.__init__, inlined (one send per message): every Event
        # slot is set here
        self.sim = runtime.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.abandoned = False
        self.runtime = runtime
        self.src_proc = src_proc
        self.backoff = None
        # GroupState.proc and the traffic count, inlined
        procs = group.procs
        try:
            if not 0 <= dest < len(procs):
                raise _rank_error(group, dest)
            nbytes = payload_nbytes(payload) if nbytes is None else int(nbytes)
        except Exception as exc:
            self._error(exc)
            return
        self.dst_proc = procs[dest]
        traffic = runtime.traffic
        stats = traffic.get(context_id)
        if stats is None:
            stats = traffic[context_id] = [0, 0]
        stats[0] += 1
        stats[1] += nbytes
        self.env = Envelope(context_id, source_rank, tag, nbytes, payload)
        self._attempt(None)

    def _attempt(self, _entry) -> None:
        """One transfer attempt: the first when the send is posted,
        each retry from its own backoff entry."""
        runtime = self.runtime
        sim = self.sim
        try:
            duration, self.rc, claimed = runtime.fabric.begin_transfer(
                self.src_proc.node.node_id,
                self.dst_proc.node.node_id,
                self.env.nbytes,
            )
        except Exception as exc:
            # back off and retry as a send process would, or fail the
            # request with the error its exit would have carried
            try:
                delay, self.backoff = runtime._retry_delay(exc, self.backoff)
            except Exception as error:
                self._error(error)
                return
            sim.call_in(delay, self._attempt)
            return
        if claimed:
            self.t0 = sim._now
            sim.call_in(duration, self._finish)
        else:
            Process.start_now(sim, self._queued(duration))

    def _queued(self, duration: float) -> Generator:
        self.t0 = yield from self.runtime.fabric.queue_transfer(
            self.rc, duration
        )
        self._finish(None, held=False)

    def _finish(self, _entry, held: bool = True) -> None:
        """Complete the send: give the route's links back (unless
        :meth:`~repro.network.fabric.Fabric.queue_transfer` already did,
        ``held=False``), count the transfer, deliver the envelope and
        complete (:meth:`_sent`).  The fabric's ``release_route`` and
        ``end_transfer`` are inlined here: this runs once per
        message."""
        fabric = self.runtime.fabric
        rc = self.rc
        env = self.env
        fabric.messages_transferred += 1
        if rc is not None:  # an intra-node copy holds and counts no link
            nbytes = env.nbytes
            if held:
                # a claimed route holds one slot on each of its links:
                # a link nobody queues on just takes its slot back
                for r in rc.resources:
                    if r._waiting:
                        r.release_slot()
                    else:
                        r._in_use -= 1
            for link in rc.links:
                link.bytes_carried += nbytes
                link.messages_carried += 1
            if fabric.tracer is not None:
                fabric.trace_transfer(
                    self.src_proc.node.node_id, self.dst_proc.node.node_id,
                    rc, self.t0,
                )
            fabric.bytes_transferred += nbytes
        self.dst_proc.mailbox.put(env)
        self._sent()


class _RoundHalves:
    """The join of an exchange round (see :meth:`MPIRuntime.exchange`):
    the event succeeds with the received envelope once the send half
    (:meth:`_sent`) and the receive half (:meth:`_deliver`, called by
    the mailbox) are both done, and fails with the send's error
    (:meth:`_error`) as soon as the send fails.

    A mixin: the two round classes declare its ``received`` (the
    matched envelope, ``None`` until then) and ``sent`` slots.
    """

    __slots__ = ()

    def _deliver(self, env: Envelope) -> None:
        """The receive matched ``env``."""
        if self.sent:
            self.succeed(env)
        else:
            self.received = env

    def _sent(self) -> None:
        """The send completed: its envelope is in the peer's mailbox."""
        env = self.received
        if env is None:
            self.sent = True
        else:
            self.succeed(env)

    def _error(self, exc: BaseException) -> None:
        """The send failed: fail the round and withdraw its receive."""
        self.abandoned = True  # the mailbox drops the posted receive
        self.fail(exc)


class _Round(_RoundHalves, Event):
    """An exchange round whose send runs as a process
    (:meth:`MPIRuntime._send_round`)."""

    __slots__ = ("received", "sent")

    def __init__(self, sim: Simulator):
        Event.__init__(self, sim)
        self.received = None
        self.sent = False


class _SendRound(_RoundHalves, _Send):
    """An exchange round on the callback path: the send itself, whose
    completion and failure are the round's halves."""

    __slots__ = ("received", "sent")

    def __init__(self, *args):
        self.received = None
        self.sent = False
        _Send.__init__(self, *args)
