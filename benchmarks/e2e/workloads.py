"""The four end-to-end workloads and the counters read from their output.

Every workload drives the program's public API from the calling thread
and has two arms, ``main`` and ``ref``, whose operations it times one
by one:

============== ========================================= ====================================
workload       main                                      ref
============== ========================================= ====================================
cb_run         ``Engine().run`` of C+B 8+8, 200 steps    the same run on Cluster 8, the
                                                         paper's reference configuration
paper_validate ``validate_claims(steps=100)`` at         the same at ``workers=1``
               ``workers=nproc``
fault_recover  C+B 8+8, 150 steps, losing two Booster    the same fault on the static
               nodes, ``malleability={"enabled": True}`` resilient path
fleet_dup      one cold pass of 250 new requests         a warm pass: 1000 requests that
               through the fleet (runs, store puts)      are all store hits
============== ========================================= ====================================

A *request* is one call a client waits for: one fleet request on
``fleet_dup``, one ``main`` operation on the other workloads.

A ``make_<workload>`` function turns the seed into the inputs; the
program receives only those.  Sizes are keyword arguments so the smoke
test can shrink them.  A workload returns an :class:`Outcome`: the
timings, the correctness checks, and the documents the program
published (run reports, fleet metrics, store statistics) from which
:func:`layer_counters` reads the per-layer counts.

Host speed.  On the shared 2-CPU VM the benchmark was written for, the
speed of a CPU depends on what other tenants run next to it and
changes within seconds: the same operation took from 1x to 2.2x its
fastest time within an hour.  So each operation is timed with speed
readings (:func:`speed_reading`) taken by the thread that runs it:
right before it, right after it, and every :data:`SAMPLE_EVERY_S`
while it runs (:class:`SpeedSampler`).  Its time is scaled to the
reference host: (wall seconds - the readings' CPU seconds) *
:data:`REFERENCE_READING_S` / (mean reading).  A reading times four
fixed pure-Python kernels, each stressing one thing the simulator
spends its time on (the interpreter loop, a tiny event simulation,
allocation, reads over a table larger than the caches), and takes
their geometric mean.  One kernel alone over- or under-reacts to the
host: over 20-second windows whose median run time spread by 33%, run
time over one kernel's time still spread by 5-14%, and over the
geometric mean by 2-3%.  The kernels are benchmark code and never
change with the program, so a change to the program moves a scaled
time as much as the wall time.  The operations are short (0.5-1.5 s)
so that a run holds many of them and reports their median.  An arm in
:attr:`Outcome.unscaled` is reported as measured, because the CPU's
speed does not set its pace.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional

from repro.engine import Engine, ExperimentSpec
from repro.fleet import FleetRouter, LocalShard
from repro.fleet.metrics import invariant_holds
from repro.resiliency import FaultEvent, FaultPlan
from repro.serve import ExperimentService, QueueFull
from repro.store import ResultCache
from repro.store.keys import cache_key
from repro.validate import validate_claims

NPROC = len(os.sched_getaffinity(0))

#: seconds a speed reading takes on the reference host, a 2-CPU Intel
#: Xeon VM running CPython 3.11, at the fastest it was seen to run
REFERENCE_READING_S = 0.0015

#: how often a speed sampler takes a reading while an operation runs
SAMPLE_EVERY_S = 0.1

#: the warm phase of fleet_dup lasts at least this long
WARM_MIN_S = 1.0

#: how long the fleet client sleeps between polls of its open requests
POLL_S = 0.0005

#: report fields that hold host timings; every other byte of a report
#: is deterministic
HOST_TIMING_FIELDS = ("wall_time_s", "events_per_sec", "host_wall_s")

clock = time.perf_counter


# -- host speed ---------------------------------------------------------------


def _kernel_loop(n: int = 1500) -> float:
    """Interpreter work: generator resumes, heap pushes and pops, dict
    updates, attribute access."""

    class Item:
        __slots__ = ("t", "v")

        def __init__(self, t, v):
            self.t = t
            self.v = v

    def gen(k):
        x = 0.0
        for i in range(k):
            x += i * 0.5
            yield x

    heap: list = []
    counts: dict = {}
    acc = 0.0
    for i in range(n):
        for v in gen(8):
            acc += v
        item = Item(i * 1.1 % 97, acc)
        heapq.heappush(heap, (item.t, i, item))
        counts[i % 257] = counts.get(i % 257, 0) + 1
        if len(heap) > 64:
            acc -= heapq.heappop(heap)[2].v * 1e-9
    return acc


def _kernel_events(procs: int = 12, steps: int = 40) -> int:
    """A tiny discrete-event simulation: generator processes that
    compute, send a message and receive one, ordered by a heap of
    timestamps."""

    class Msg:
        __slots__ = ("src", "dst", "size", "t")

        def __init__(self, src, dst, size, t):
            self.src, self.dst, self.size, self.t = src, dst, size, t

    inbox: dict = {}
    sent = [0, 0]
    now = 0.0

    def proc(i):
        for s in range(steps):
            yield 1.0 + ((i * 7 + s) % 5) * 0.1
            msg = Msg(i, (i + 1 + s) % procs, 1024 * (s % 4 + 1), now)
            inbox.setdefault(msg.dst, []).append(msg)
            sent[0] += 1
            sent[1] += msg.size
            box = inbox.get(i)
            if box:
                yield box.pop().size * 1e-6

    heap = [(0.0, i, proc(i)) for i in range(procs)]
    seq = procs
    while heap:
        now, _, g = heapq.heappop(heap)
        try:
            delay = next(g)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, g))
    return sent[0]


def _kernel_alloc(n: int = 3000) -> int:
    """Allocation and release of small containers."""
    out = []
    for i in range(n):
        out.append((i, [i, i + 1], {"a": i}))
    return len(out)


#: a table of about 5 MB, larger than a core's caches, and the order in
#: which _kernel_mem reads it; built by the first reading
_TABLE: dict = {}
_ORDER: list = []
_NEXT = [0]


def _kernel_mem(n: int = 3000) -> float:
    """Reads at random places of a table larger than the caches; each
    call reads the next ``n`` places of a fixed random order, so a
    reading rarely finds the places the last one read still cached."""
    if not _TABLE:
        _TABLE.update((i, (i, float(i), str(i))) for i in range(25_000))
        _ORDER.extend(random.Random(1).sample(range(25_000), 25_000))
    start = _NEXT[0]
    _NEXT[0] = (start + n) % (len(_ORDER) - n)
    acc = 0.0
    for k in _ORDER[start:start + n]:
        acc += _TABLE[k][1]
    return acc


KERNELS = (_kernel_loop, _kernel_events, _kernel_alloc, _kernel_mem)


def speed_reading(repeats: int = 1) -> float:
    """How fast this thread runs now: the geometric mean of the CPU
    seconds each kernel of :data:`KERNELS` takes, averaged over
    ``repeats`` readings.  CPU time leaves out waits for the interpreter
    lock.  The garbage collector is off meanwhile: the kernels'
    allocations would otherwise set off collections of the program's
    heap, whose cost grows with the heap, not with the host's speed."""
    if not _TABLE:
        _kernel_mem(1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        readings = []
        for _ in range(repeats):
            logs = 0.0
            for kernel in KERNELS:
                t0 = time.thread_time()
                kernel()
                logs += math.log(max(time.thread_time() - t0, 1e-9))
            readings.append(math.exp(logs / len(KERNELS)))
    finally:
        if enabled:
            gc.enable()
    return statistics.fmean(readings)


class SpeedSampler:
    """Speed readings taken while an operation runs, by the thread that
    runs it, inside a ``with`` block.

    An interval timer interrupts the main thread every
    :data:`SAMPLE_EVERY_S` and the signal handler takes a reading, so
    each reading runs on the CPU the operation runs on.  (A sampler
    thread of its own may run on the other CPU, whose speed is not the
    operation's.)  :attr:`marks` holds ``(time, reading, cpu_s)`` per
    reading: when it ended, its value, and the CPU time it took, to be
    taken off the time of whatever was running.  In any thread but the
    main one, which cannot receive signals, or when not ``active``, the
    block takes no readings.
    """

    def __init__(self, active: bool = True):
        self.marks: List[tuple] = []
        self._active = active
        self._busy = False
        self._saved = None

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a reading outlasted the period
            return
        self._busy = True
        try:
            t0 = time.thread_time()
            reading = speed_reading()
            self.marks.append((clock(), reading, time.thread_time() - t0))
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        if self._active and threading.current_thread() is threading.main_thread():
            self._saved = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._saved is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._saved)


class Outcome:
    """What one workload run measured, checked and saw published."""

    def __init__(self, scaled: bool = True):
        #: seconds of each successful operation, by arm, scaled to the
        #: reference host
        self.times: Dict[str, List[float]] = {"main": [], "ref": []}
        #: wall seconds of the same operations, readings taken off
        self.walls: Dict[str, List[float]] = {"main": [], "ref": []}
        #: seconds of each fleet request, scaled by the readings taken
        #: while it was open
        self.requests: List[float] = []
        #: whether operations are timed with speed readings at all (a
        #: traced run takes none)
        self.scaled = scaled
        #: arms whose times are reported as measured, not scaled by the
        #: host's speed (see the workload for why)
        self.unscaled: set = set()
        #: the speed readings of the last operation, as
        #: ``(time, reading, cpu_s)``; empty when it took none
        self.track: List[tuple] = []
        #: total wall seconds spent in each arm's operations, readings
        #: taken off
        self.wall: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        #: digest of each result, by name; the traced run must reproduce
        #: every one of them
        self.results: Dict[str, str] = {}
        self._mismatched: set = set()
        #: RunReports the program returned (per-layer counters)
        self.reports: list = []
        #: FleetRouter.metrics_snapshot() and ResultCache.stats() per shard
        self.fleet: dict = {}
        self.stores: List[dict] = []
        #: serial over pooled time per worker (paper_validate only)
        self.pool_efficiency = 0.0
        self.diagnostics: dict = {}

    def timed(self, arm: str, call: Callable):
        """Run and time one operation of ``arm``; return its value, or
        None when it raised (the failure is counted and its traceback
        printed).

        Unless the arm is unscaled, speed readings are taken right
        before and right after the operation and by a
        :class:`SpeedSampler` while it runs, and its time is
        :meth:`scaled_span` of it."""
        read = self.scaled and arm not in self.unscaled
        before = speed_reading() if read else 0.0
        t0 = clock()
        with SpeedSampler(active=read) as sampler:
            try:
                value = call()
            except Exception:  # noqa: BLE001 - a failed operation is counted
                traceback.print_exc(file=sys.stderr)
                self.attempted += 1
                self.failed += 1
                value = None
        t1 = clock()
        self.track = (
            [(t0, before, 0.0), *sampler.marks, (t1, speed_reading(), 0.0)]
            if read else []
        )
        seconds = t1 - t0 - sum(m[2] for m in sampler.marks)
        self.wall[arm] = self.wall.get(arm, 0.0) + seconds
        if value is not None:
            self.times[arm].append(self.scaled_span(t0, t1))
            self.walls[arm].append(seconds)
        return value

    def scaled_span(self, start: float, end: float) -> float:
        """Reference-host seconds of the span from ``start`` to ``end``
        (:data:`clock` times) within the last operation: its wall time
        less the CPU time of the readings taken in it, times
        :data:`REFERENCE_READING_S` over their mean (over the nearest
        reading's value when none was taken in it)."""
        if not self.track:
            return end - start
        inside = [m for m in self.track if start <= m[0] <= end]
        spent = sum(m[2] for m in inside)
        if not inside:
            mid = (start + end) / 2
            inside = [min(self.track, key=lambda m: abs(m[0] - mid))]
        speed = REFERENCE_READING_S / statistics.fmean(m[1] for m in inside)
        return (end - start - spent) * speed

    def request_times(self) -> List[float]:
        """Scaled seconds of each request: each fleet request, or each
        ``main`` operation on the other workloads."""
        return self.requests or self.times["main"]

    def record(self, name: str, payload, report=None) -> None:
        """Keep a digest of the first result under ``name``, and its
        ``report`` for the per-layer counters; flag any later result
        that differs.  Only the first report is kept, so memory does not
        grow with the number of operations a run fits."""
        digest = _digest(json.dumps(payload, sort_keys=True))
        if name not in self.results:
            self.results[name] = digest
            if report is not None:
                self.reports.append(report)
        elif self.results[name] != digest:
            self._mismatched.add(name)

    @property
    def results_consistent(self) -> bool:
        """Whether every repeat of a result equalled its first copy."""
        return bool(self.results) and not self._mismatched


def rounds(arms, seconds: float, once: bool):
    """Arm names, one of each per round: one round when ``once``, else
    rounds while the next one, as long as the last, ends within
    ``seconds``."""
    t0 = clock()
    while True:
        r0 = clock()
        yield from arms
        now = clock()
        if once or (now - t0) + (now - r0) > seconds:
            return


def canonical_report(report) -> str:
    """A report's JSON without its host timings: equal for equal runs."""
    d = report.to_dict()
    d["sim"] = {
        k: v for k, v in d["sim"].items() if k not in HOST_TIMING_FIELDS
    }
    return json.dumps(d, sort_keys=True)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- cb_run -------------------------------------------------------------------


def make_cb_run(seed: int, steps: int = 200, nodes: int = 8) -> dict:
    """The paper's headline C+B run and its Cluster-only reference."""
    spec_seed = random.Random(seed).randrange(1, 2**31)
    return {
        arm: ExperimentSpec(
            mode=mode, nodes_per_solver=nodes, steps=steps, seed=spec_seed
        )
        for arm, mode in (("main", "C+B"), ("ref", "Cluster"))
    }


def cb_run(inputs: dict, seconds: float, once: bool = False,
           traced: bool = False, **_) -> Outcome:
    """Uncached runs of both specs, after one discarded C+B run."""
    out = Outcome(scaled=not traced)
    if not once:
        Engine().run(inputs["main"])  # discarded warm-up
    for arm in rounds(("main", "ref"), seconds, once):
        report = out.timed(arm, lambda: Engine().run(inputs[arm]))
        if report is not None:
            out.attempted += 1
            out.record(arm, report.result, report)
    out.checks["cb_run.identical_results"] = out.results_consistent
    return out


# -- paper_validate -----------------------------------------------------------


def make_paper_validate(seed: int, steps: int = 100,
                        workers: Optional[int] = None) -> dict:
    """``validate_claims`` takes no seed: the evaluation is the paper's
    and the seed only names the run.  Every claim passes from 20 steps
    on; 100 steps keep a pass near a second."""
    return {"steps": steps, "workers": {"main": workers or NPROC, "ref": 1}}


def paper_validate(inputs: dict, seconds: float, once: bool = False,
                   traced: bool = False, **_) -> Outcome:
    """Pool children are not profiled, so a traced run is serial only.
    A round runs the pooled pass three times: its time varies about
    three times as much from pass to pass as the serial one's, because
    the speed readings are taken on one CPU and the pool runs on all."""
    out = Outcome(scaled=not traced)
    steps, workers = inputs["steps"], inputs["workers"]
    arms = ("ref",) if traced else ("main", "ref", "main", "main")
    all_pass = True
    for arm in rounds(arms, seconds, once):
        claims = out.timed(
            arm, lambda: validate_claims(steps=steps, workers=workers[arm])
        )
        if claims is None:
            all_pass = False
            continue
        out.attempted += len(claims)
        out.failed += sum(1 for c in claims if not c.passed)
        all_pass = all_pass and len(claims) > 0 and all(c.passed for c in claims)
        # one name for both widths: each claim must measure the same
        out.record("claims", [(c.claim_id, c.measured) for c in claims])
    out.checks["paper_validate.all_claims_pass"] = all_pass
    out.checks["paper_validate.widths_agree"] = out.results_consistent
    if out.walls["main"] and out.walls["ref"]:
        out.pool_efficiency = statistics.median(out.walls["ref"]) / (
            workers["main"] * statistics.median(out.walls["main"])
        )
    return out


# -- fault_recover ------------------------------------------------------------


def make_fault_recover(seed: int, steps: int = 150, nodes: int = 8,
                       window=(0.80, 0.84), ckpt_interval_s: float = 0.5) -> dict:
    """Two Booster nodes crash at one time drawn from ``window``.

    The two nodes are never neighbours on the ring of buddy
    checkpoints, so the checkpoint survives.  The window sits just
    after the first checkpoint of the C+B 8+8 run (step 58, at 0.68 s),
    so the crash strikes near step 70 of 150, and is narrow: across
    0.8-1.2 s the work lost to the crash grows from 0.12 to 0.51
    simulated seconds and the checkpoint count changes, so a wider
    window would make host time depend on the seed as much as on the
    code.
    """
    if nodes < 4:
        raise ValueError("fault_recover needs at least 4 Booster nodes")
    rng = random.Random(seed)
    first = rng.randrange(nodes)
    second = rng.choice(
        [i for i in range(nodes) if (i - first) % nodes not in (0, 1, nodes - 1)]
    )
    victims = [f"bn{i:02d}" for i in sorted((first, second))]
    when = rng.uniform(*window)
    plan = FaultPlan(
        [FaultEvent(time_s=when, kind="node_crash", target=v) for v in victims]
    )
    base = dict(
        mode="C+B",
        nodes_per_solver=nodes,
        steps=steps,
        seed=rng.randrange(1, 2**31),
        fault_plan=plan.to_dict(),
        ckpt_interval_s=ckpt_interval_s,
    )
    return {
        "main": ExperimentSpec(**base, malleability={"enabled": True}),
        "ref": ExperimentSpec(**base),
        "steps": steps,
        "victims": victims,
        "fault_time_s": when,
    }


def _completed_steps(report) -> int:
    res = report.resiliency
    restored = res.get("restored_steps") or [0]
    return restored[-1] + res.get("post_fault", {}).get("steps", 0)


def fault_recover(inputs: dict, seconds: float, once: bool = False,
                  traced: bool = False, **_) -> Outcome:
    """Fault-injected runs of both arms."""
    out = Outcome(scaled=not traced)
    out.diagnostics.update(
        victims=inputs["victims"], fault_time_s=inputs["fault_time_s"]
    )
    steps = inputs["steps"]
    completed = repartitioned = True
    for arm in rounds(("main", "ref"), seconds, once):
        report = out.timed(arm, lambda: Engine().run(inputs[arm]))
        if report is None:
            completed = False
            continue
        out.attempted += 1
        out.record(arm, report.result, report)
        completed = (
            completed
            and report.result.get("steps") == steps
            and _completed_steps(report) == steps
        )
        if arm == "main":
            repartitioned = repartitioned and (
                report.malleability.get("repartitions_count", 0) >= 1
            )
    out.checks["fault_recover.all_steps_completed"] = completed
    out.checks["fault_recover.malleable_repartitioned"] = repartitioned
    out.checks["fault_recover.identical_results"] = out.results_consistent
    return out


# -- fleet_dup ----------------------------------------------------------------

_SHAPES = [(m, n) for m in ("C+B", "Cluster", "Booster") for n in (1, 2, 4)]


def _request_sequence(rng: random.Random, requests: int, unique_share: float,
                      recent: int, steps) -> tuple:
    """``requests`` specs in which ``unique_share`` are new and each
    other one repeats one of the ``recent`` newest; and the new ones."""
    n_unique = max(1, round(requests * unique_share))
    lo, hi = steps
    shapes = [
        (*_SHAPES[u % len(_SHAPES)], lo + (u * (hi - lo)) // max(1, n_unique - 1))
        for u in range(n_unique)
    ]
    rng.shuffle(shapes)
    fresh = iter(
        ExperimentSpec(mode=m, nodes_per_solver=n, steps=s,
                       seed=rng.randrange(1, 2**31))
        for m, n, s in shapes
    )
    new_at = {0} | set(rng.sample(range(1, requests), n_unique - 1))
    unique: list = []
    sequence: list = []
    for i in range(requests):
        if i in new_at:
            unique.append(next(fresh))
            sequence.append(unique[-1])
        else:
            sequence.append(rng.choice(unique[-recent:]))
    return sequence, unique


def make_fleet_dup(seed: int, requests: int = 250, unique_share: float = 0.4,
                   recent: int = 32, steps=(20, 80), samples: int = 5,
                   passes: int = 12, warm_repeats: int = 4) -> dict:
    """``passes`` request sequences for the cold passes, each with specs
    of its own, so that every cold pass is a fleet's first sight of its
    specs.

    The shapes of the unique specs (mode, nodes, steps) are the same
    set in every sequence and for every seed, so every pass asks for
    the same amount of simulation; the seed sets their order, their
    spec seeds, where the repeats fall and what they repeat.  A warm
    pass replays the first sequence ``warm_repeats`` times.
    """
    rng = random.Random(seed)
    sequences = []
    for _ in range(passes):
        sequence, unique = _request_sequence(
            rng, requests, unique_share, recent, steps
        )
        sequences.append(sequence)
        if len(sequences) == 1:
            first_unique = unique
    return {
        "passes": sequences,
        "warm": sequences[0] * warm_repeats,
        "sampled": rng.sample(first_unique, min(samples, len(first_unique))),
        "window": 32,
    }


class Fleet:
    """A FleetRouter over ``NPROC`` LocalShards in a fresh directory."""

    def __init__(self, workdir):
        self.root = tempfile.mkdtemp(prefix="fleet-", dir=workdir)
        self.router = FleetRouter(
            [
                LocalShard(f"shard{i}", os.path.join(self.root, f"shard{i}"),
                           max_queue=64)
                for i in range(NPROC)
            ]
        ).start()
        self._stopped = False

    def stop(self) -> None:
        """Shut the fleet down and delete its directory; once."""
        if not self._stopped:
            self._stopped = True
            self.router.shutdown(drain=False)
            shutil.rmtree(self.root, ignore_errors=True)


def _closed_loop(router, sequence, window: int, out: Outcome,
                 spans: list) -> list:
    """Send ``sequence`` keeping ``window`` requests open; each request
    is timed from submit until this thread sees it done, as a
    ``(start, end)`` span into ``spans``.  Returns the RunReport of
    each request (None where it failed)."""
    reports: list = [None] * len(sequence)
    pending: dict = {}
    nxt = 0
    while nxt < len(sequence) or pending:
        while nxt < len(sequence) and len(pending) < window:
            out.attempted += 1
            t0 = clock()
            try:
                job = router.submit(sequence[nxt])
            except QueueFull:
                out.failed += 1
            except Exception:  # noqa: BLE001 - a refused request is counted
                traceback.print_exc(file=sys.stderr)
                out.failed += 1
            else:
                pending[job] = (t0, nxt)
            nxt += 1
        done = [job for job in pending if job.done()]
        if not done:
            time.sleep(POLL_S)
            continue
        now = clock()
        for job in done:
            t0, i = pending.pop(job)
            if job.exception(timeout=0) is not None:
                out.failed += 1
                continue
            spans.append((t0, now))
            reports[i] = job.result(timeout=0)
    return reports


def fleet_dup(inputs: dict, seconds: float, once: bool = False,
              traced: bool = False, fleet: Optional[Fleet] = None,
              workdir=None, **_) -> Outcome:
    """Cold passes, then warm passes, through one fleet.

    A cold pass (``main``) sends the next sequence of ``passes``: specs
    the fleet has not seen, so it runs them, puts them in the store and
    appends to the journals.  Cold passes follow one another while the
    next is expected to end :data:`WARM_MIN_S` before ``seconds``.
    Warm passes (``ref``) then replay the ``warm`` sequence, every
    request a store hit, until ``seconds`` have passed and for at least
    :data:`WARM_MIN_S`.  With ``once``, one pass of each.  ``fleet``,
    when given, is the fleet to use; this function stops it.
    """
    out = Outcome(scaled=not traced)
    # a warm pass is rounds of store hits, each waiting for the router's
    # collector, which polls every 4 ms: a timer, not the CPU, sets its
    # pace
    out.unscaled.add("ref")
    window = inputs["window"]
    by_key: Dict[str, str] = {}
    ok = {"resolved": True, "identical": True, "ledger": True}
    fleet = fleet or Fleet(workdir)
    router = fleet.router
    try:
        t_start = clock()
        for i, seq in enumerate(inputs["passes"]):
            spans: list = []
            c0 = clock()
            reports = out.timed(
                "main", lambda: _closed_loop(router, seq, window, out, spans)
            )
            c1 = clock()
            out.requests.extend(out.scaled_span(*span) for span in spans)
            _fold_pass(out, seq, reports, by_key, ok, keep=i == 0)
            if once or (c1 - t_start) + (c1 - c0) > seconds - WARM_MIN_S:
                break
        t_warm = clock()
        while True:
            reports = out.timed(
                "ref",
                lambda: _closed_loop(router, inputs["warm"], window, out, []),
            )
            _fold_pass(out, inputs["warm"], reports, by_key, ok, keep=False)
            now = clock()
            if once or (now - t_warm >= WARM_MIN_S and now - t_start >= seconds):
                break
        out.fleet = router.metrics_snapshot()
        ok["ledger"] = invariant_holds(out.fleet["fleet"]) and all(
            invariant_holds(s) for s in out.fleet["shards"].values()
        )
        out.stores = [
            router.shard(name).cache_view().stats()
            for name in router.shard_names
        ]
    finally:
        fleet.stop()
    out.checks["fleet_dup.every_request_resolved"] = (
        ok["resolved"] and out.failed == 0
    )
    out.checks["fleet_dup.reports_identical_per_key"] = ok["identical"]
    out.checks["fleet_dup.matches_direct_run"] = all(
        by_key.get(cache_key(spec)) == _digest(canonical_report(Engine().run(spec)))
        for spec in inputs["sampled"]
    )
    out.checks["fleet_dup.ledger_balances"] = ok["ledger"]
    fleet_doc = out.fleet["fleet"]
    cold = len(inputs["passes"][0])
    out.diagnostics.update(
        {
            "cold_passes": len(out.times["main"]),
            "unique_keys": len(by_key),
            "executions": fleet_doc["executed"],
            "drain_rps": _ratio(cold, statistics.median(out.times["main"])),
            "warm_rps": _ratio(len(inputs["warm"]),
                               statistics.median(out.times["ref"])),
            "serve.wait_ms_p50": 1e3 * fleet_doc["wait"]["p50_s"],
            "serve.run_ms_p50": 1e3 * fleet_doc["run"]["p50_s"],
        }
    )
    return out


def _fold_pass(out: Outcome, seq, reports, by_key: dict, ok: dict,
               keep: bool) -> None:
    """Fold one pass into the checks: every request resolved, and every
    report of one key byte-identical (host timings aside) across all
    passes.  ``keep`` keeps the first report of each key for the
    per-layer counters."""
    if reports is None:
        ok["resolved"] = False
        return
    seen: Dict[int, str] = {}
    for spec, report in zip(seq, reports):
        if report is None:
            ok["resolved"] = False
            continue
        key = cache_key(spec)
        # hits served from one stored payload share its result dict
        digest = seen.get(id(report.result))
        if digest is None:
            digest = seen[id(report.result)] = _digest(canonical_report(report))
        if by_key.setdefault(key, digest) != digest:
            ok["identical"] = False
        if f"key:{key}" not in out.results:
            out.record(f"key:{key}", report.result, report if keep else None)


# -- shared -------------------------------------------------------------------

MAKERS = {
    "cb_run": make_cb_run,
    "paper_validate": make_paper_validate,
    "fault_recover": make_fault_recover,
    "fleet_dup": make_fleet_dup,
}

WORKLOADS = {
    "cb_run": cb_run,
    "paper_validate": paper_validate,
    "fault_recover": fault_recover,
    "fleet_dup": fleet_dup,
}

#: methods whose calls the traced run times one by one
TIMED_CALLS = [
    ("store.get", ResultCache, "get"),
    ("store.put", ResultCache, "put"),
    ("serve.submit", ExperimentService, "submit"),
    ("fleet.submit", FleetRouter, "submit"),
    ("engine.run_many", Engine, "run_many"),
]


def percentile(values, q: float) -> float:
    """The ``q``-quantile by nearest rank (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, int(q * len(ordered) + 0.999999)))
    return ordered[rank - 1]


def tail_quantile(n: int) -> float:
    """0.9 when it leaves at least ten of ``n`` samples beyond it, else
    0.5, the median: below 100 samples a tail quantile would move with
    how many operations the host's speed lets a run fit."""
    return 0.9 if n >= 100 else 0.5


def latency(samples) -> dict:
    """Median, tail (see :func:`tail_quantile`) and 0.99-quantile of
    request times."""
    q = tail_quantile(len(samples))
    p50 = statistics.median(samples) if samples else 0.0
    return {
        "p50_s": p50,
        "tail_s": p50 if q == 0.5 else percentile(samples, q),
        "tail_quantile": q,
        "p99_s": percentile(samples, 0.99),
        "n": len(samples),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counters(out: Outcome, sweeps=()) -> Dict[str, float]:
    """Per-layer counts from the documents one workload run published:
    its RunReports (and those of the ``SweepReport``s in ``sweeps``),
    the fleet's metrics snapshot and each shard's store statistics."""
    reports = list(out.reports) + [r for s in sweeps for r in s.reports]
    sim = [r.sim for r in reports]
    net = [r.network for r in reports]
    comms = [
        c for r in reports for c in r.mpi.get("communicators", {}).values()
    ]
    transport = [r.mpi.get("transport", {}) for r in reports]
    res = [r.resiliency for r in reports]
    events = sum(s.get("events_processed", 0) for s in sim)
    sim_wall = sum(s.get("wall_time_s", 0.0) for s in sim)
    wakeups = sum(s.get("fast_wakeups", 0) for s in sim)
    batches = sum(s.get("batches", 0) for s in sim)
    fast = sum(n.get("fast_transfers", 0) for n in net)
    slow = sum(n.get("slow_transfers", 0) for n in net)
    stall = sum(
        link.get("stall_time_s", 0.0)
        for n in net for link in n.get("links", {}).values()
    )
    sim_time = sum(s.get("sim_time_s", 0.0) for s in sim)
    lost = sum(r.get("lost_work_s", 0.0) for r in res)
    runtime = sum(r.result.get("total_runtime", 0.0) for r in reports)
    gets = sum(s["hits"] + s["misses"] for s in out.stores)
    fleet = out.fleet.get("fleet", {})
    router = out.fleet.get("router", {})
    executed = fleet.get("executed", 0)
    return {
        "sim.events": events,
        "sim.events_per_s": _ratio(events, sim_wall),
        "sim.fast_wakeup_ratio": _ratio(wakeups, events),
        "sim.batch_mean": _ratio(events, batches),
        "sim.peak_queue_depth": max(
            (s.get("peak_queue_depth", 0) for s in sim), default=0
        ),
        "mpi.messages": sum(c["p2p_messages"] + c["coll_messages"] for c in comms),
        "mpi.bytes": sum(c["p2p_bytes"] + c["coll_bytes"] for c in comms),
        "mpi.retries": sum(t.get("retries", 0) for t in transport),
        "mpi.failures": sum(t.get("failures", 0) for t in transport),
        "network.transfers": sum(n.get("total_messages", 0) for n in net),
        "network.fast_ratio": _ratio(fast, fast + slow),
        "network.bytes": sum(n.get("total_bytes", 0) for n in net),
        "network.stall_ratio": _ratio(stall, sim_time),
        "engine.pool_efficiency": out.pool_efficiency,
        "resiliency.checkpoints": sum(
            r.get("checkpoints_total", 0) for r in res
        ),
        "resiliency.restarts": sum(r.get("restarts", 0) for r in res),
        "resiliency.lost_work_ratio": _ratio(lost, runtime),
        "resiliency.repartitions": sum(
            r.malleability.get("repartitions_count", 0) for r in reports
        ),
        "store.gets": gets,
        "store.entries": sum(s["entries"] for s in out.stores),
        "store.hit_ratio": _ratio(sum(s["hits"] for s in out.stores), gets),
        "store.blob_loads": sum(s["blob_loads"] for s in out.stores),
        "serve.batches": fleet.get("batches", 0),
        "serve.batch_mean": _ratio(executed, fleet.get("batches", 0)),
        "serve.coalesced": fleet.get("coalesced", 0),
        "serve.cache_hits": fleet.get("cache_hits", 0),
        "serve.executed": executed,
        "fleet.routed": router.get("routed", 0),
        "fleet.sticky_routed": router.get("sticky_routed", 0),
        "fleet.stolen": router.get("stolen", 0),
        "fleet.useful_exec_ratio": _ratio(
            sum(1 for k in out.results if k.startswith("key:")), executed
        ),
    }
