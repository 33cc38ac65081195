"""Layer profiler and per-call timers for the end-to-end benchmark.

Both observe the program from outside; nothing under ``src/`` knows
they exist.

* :class:`LayerProfiler` maps every Python call to a layer by the file
  its code lives in and charges host CPU time to the layer on top of
  the stack at every crossing between layers.  That gives each layer's
  self time and the number of calls that entered it.  Time in the
  standard library and in C code counts toward the calling layer.  A
  generator resume arrives as a call, so time inside the simulator's
  process generators lands in the layer that wrote them.
* :class:`CallTimer` swaps chosen methods for timing wrappers for the
  length of a ``with`` block, which gives per-call percentiles.

This module must not import ``repro``: the profiler is installed before
the program is imported, so import time is charged to layers too.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: the program's layers, named after the modules under ``src/repro/``
LAYERS = (
    "sim",
    "mpi",
    "network",
    "apps",
    "perfmodel",
    "hardware",
    "engine",
    "resiliency",
    "store",
    "serve",
    "fleet",
)

#: every bucket the profiler charges: the layers, the rest of
#: ``repro`` (``io``, ``jobs``, ``ompss``, ...), and the benchmark's
#: own code together with the threads it starts
BUCKETS = LAYERS + ("other", "client")

_PACKAGE_LAYERS = {
    "sim": "sim",
    "mpi": "mpi",
    "network": "network",
    "apps": "apps",
    "perfmodel": "perfmodel",
    "hardware": "hardware",
    "resiliency": "resiliency",
    "store": "store",
    "serve": "serve",
    "fleet": "fleet",
    "bench": "engine",
}

_MODULE_LAYERS = {
    "engine.py": "engine",
    "api.py": "engine",
    "validate.py": "engine",
    "partition.py": "engine",
    "autotune.py": "engine",
    "instrument.py": "engine",
    "report.py": "engine",
    "cache.py": "store",
}

#: the resilient xPic supervisor belongs to the resiliency layer
_FILE_LAYERS = {("apps", "xpic", "resilient_driver.py"): "resiliency"}


class LayerMap:
    """Maps a code object's file name to a bucket, or to ``None`` for
    code that counts toward its caller (the standard library, third
    party packages, and this module's own wrappers)."""

    def __init__(self, package_dir, client_files: Iterable = ()):
        self.package_dir = os.path.abspath(package_dir)
        self.client_files = {os.path.abspath(f) for f in client_files}

    def __call__(self, filename: str) -> Optional[str]:
        path = os.path.abspath(filename)
        if path in self.client_files:
            return "client"
        rel = os.path.relpath(path, self.package_dir)
        if rel.startswith(os.pardir) or os.path.isabs(rel):
            return None
        parts = tuple(rel.split(os.sep))
        if parts in _FILE_LAYERS:
            return _FILE_LAYERS[parts]
        if len(parts) > 1:
            return _PACKAGE_LAYERS.get(parts[0], "other")
        return _MODULE_LAYERS.get(parts[0], "other")


class LayerProfiler:
    """Self time and entry count per layer, from ``sys.setprofile``.

    The clock is each thread's CPU time, so a thread that sleeps or
    waits for the interpreter lock is charged nothing; summed over
    threads, the buckets add up to the process CPU time of the window
    between :meth:`start` and :meth:`stop`.  Threads started inside
    the window are profiled from their first call.
    """

    def __init__(self, layer_of: LayerMap):
        self._layer_of = layer_of
        self._cache: Dict[str, Optional[str]] = {}
        self._tallies: List[Tuple[dict, dict]] = []
        self._lock = threading.Lock()
        self._active = False
        self._main = None
        self._cpu0 = 0.0
        #: process CPU seconds between start() and stop()
        self.cpu_s = 0.0

    def _make_hook(self, start_layer: str):
        clock = time.thread_time
        cache = self._cache
        layer_of = self._layer_of
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        with self._lock:
            self._tallies.append((self_s, calls))
        state = [start_layer, clock()]
        stack: List[str] = []
        profiler = self

        def charge(now: float) -> None:
            cur = state[0]
            self_s[cur] = self_s.get(cur, 0.0) + now - state[1]
            state[1] = now

        def hook(frame, event, arg):
            if event == "call":
                filename = frame.f_code.co_filename
                try:
                    layer = cache[filename]
                except KeyError:
                    layer = cache[filename] = layer_of(filename)
                cur = state[0]
                stack.append(cur)
                if layer is not None and layer != cur:
                    charge(clock())
                    state[0] = layer
                    calls[layer] = calls.get(layer, 0) + 1
                    if not profiler._active:
                        sys.setprofile(None)
            elif event == "return":
                prev = stack.pop() if stack else start_layer
                if prev != state[0]:
                    charge(clock())
                    state[0] = prev

        hook.flush = lambda: charge(clock())
        return hook

    def _boot_thread(self, frame, event, arg):
        hook = self._make_hook("client")
        sys.setprofile(hook)
        hook(frame, event, arg)

    def start(self) -> "LayerProfiler":
        """Profile this thread and every thread started from now on."""
        self._active = True
        self._cpu0 = time.process_time()
        self._main = self._make_hook("client")
        threading.setprofile(self._boot_thread)
        sys.setprofile(self._main)
        return self

    def stop(self) -> None:
        """Stop profiling.  Threads still alive stop charging at their
        next crossing.  Stopping twice changes nothing."""
        if not self._active:
            return
        sys.setprofile(None)
        threading.setprofile(None)
        self._active = False
        self._main.flush()
        self.cpu_s = time.process_time() - self._cpu0

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{bucket: {"self_s": seconds, "calls": count}}`` summed
        over every profiled thread, for every bucket in :data:`BUCKETS`."""
        out = {b: {"self_s": 0.0, "calls": 0} for b in BUCKETS}
        with self._lock:
            tallies = list(self._tallies)
        for self_s, calls in tallies:
            for bucket, seconds in list(self_s.items()):
                out[bucket]["self_s"] += seconds
            for bucket, count in list(calls.items()):
                out[bucket]["calls"] += count
        return out


class CallTimer:
    """Times every call of the chosen methods inside a ``with`` block.

    ``targets`` is a list of ``(label, owner, attribute)``; each
    attribute is replaced by a wrapper on entry and restored on exit.
    ``keep`` names labels whose return values are kept as well, in
    :attr:`returned`, so published documents such as a
    ``SweepReport`` can be read without changing the caller.
    """

    def __init__(self, targets, keep: Iterable[str] = ()):
        self._targets = list(targets)
        self._keep = set(keep)
        self._saved: list = []
        self.samples: Dict[str, List[float]] = {t[0]: [] for t in self._targets}
        self.returned: Dict[str, list] = {label: [] for label in self._keep}

    def _wrap(self, label, func):
        samples = self.samples[label]
        kept = self.returned.get(label)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                samples.append(clock() - t0)
            if kept is not None:
                kept.append(result)
            return result

        timed.__wrapped__ = func
        return timed

    def __enter__(self) -> "CallTimer":
        for label, owner, attr in self._targets:
            func = owner.__dict__[attr]
            self._saved.append((owner, attr, func))
            setattr(owner, attr, self._wrap(label, func))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for owner, attr, func in reversed(self._saved):
            setattr(owner, attr, func)
        self._saved.clear()
