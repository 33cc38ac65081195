#!/usr/bin/env python3
"""End-to-end benchmark of the Cluster-Booster reproduction.

Usage, from the root of the repository::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--trace [0|1]] [--json OUT]

Without ``--workload`` every workload runs in turn.  Each workload runs
in a fresh child process whose environment drops
``REPRO_SIM_BACKEND``, so the default event queue is what is measured.
One thread in that child drives the public API (see ``workloads.py``);
every child but ``paper_validate``'s runs on one CPU (:data:`ONE_CPU`).
A run measures for ``run_seconds`` of ``BENCHMARK.json``; ``--seconds``
is accepted only with that value, so every run has the same length.

``--trace 0`` (the default) prints the end-to-end metrics, timings
scaled to the reference host's speed (see ``workloads.py``); set-up
time is the median over several fresh children.  ``--trace 1`` runs one
repetition under the layer profiler (see ``layers.py``), then one
without it, checks that both give the same results, and prints the
per-layer metrics.  Every correctness check is printed by name; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits 1 when a check fails and 2 when the program cannot be run.
``--json OUT`` also writes the whole result, quartiles and diagnostics
included, to OUT.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import BUCKETS, LAYERS, CallTimer, LayerMap, LayerProfiler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: scratch space for fleet stores; removed when a child ends
WORK = HERE / ".work"

WORKLOADS = ("cb_run", "paper_validate", "fault_recover", "fleet_dup")
DEFAULT_SEED = 1
#: workloads whose child runs on one CPU: everything they run holds the
#: interpreter lock, so a second CPU only adds lock hand-offs between
#: CPUs; on one CPU the speed readings also time the CPU the work runs
#: on.  paper_validate's pool needs every CPU.
ONE_CPU = ("cb_run", "fault_recover", "fleet_dup")

#: fresh children that only set up, next to the measured child, so
#: set-up time is a median of SETUP_PROBES + 1 samples
SETUP_PROBES = 4
#: speed readings averaged to scale a child's set-up time
SETUP_READINGS = 5
PROBE_TIMEOUT_S = 20
CHILD_TIMEOUT_S = 150

#: end-to-end metrics (``--trace 0``) and their units
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "main_s": "s",
    "ref_s": "s",
    "latency_p90_ms": "ms",
}

#: per-layer metrics (``--trace 1``) and their units
PER_LAYER_UNITS = {
    **{f"{bucket}.self_s": "s" for bucket in BUCKETS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.fast_wakeup_ratio": "ratio",
    "sim.batch_mean": "count",
    "sim.peak_queue_depth": "count",
    "mpi.messages": "count",
    "mpi.bytes": "B",
    "mpi.retries": "count",
    "mpi.failures": "count",
    "network.transfers": "count",
    "network.fast_ratio": "ratio",
    "network.bytes": "B",
    "network.stall_ratio": "ratio",
    "engine.pool_efficiency": "ratio",
    "resiliency.checkpoints": "count",
    "resiliency.restarts": "count",
    "resiliency.lost_work_ratio": "ratio",
    "resiliency.repartitions": "count",
    "store.gets": "count",
    "store.entries": "count",
    "store.hit_ratio": "ratio",
    "store.blob_loads": "count",
    "serve.batches": "count",
    "serve.batch_mean": "count",
    "serve.coalesced": "count",
    "serve.cache_hits": "count",
    "serve.executed": "count",
    "fleet.routed": "count",
    "fleet.sticky_routed": "count",
    "fleet.stolen": "count",
    "fleet.useful_exec_ratio": "ratio",
    "trace.overhead_x": "ratio",
    "trace.coverage": "ratio",
    "trace.wall_s": "s",
    "calib.loop_s": "s",
}


def summary(values) -> dict:
    """Median, quartiles and count of a non-empty list of samples."""
    values = sorted(values)
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def git_revision() -> str:
    """The checkout's git revision, or "unknown" outside a git clone."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# -- child side ---------------------------------------------------------------


def _import_workloads():
    """Import the workloads (and with them the program) from this
    checkout's ``src``, never from an installed copy."""
    import workloads
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(
            f"repro was imported from {repro.__file__}, not from {SRC}"
        )
    return workloads


def measure(workloads, name: str, seed: int, seconds: float,
            workdir, fleet=None, calib=None, **sizes) -> dict:
    """One untraced run of a workload: its timings, scaled to the
    reference host, and its checks.  ``calib`` is the speed reading
    taken after set-up."""
    if calib is None:
        calib = workloads.speed_reading()
    inputs = workloads.MAKERS[name](seed, **sizes)
    out = workloads.WORKLOADS[name](
        inputs, seconds, fleet=fleet, workdir=workdir
    )
    latency = workloads.latency(out.request_times())
    return {
        **out.times,
        "latency": latency,
        "attempted": out.attempted,
        "failed": out.failed,
        "checks": out.checks,
        "diagnostics": {
            "calib.loop_s": calib,
            "latency_p50_ms": 1e3 * latency["p50_s"],
            "latency_p99_ms": 1e3 * latency["p99_s"],
            **{f"{arm}_wall_s": statistics.median(t)
               for arm, t in out.walls.items() if t},
            **out.diagnostics,
        },
    }


def measure_traced(workloads, profiler, name: str, seed: int, workdir,
                   trace_t0: float, **sizes) -> dict:
    """One repetition under the profiler (already started), then one
    without it; per-layer metrics and the checks of both."""
    from repro.engine import Engine

    inputs = workloads.MAKERS[name](seed, **sizes)
    run = workloads.WORKLOADS[name]
    with CallTimer(workloads.TIMED_CALLS) as timer:
        traced = run(inputs, 0, once=True, traced=True, workdir=workdir)
    profiler.stop()
    trace_wall = time.perf_counter() - trace_t0
    calib = workloads.speed_reading()
    with CallTimer([("sweeps", Engine, "run_many")], keep=("sweeps",)) as tap:
        plain = run(inputs, 0, once=True, traced=False, workdir=workdir)

    totals = profiler.totals()
    self_sum = sum(t["self_s"] for t in totals.values())
    coverage = self_sum / profiler.cpu_s if profiler.cpu_s else 0.0
    arms = [arm for arm in traced.wall if arm in plain.wall]
    plain_s = sum(plain.wall[arm] for arm in arms)
    overhead = sum(traced.wall[arm] for arm in arms) / plain_s if plain_s else 0.0

    metrics = {}
    for bucket, t in totals.items():
        metrics[f"{bucket}.self_s"] = t["self_s"]
        if bucket in LAYERS:
            metrics[f"{bucket}.calls"] = t["calls"]
    metrics.update(workloads.layer_counters(plain, tap.returned["sweeps"]))
    metrics.update({
        "trace.overhead_x": overhead,
        "trace.coverage": coverage,
        "trace.wall_s": trace_wall,
        "calib.loop_s": calib,
    })

    checks = {
        check: ok and plain.checks.get(check, True)
        for check, ok in traced.checks.items()
    }
    checks["trace.results_equal_untraced"] = bool(traced.results) and all(
        plain.results.get(key) == value
        for key, value in traced.results.items()
    )
    checks["trace.self_times_cover_cpu"] = 0.95 <= coverage <= 1.05
    percentiles = {}
    for label, samples in timer.samples.items():
        if samples:
            for q in (50, 99):
                percentiles[f"{label}_ms_p{q}"] = (
                    1e3 * workloads.percentile(samples, q / 100)
                )
            percentiles[f"{label}_n"] = len(samples)
    notes = {"traced_arms": arms}
    if name == "paper_validate":
        notes["note"] = ("traced at workers=1: pool children are not "
                         "profiled")
    return {
        "attempted": traced.attempted + plain.attempted,
        "failed": traced.failed + plain.failed,
        "checks": checks,
        "per_layer": metrics,
        "diagnostics": {**notes, **percentiles, **plain.diagnostics,
                        "cpu_s": profiler.cpu_s, "self_sum_s": self_sum},
    }


def child_main(args) -> int:
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at
    profiler = None
    trace_t0 = time.perf_counter()
    if args.trace:
        profiler = LayerProfiler(
            LayerMap(SRC / "repro",
                     client_files=[HERE / "run.py", HERE / "workloads.py"])
        ).start()
    workloads = _import_workloads()
    setup_s = time.monotonic() - spawned_at
    if args.workload in ONE_CPU:
        # threads started from here on, the fleet's too, inherit it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    fleet = None
    try:
        if args.trace:
            doc = measure_traced(workloads, profiler, args.workload,
                                 args.seed, workdir, trace_t0)
        else:
            # not part of set-up: the host's speed as set-up felt it
            calib = workloads.speed_reading(repeats=SETUP_READINGS)
            if args.workload == "fleet_dup":
                t0 = time.monotonic()
                fleet = workloads.Fleet(workdir)
                setup_s += time.monotonic() - t0
            doc = {
                "setup_wall_s": setup_s,
                "setup_s": setup_s * workloads.REFERENCE_READING_S / calib,
            }
            if not args.setup_only:
                doc.update(measure(workloads, args.workload, args.seed,
                                   args.seconds, workdir, fleet=fleet,
                                   calib=calib))
    finally:
        if fleet is not None:
            fleet.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another child's directory is still there
            pass
    doc["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    )
    if "diagnostics" in doc:
        doc["diagnostics"]["cpus"] = sorted(os.sched_getaffinity(0))
    print(json.dumps(doc))
    return 0


# -- parent side --------------------------------------------------------------


class ChildFailed(RuntimeError):
    """A child process could not run the program."""


def child_env() -> dict:
    """The parent's environment minus REPRO_SIM_BACKEND, with this
    checkout's ``src`` first on the import path."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SIM_BACKEND"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool = False) -> dict:
    """Run one child to completion and return its JSON document."""
    timeout = PROBE_TIMEOUT_S if setup_only else CHILD_TIMEOUT_S
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} child ran past {timeout}s") from None
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} child exited with code {proc.returncode}"
        )
    return json.loads(lines[-1])


def metric(value, unit: str, samples=None, **extra) -> dict:
    """One metric of the full result; a timing also carries its
    median, quartiles, count and samples."""
    entry = {"value": value, "unit": unit, **extra}
    if samples is not None:
        entry.update(summary(samples), samples=list(samples))
    return entry


def e2e_metrics(doc: dict, setups) -> dict:
    """The end-to-end metrics of an untraced child document, with the
    set-up samples of every child of the run."""
    latency = doc["latency"]
    return {
        "setup_s": metric(statistics.median(setups), "s", setups),
        "peak_rss_mb": metric(doc["peak_rss_mb"], "MB"),
        "main_s": metric(statistics.median(doc["main"]), "s", doc["main"]),
        "ref_s": metric(statistics.median(doc["ref"]), "s", doc["ref"]),
        "latency_p90_ms": metric(1e3 * latency["tail_s"], "ms",
                                 requests=latency["n"],
                                 quantile=latency["tail_quantile"]),
    }


def per_layer_metrics(doc: dict) -> dict:
    """The per-layer metrics of a traced child document."""
    return {
        name: metric(doc["per_layer"][name], unit)
        for name, unit in PER_LAYER_UNITS.items()
    }


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """Measure one workload in fresh children; the full result."""
    if trace:
        doc = spawn(workload, seed, seconds, 1)
        metrics = per_layer_metrics(doc)
    else:
        probes = [
            spawn(workload, seed, seconds, 0, setup_only=True)
            for _ in range(SETUP_PROBES)
        ]
        doc = spawn(workload, seed, seconds, 0)
        if not (doc["main"] and doc["ref"]):
            raise ChildFailed(f"{workload}: every operation of an arm failed")
        children = probes + [doc]
        metrics = e2e_metrics(doc, [c["setup_s"] for c in children])
        doc["diagnostics"]["setup_wall_s"] = statistics.median(
            c["setup_wall_s"] for c in children
        )
    return {
        "schema": "repro.e2e_bench/1",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "finished_at": time.time(),
        "correct": all(doc["checks"].values()) and doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "checks": doc["checks"],
        "metrics": metrics,
        "diagnostics": doc["diagnostics"],
    }


def render(result: dict) -> str:
    """Human-readable lines: header, every check, every metric."""
    lines = [
        f"== {result['workload']}  seed={result['seed']}  "
        f"seconds={result['seconds']}  trace={result['trace']}  "
        f"nproc={result['nproc']}  python={result['python']}  "
        f"rev={result['git_revision']}"
    ]
    for name, ok in sorted(result["checks"].items()):
        lines.append(f"check {name:<44} {'ok' if ok else 'FAILED'}")
    lines.append(
        f"operations attempted={result['attempted']} failed={result['failed']}"
    )
    for name, m in result["metrics"].items():
        line = f"{name:<28} {m['value']:>16.6g} {m['unit']}"
        if "q1" in m:
            line += (f"   (median; q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, "
                     f"n {m['n']})")
        elif "requests" in m:
            line += (f"   (quantile {m.get('quantile', 0.5):g} of "
                     f"{m['requests']} requests)")
        lines.append(line)
    for name, value in result["diagnostics"].items():
        lines.append(f"  diag {name} = {value}")
    return "\n".join(lines)


def result_line(results) -> str:
    """The last line of output: one result, or several with each metric
    name prefixed by its workload."""
    prefixed = len(results) > 1
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}." if prefixed else "") + name:
                {"value": m["value"], "unit": m["unit"]}
            for r in results for name, m in r["metrics"].items()
        },
    })


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Cluster-Booster stack."
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a profiled run")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full result to OUT")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return args
    try:
        run_seconds = json.loads(SPEC.read_text())["run_seconds"]
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"cannot read run_seconds from {SPEC}: {exc}")
    if args.seconds not in (None, run_seconds):
        parser.error(f"--seconds must be {run_seconds}, the run length "
                     f"BENCHMARK.json fixes")
    args.seconds = run_seconds
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    results = []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
            print(render(result), flush=True)
            results.append(result)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        Path(args.json).write_text(json.dumps(
            results[0] if len(results) == 1 else {"runs": results}, indent=2
        ) + "\n")
    print(result_line(results))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
