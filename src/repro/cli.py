"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro run --mode cb --steps 100   # one instrumented run
    python -m repro sweep --modes cluster,booster,cb --nodes 1,2,4,8 \
        --workers 4                   # parallel sweep of independent runs
    python -m repro tune --steps 200  # autotune the C/B partition
    python -m repro serve --jobdir .jobs --workers 4   # experiment service
    python -m repro submit --jobdir .jobs --mode cb --steps 100 --wait
    python -m repro cache stats --dir .repro-cache   # manage the store
    python -m repro query --dir .repro-cache --where mode=C+B \
        --agg total_runtime          # filter + aggregate stored runs
    python -m repro table1            # Table I from the machine model
    python -m repro fig3              # fabric bandwidth/latency curves
    python -m repro fig7 [--steps N]  # single-node mode comparison
    python -m repro fig8 [--steps N]  # scaling sweep
    python -m repro report [FILE]     # benchmark digest, or one saved
                                      # Run / Sweep / Tune report JSON
    python -m repro faults --mtbf 3600 --horizon 7200 --targets bn00,bn01 \
        --out plan.json               # draw / inspect a fault plan
    python -m repro all               # everything above

``run``, ``fig7`` and ``fig8`` accept ``--fault-plan FILE`` and/or
``--mtbf SECONDS`` to execute under fault injection (checkpoint/restart
through the resilient driver; the report gains a resiliency section).
``run``, ``sweep``, ``tune``, ``serve``, ``fig7`` and ``fig8`` accept
``--cache DIR`` to memoize runs in a content-addressed result store —
a repeated spec loads its stored report instead of simulating again.

``serve`` runs the long-running experiment service over a file-based
job directory through :func:`repro.serve.serve_jobdir`, which builds
the service; ``submit`` drops requests into it (duplicate in-flight
specs coalesce onto one execution, cached specs are answered without
simulating).  Every other experiment-running command routes through
the :class:`repro.api.Session` facade.

This module keeps argument parsing, each command's own flow, and
dispatch.  What a command prints lives with the type it describes: a
report's, fault plan's or figure's ``render()``, and the ``render_*``
functions next to the cache, service, job-directory and fleet metrics.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from .api import Session
from .apps import available_apps
from .bench import FIG78_STEPS, render_series, render_table, run_fig7, run_fig8
from .engine import MACHINE_PRESETS, Engine, ExperimentSpec, RunReport
from .hardware import table1_rows
from .report import load_report
from .resiliency import FaultPlan
from .store import ResultCache
from .store.tiered import render_cache_stats

__all__ = ["main"]


def _preset_machine(preset: str = "deep-er"):
    """Build an unrun machine through the engine's preset path."""
    return Engine().build_machine(ExperimentSpec(preset=preset))


def cmd_table1(_args) -> str:
    rows = table1_rows(_preset_machine())
    return render_table(
        ["Feature", "Cluster", "Booster"],
        rows,
        title="Table I: Hardware configuration of the DEEP-ER prototype",
    )


def cmd_fig3(_args) -> str:
    from .bench import fig3_series, fig3_sizes_bandwidth, fig3_sizes_latency

    lat = fig3_series(_preset_machine(), fig3_sizes_latency())
    bw = fig3_series(_preset_machine(), fig3_sizes_bandwidth())
    out = [
        render_series(
            "Bytes",
            fig3_sizes_bandwidth(),
            {k: [p.bandwidth_bps / 1e6 for p in v] for k, v in bw.items()},
            title="Fig 3 (top): MPI bandwidth [MByte/s]",
        ),
        "",
        render_series(
            "Bytes",
            fig3_sizes_latency(),
            {k: [p.latency_s * 1e6 for p in v] for k, v in lat.items()},
            title="Fig 3 (bottom): MPI latency [us]",
        ),
    ]
    return "\n".join(out)


def cmd_fig7(args) -> str:
    return run_fig7(
        steps=args.steps,
        session=Session(cache=args.cache, workers=args.workers),
        **_fault_kwargs(args),
    ).render()


def cmd_fig8(args) -> str:
    return run_fig8(
        steps=args.steps,
        session=Session(cache=args.cache, workers=args.workers),
        **_fault_kwargs(args),
    ).render()


def _fault_kwargs(args) -> dict:
    """Spec fields for the --fault-plan / --mtbf flags."""
    return {
        "fault_plan": (
            FaultPlan.load(args.fault_plan).to_dict()
            if args.fault_plan
            else None
        ),
        "mtbf_s": args.mtbf,
    }


def cmd_faults(args) -> str:
    """Draw a Poisson fault plan (or inspect an existing one)."""
    if args.file:
        plan = FaultPlan.load(args.file)
    else:
        if args.mtbf is None or args.horizon is None:
            raise ValueError(
                "faults needs either a plan FILE to inspect or "
                "--mtbf and --horizon (plus --targets) to generate one"
            )
        # node ids, or colon-separated endpoint pairs for link faults
        targets = [
            tuple(t.split(":")) if ":" in t else t
            for t in (s.strip() for s in args.targets.split(","))
            if t
        ]
        if not targets:
            raise ValueError("--targets needs at least one node id")
        plan = FaultPlan.poisson(
            mtbf_s=args.mtbf,
            horizon_s=args.horizon,
            targets=targets,
            seed=args.seed,
            kind=args.kind,
            duration_s=args.duration,
            factor=args.factor,
        )
    text = plan.render()
    if args.out:
        plan.save(args.out)
        text += f"\n\nfault plan written to {args.out}"
    return text


def _spec_from_args(args, trace: bool = False) -> ExperimentSpec:
    """Build the ExperimentSpec the run/submit spec flags describe;
    ``trace`` comes from ``run``'s trace flags (the submits have none)."""
    return ExperimentSpec(
        preset=args.preset,
        app=args.app,
        mode=args.mode,
        steps=args.steps,
        nodes_per_solver=args.nodes,
        overlap=not args.no_overlap,
        swap_placement=args.swap_placement,
        seed=args.seed,
        trace=trace,
        ckpt_interval_s=args.ckpt_interval,
        malleability={"enabled": True} if args.malleable else None,
        **_fault_kwargs(args),
    )


def cmd_run(args) -> str:
    """Run one experiment through a Session and print its report."""
    spec = _spec_from_args(args, trace=args.trace or bool(args.chrome_trace))
    session = Session(cache=args.cache)
    cache = session.cache
    report = session.run(spec)
    if args.json:
        report.save(args.json)
    if args.chrome_trace:
        report.save_chrome_trace(args.chrome_trace)
    text = report.render()
    if cache is not None:
        text += "\n\n" + render_cache_stats(cache.stats())
    notes = []
    if cache is not None:
        notes.append(
            "result cache: hit (report loaded, nothing simulated)"
            if cache.hits
            else "result cache: miss (report stored for next time)"
        )
    if args.json:
        notes.append(f"report JSON written to {args.json}")
    if args.chrome_trace:
        notes.append(f"Chrome trace written to {args.chrome_trace}")
    if notes:
        text += "\n\n" + "\n".join(notes)
    return text


def cmd_validate(args) -> Tuple[str, int]:
    from .validate import render_claims, validate_claims

    claims = validate_claims(steps=args.steps, workers=args.workers)
    # a FAIL row fails the command, so CI and scripts see it
    return render_claims(claims), 0 if all(c.passed for c in claims) else 1


def cmd_sweep(args) -> str:
    """Run a cross product of modes x node counts through a Session."""
    try:
        modes = [m.strip() for m in args.modes.split(",") if m.strip()]
        nodes = [int(n) for n in args.nodes.split(",") if n.strip()]
    except ValueError as exc:
        raise ValueError(f"bad sweep axis: {exc}") from None
    if not modes or not nodes:
        raise ValueError("sweep needs at least one mode and one node count")
    session = Session(cache=args.cache, workers=args.workers)
    specs = session.specs(
        base=dict(
            preset=args.preset,
            app=args.app,
            steps=args.steps,
            seed=args.seed,
        ),
        mode=modes,
        nodes_per_solver=nodes,
    )
    cache = session.cache
    sweep = session.sweep(specs)
    if args.json:
        sweep.save(args.json)
    out = [
        sweep.render(
            title=(
                f"Sweep: {args.app} on {args.preset}, {args.steps} steps "
                f"({len(specs)} runs, {sweep.workers} worker"
                f"{'s' if sweep.workers != 1 else ''})"
            ),
        )
    ]
    if cache is not None:
        stats = cache.stats()
        out.append(
            f"result cache: {stats['hits']} hit(s), {stats['misses']} "
            f"miss(es), {stats['entries']} stored entr"
            f"{'y' if stats['entries'] == 1 else 'ies'}"
        )
    if args.json:
        out.append(f"sweep report JSON written to {args.json}")
    return "\n".join(out)


def cmd_report(args) -> str:
    """Render any saved schema-tagged report, or compose archived
    benchmark tables."""
    import pathlib

    if args.file:
        return load_report(args.file).render()

    results = pathlib.Path("benchmarks/_results")
    if not results.is_dir():
        # fall back to the repository the package was installed from
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        results = repo_root / "benchmarks" / "_results"
    if not results.is_dir():
        return (
            "no archived results found — run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
    order = [
        "table1", "fig3_latency", "fig3_bandwidth", "table2", "fig7",
        "fig8_runtime", "fig8_efficiency", "fig8_gains",
    ]
    files = sorted(
        results.glob("*.txt"),
        key=lambda p: (order.index(p.stem) if p.stem in order else 99, p.stem),
    )
    parts = ["# Benchmark results", ""]
    for path in files:
        parts.append(f"## {path.stem}")
        parts.append("")
        parts.append("```")
        parts.append(path.read_text().rstrip())
        parts.append("```")
        parts.append("")
    return "\n".join(parts)


def cmd_tune(args) -> str:
    """Autotune the Cluster/Booster partition for the xPic workload."""
    try:
        node_counts = tuple(
            int(n) for n in args.nodes.split(",") if n.strip()
        )
    except ValueError as exc:
        raise ValueError(f"bad --nodes list: {exc}") from None
    from .autotune import TuneSpace

    space = TuneSpace(node_counts=node_counts, nested=args.nested)
    session = Session(cache=args.cache, workers=args.workers)
    report = session.tune(
        space=space,
        steps=args.steps,
        preset=args.preset,
        generations=args.generations,
        population=args.population,
        eta=args.eta,
        min_steps=args.min_steps,
        seed=args.seed,
        baseline=not args.no_baseline,
    )
    text = report.render()
    if args.json:
        report.save(args.json)
        text += f"\n\ntune report JSON written to {args.json}"
    return text


def cmd_serve(args) -> str:
    """Run the experiment service over a file-based job directory."""
    from .serve import serve_jobdir
    from .serve.filejob import render_serve_status
    from .serve.metrics import render_service_metrics

    if args.status:
        return render_serve_status(
            args.jobdir, stale_after_s=args.stale_after_s
        )
    stats = serve_jobdir(
        args.jobdir,
        cache=args.cache,
        workers=args.workers,
        max_queue=args.max_queue,
        poll_s=args.poll,
        max_seconds=args.max_seconds,
        once=args.once,
        log=None if args.quiet else (lambda msg: print(msg, flush=True)),
        durable=not args.no_journal,
        deadline_s=args.deadline,
        batch_timeout_s=args.batch_timeout,
    )
    return render_service_metrics(
        stats, title=f"Experiment service ({args.jobdir})"
    )


def cmd_submit(args) -> str:
    """Submit one experiment request to a running service's job dir."""
    from .serve import submit_job, wait_result

    spec = _spec_from_args(args)
    job_id = submit_job(
        args.jobdir,
        spec,
        priority=args.priority,
        client=args.client,
        deadline_s=args.deadline,
    )
    if not args.wait:
        return f"submitted {job_id} to {args.jobdir}"
    result = wait_result(args.jobdir, job_id, timeout=args.timeout)
    lines = [
        f"job {job_id}: {result['status']}"
        + (" (cache hit)" if result.get("cache_hit") else "")
        + (" (coalesced)" if result.get("coalesced") else "")
    ]
    if result["status"] == "done":
        report = RunReport.from_dict(result["report"])
        if args.json:
            report.save(args.json)
            lines.append(f"report JSON written to {args.json}")
        lines.append("")
        lines.append(report.render())
    else:
        lines.append(f"error: {result.get('error')}")
    return "\n".join(lines)


def _cmd_fleet_serve(args):
    """Boot N shards + router + TCP front end; serve until stopped."""
    import time
    from pathlib import Path

    from .fleet import FleetFrontEnd, FleetRouter, LocalShard, ProcessShard
    from .fleet.metrics import render_fleet_status

    root = Path(args.root).expanduser()
    shards = []
    for i in range(args.shards):
        name = f"shard-{i:02d}"
        cls = ProcessShard if args.process else LocalShard
        shards.append(
            cls(
                name,
                root / name,
                workers=args.workers,
                max_queue=args.max_queue,
            )
        )
    router = FleetRouter(shards, stale_after_s=args.stale_after_s)
    router.start()
    front = FleetFrontEnd(router, host=args.host, port=args.port).start()
    if not args.quiet:
        kind = "process" if args.process else "in-process"
        print(
            f"fleet: {args.shards} {kind} shard(s) under {root}",
            flush=True,
        )
        print(f"fleet: serving on {front.address}", flush=True)
    try:
        deadline = (
            None
            if args.max_seconds is None
            else time.monotonic() + args.max_seconds  # wall-clock-ok: CLI serving bound
        )
        while deadline is None or time.monotonic() < deadline:  # wall-clock-ok: CLI serving bound
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        front.stop()
        router.drain(timeout=30.0)
        snapshot = router.metrics_snapshot()
        router.shutdown(drain=False)
    return render_fleet_status(snapshot)


def _cmd_fleet_submit(args):
    """Submit one spec to a running fleet front end and render it."""
    from .fleet import FleetClient, FleetClientError

    spec = _spec_from_args(args)
    try:
        with FleetClient(args.address, timeout_s=args.timeout) as client:
            job = client.submit(
                spec,
                priority=args.priority,
                client=args.client,
                deadline_s=args.deadline,
            )
    except FleetClientError as exc:
        raise ValueError(f"fleet submit failed: {exc}") from exc
    except OSError as exc:
        raise ValueError(
            f"cannot reach fleet at {args.address}: {exc}"
        ) from exc
    flags = (
        (" (cache hit)" if job.cache_hit else "")
        + (" (coalesced)" if job.coalesced else "")
        + (" (stolen)" if job.stolen else "")
    )
    lines = [
        f"fleet job {job.id} on shard {job.shard}: "
        f"{job.payload.get('status')}{flags}"
    ]
    error = job.exception()
    if error is not None:
        lines.append(f"error: {error}")
        return "\n".join(lines), 1
    report = job.result()
    if args.json:
        report.save(args.json)
        lines.append(f"report JSON written to {args.json}")
    lines.append("")
    lines.append(report.render())
    return "\n".join(lines)


def _cmd_fleet_status(args):
    """Fetch + render the aggregated metrics of a running fleet."""
    from .fleet import FleetClient, FleetClientError
    from .fleet.metrics import render_fleet_status

    try:
        with FleetClient(
            args.address, timeout_s=args.timeout, max_attempts=1
        ) as client:
            metrics = client.status()
    except FleetClientError as exc:
        raise ValueError(f"fleet status failed: {exc}") from exc
    except OSError as exc:
        raise ValueError(
            f"cannot reach fleet at {args.address}: {exc}"
        ) from exc
    return render_fleet_status(metrics)


def cmd_fleet(args):
    """Fleet verbs: serve N shards behind a router, submit, status."""
    if args.verb == "serve":
        return _cmd_fleet_serve(args)
    if args.verb == "submit":
        return _cmd_fleet_submit(args)
    return _cmd_fleet_status(args)


def cmd_cache(args) -> str:
    """Manage a result store: stats, prune, verify, export, import."""
    cache = ResultCache(args.dir)
    if args.verb == "stats":
        return render_cache_stats(cache.stats())
    if args.verb == "prune":
        outcome = cache.prune(
            max_bytes=args.max_bytes,
            policy=args.policy,
            max_age_s=args.max_age_s,
        )
        return (
            f"pruned {outcome['removed']} entr"
            f"{'y' if outcome['removed'] == 1 else 'ies'} "
            f"({outcome['freed_bytes']:,} bytes freed, "
            f"{outcome['kept']} kept, policy {outcome['policy']})"
        )
    if args.verb == "export":
        if not args.out:
            raise ValueError("cache export needs --out FILE")
        outcome = cache.export_bundle(args.out, where=args.where or None)
        return (
            f"exported {outcome['exported']} entr"
            f"{'y' if outcome['exported'] == 1 else 'ies'} "
            f"({outcome['bytes']:,} bytes) to {outcome['path']}"
        )
    if args.verb == "import":
        if not args.file:
            raise ValueError("cache import needs --file BUNDLE")
        outcome = cache.import_bundle(args.file)
        return (
            f"imported {outcome['imported']} entr"
            f"{'y' if outcome['imported'] == 1 else 'ies'}, "
            f"{outcome['coalesced']} already present (coalesced), "
            f"{outcome['skipped_salt']} skipped (foreign salt)"
        )
    # verify
    outcome = cache.verify(repair=args.repair)
    idx = outcome["index"]
    lines = [
        f"{outcome['ok']} entr{'y' if outcome['ok'] == 1 else 'ies'} ok, "
        f"{len(outcome['corrupt'])} corrupt, "
        f"{len(outcome['mismatched'])} key-mismatched; index "
        + ("STALE" if idx["stale"] else "consistent")
    ]
    for name in outcome["corrupt"]:
        lines.append(f"  corrupt: {name}")
    for name in outcome["mismatched"]:
        lines.append(f"  mismatched: {name}")
    for key in idx["unindexed_blobs"]:
        lines.append(f"  unindexed blob: {key}")
    for key in idx["dangling_rows"]:
        lines.append(f"  dangling index row: {key}")
    if idx["dropped_lines"]:
        lines.append(f"  torn/invalid index lines: {idx['dropped_lines']}")
    if args.repair:
        lines.append(f"removed {outcome['removed']} bad entr"
                     f"{'y' if outcome['removed'] == 1 else 'ies'}; "
                     "index rebuilt from blobs")
    return "\n".join(lines)


def cmd_query(args) -> str:
    """Filter + aggregate stored runs from the store's columnar index."""
    cache = ResultCache(args.dir)
    fields = [f.strip() for f in (args.fields or "").split(",") if f.strip()]
    rows = cache.query(
        where=args.where or None, fields=fields, limit=args.limit
    )
    shown = [
        "key", "app", "mode", "preset", "steps", "nodes_per_solver",
        "total_runtime",
    ] + [f for f in fields if f not in (
        "key", "app", "mode", "preset", "steps", "nodes_per_solver",
        "total_runtime",
    )]

    def _cell(v) -> str:
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.4f}"
        return str(v)

    table_rows = [
        tuple(
            (r["key"][:10] if c == "key" else _cell(r.get(c)))
            for c in shown
        )
        for r in rows
    ]
    where_label = " ".join(args.where) if args.where else "all runs"
    out = [
        render_table(
            shown,
            table_rows,
            title=f"Stored runs: {where_label} ({len(rows)} matched)",
        )
    ]
    group_by = args.group_by
    if group_by and not args.agg:
        raise ValueError("--group-by needs --agg FIELD to aggregate")
    if args.agg:
        agg = cache.aggregate(
            args.agg, where=args.where or None, group_by=group_by
        )
        if group_by:
            out.append("")
            if agg.get("groups"):
                out.append(
                    render_table(
                        [group_by, "count", "mean", "min", "max",
                         "p50", "p90", "p99"],
                        [
                            (
                                "-" if g["group"] is None else str(g["group"]),
                                str(g["count"]),
                            )
                            + tuple(
                                f"{g[k]:.4f}" if g["count"] else "-"
                                for k in ("mean", "min", "max",
                                          "p50", "p90", "p99")
                            )
                            for g in agg["groups"]
                        ],
                        title=f"Aggregate: {args.agg} per {group_by}",
                    )
                )
            else:
                out.append(
                    f"no rows to group by {group_by!r} for {args.agg!r}"
                )
        elif agg["count"]:
            out.append("")
            out.append(
                render_table(
                    ["Statistic", "Value"],
                    [
                        ("count", str(agg["count"])),
                        ("mean", f"{agg['mean']:.4f}"),
                        ("min", f"{agg['min']:.4f}"),
                        ("max", f"{agg['max']:.4f}"),
                        ("p50", f"{agg['p50']:.4f}"),
                        ("p90", f"{agg['p90']:.4f}"),
                        ("p99", f"{agg['p99']:.4f}"),
                    ],
                    title=f"Aggregate: {args.agg}",
                )
            )
        else:
            out.append(f"\nno numeric values of {args.agg!r} matched")
    if args.json:
        import json as _json
        import pathlib

        doc = {"rows": rows}
        if args.agg:
            doc["aggregate"] = agg
        pathlib.Path(args.json).write_text(_json.dumps(doc, indent=2))
        out.append(f"\nquery result JSON written to {args.json}")
    return "\n".join(out)


def cmd_bench(args) -> str:
    """Run + archive the microbench suite, then apply the regression
    gate — the same two steps CI runs, reproducible locally."""
    import importlib.util
    import io
    import pathlib
    import subprocess
    import sys as _sys
    from contextlib import redirect_stdout

    repo_root = pathlib.Path(__file__).resolve().parents[2]
    bench_dir = repo_root / "benchmarks"
    if not bench_dir.is_dir():
        raise FileNotFoundError(
            f"benchmark suite not found at {bench_dir} "
            "(repro bench needs the source checkout)"
        )
    lines = []
    if not args.gate_only:
        targets = (
            ["benchmarks/"]
            if args.all
            else [
                "benchmarks/test_events_per_sec.py",
                "benchmarks/test_mpi_rounds_per_sec.py",
                "benchmarks/test_cache_lookup.py",
                "benchmarks/test_journal_append.py",
                "benchmarks/test_fleet_router.py",
                "benchmarks/test_malleable_recover.py",
            ]
        )
        cmd = [_sys.executable, "-m", "pytest", "--benchmark-only", "-q"]
        cmd += targets
        proc = subprocess.run(cmd, cwd=repo_root)
        if proc.returncode != 0:
            raise ValueError(
                f"benchmark run failed (pytest exit {proc.returncode})"
            )
        lines.append(
            f"microbenchmarks archived under {bench_dir / '_results'}"
        )
    results = sorted((bench_dir / "_results").glob("*.json"))
    if not results:
        raise FileNotFoundError(
            "no archived benchmark results to gate — run `repro bench` "
            "without --gate-only first"
        )
    spec = importlib.util.spec_from_file_location(
        "check_regression", bench_dir / "check_regression.py"
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = gate.main(
            [str(p) for p in results]
            + ["--tolerance", str(args.tolerance)]
        )
    lines.append(buf.getvalue().rstrip())
    if code != 0:
        raise ValueError("throughput regression gate failed:\n" + lines[-1])
    return "\n".join(lines)


def cmd_all(args) -> str:
    parts = [
        cmd_table1(args),
        "",
        cmd_fig3(args),
        "",
        cmd_fig7(args),
        "",
        cmd_fig8(args),
    ]
    return "\n".join(parts)


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser: flags declared once here are copied into every
    subcommand that lists it in ``parents=``."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of 'Application performance "
        "on a Cluster-Booster system' on the simulated DEEP-ER prototype.",
    )
    # -- flags several subcommands share, each declared once ---------------
    cache = _flags()
    cache.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="memoize every run in a content-addressed result store "
        "(a repeated spec loads its stored report instead of simulating)",
    )
    workers = _flags()
    workers.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool workers, per shard under fleet serve (default "
        "1; results are identical at any width)",
    )
    json_out = _flags()
    json_out.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the report JSON (query: the matched rows and aggregate)",
    )
    preset = _flags()
    preset.add_argument(
        "--preset",
        default="deep-er",
        choices=sorted(MACHINE_PRESETS),
        help="machine preset (default deep-er)",
    )
    preset.add_argument(
        "--seed", type=int, default=20180521, help="workload RNG seed"
    )
    app = _flags()
    app.add_argument(
        "--app",
        default="xpic",
        choices=available_apps(),
        help="application driver (default xpic)",
    )
    faults = _flags()
    faults.add_argument(
        "--fault-plan",
        metavar="FILE",
        default=None,
        help="inject the faults of a plan JSON into every run (see "
        "`repro faults`)",
    )
    faults.add_argument(
        "--mtbf",
        type=float,
        default=None,
        help="stream Poisson node crashes at this system MTBF [s]",
    )
    steps = _flags()
    steps.add_argument(
        "--steps", type=int, default=100, help="time steps (default 100)"
    )
    fig_steps = _flags()
    fig_steps.add_argument(
        "--steps",
        type=int,
        default=FIG78_STEPS,
        help=f"full-length xPic time steps (default {FIG78_STEPS})",
    )
    node_list = _flags()
    node_list.add_argument(
        "--nodes",
        default="1,2,4,8",
        help="comma-separated nodes-per-solver counts to sweep or search "
        "(default 1,2,4,8)",
    )
    spec = _flags(preset, app, steps, faults, json_out)
    spec.add_argument(
        "--mode",
        default="cb",
        help="placement: cluster / booster / cb (xpic), "
        "cluster / booster / split (seismic)",
    )
    spec.add_argument(
        "--nodes", type=int, default=1, help="nodes per solver (default 1)"
    )
    spec.add_argument(
        "--no-overlap",
        action="store_true",
        help="disable communication/compute overlap (xpic)",
    )
    spec.add_argument(
        "--swap-placement",
        action="store_true",
        help="swap solver placement: fields on Booster, "
        "particles on Cluster",
    )
    spec.add_argument(
        "--ckpt-interval",
        type=float,
        default=None,
        help="force the checkpoint cadence [s] (default: Young/Daly "
        "optimum when --mtbf is given)",
    )
    spec.add_argument(
        "--malleable",
        action="store_true",
        help="on node loss, re-tune the partition over the "
        "surviving machine and resume there (instead of the "
        "static degradation script); needs fault injection",
    )
    submit = _flags()
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="scheduling priority (higher dispatches first, default 0)",
    )
    submit.add_argument(
        "--client",
        default="cli",
        help="client id for fair-share scheduling (default cli)",
    )
    submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="queue-time budget the service applies to this request "
        "[s] (default: none)",
    )
    serving = _flags()
    serving.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admission bound, per shard under fleet serve; excess "
        "requests wait (default 64)",
    )
    serving.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop serving after this long (default: run until killed)",
    )
    serving.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request progress and startup lines",
    )
    store = _flags()
    store.add_argument(
        "--dir",
        metavar="DIR",
        required=True,
        help="the result store directory",
    )
    store.add_argument(
        "--where",
        metavar="PRED",
        action="append",
        default=None,
        help="COLUMN OP VALUE predicate over index columns (repeatable, "
        "e.g. --where mode=C+B --where steps>=100); cache: export only",
    )
    jobdir = _flags()
    jobdir.add_argument(
        "--jobdir",
        metavar="DIR",
        required=True,
        help="the job directory the service serves and clients submit into",
    )
    address = _flags()
    address.add_argument(
        "--address",
        metavar="HOST:PORT",
        required=True,
        help="the fleet front end to talk to",
    )

    # -- subcommands -------------------------------------------------------
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="Table I: hardware configuration")
    sub.add_parser("fig3", help="Fig 3: fabric bandwidth and latency")
    rp = sub.add_parser(
        "report",
        help="render a saved run report, or compose archived benchmark tables",
    )
    rp.add_argument(
        "file",
        nargs="?",
        default=None,
        help="any schema-tagged report JSON — run, sweep, or tune "
        "(omit to compose benchmarks/_results)",
    )
    rn = sub.add_parser(
        "run",
        help="run one instrumented experiment through the engine",
        parents=[spec, cache],
    )
    rn.add_argument(
        "--trace",
        action="store_true",
        help="record per-phase intervals (implied by --chrome-trace)",
    )
    rn.add_argument(
        "--chrome-trace",
        metavar="FILE",
        default=None,
        help="write Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    sv = sub.add_parser(
        "serve",
        help="serve experiment requests from a file-based job directory "
        "(queue/coalesce/batch over a shared worker pool)",
        parents=[jobdir, workers, cache, serving],
    )
    sv.add_argument(
        "--once",
        action="store_true",
        help="ingest everything pending, drain, flush results, exit "
        "(deterministic mode for CI)",
    )
    sv.add_argument(
        "--poll",
        type=float,
        default=0.1,
        help="job-directory scan interval [s] (default 0.1)",
    )
    sv.add_argument(
        "--status",
        action="store_true",
        help="report liveness (heartbeat), journal state and last "
        "metrics of the job directory, then exit",
    )
    sv.add_argument(
        "--stale-after-s",
        type=float,
        default=30.0,
        metavar="S",
        help="--status: declare a serving heartbeat stale past this "
        "age [s] and exit non-zero (default 30)",
    )
    sv.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the write-ahead job journal and heartbeat "
        "(jobs die with the process)",
    )
    sv.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="default queue-time budget per job [s]; expired jobs fail "
        "with DeadlineExceeded (default: none)",
    )
    sv.add_argument(
        "--batch-timeout",
        type=float,
        default=None,
        metavar="S",
        help="watchdog bound on one batch's wall-time [s]; a hung "
        "batch recycles the pool and isolates its jobs (default: none)",
    )
    sb = sub.add_parser(
        "submit",
        help="submit one experiment request to a running `repro serve`",
        parents=[spec, jobdir, submit],
    )
    sb.add_argument(
        "--wait",
        action="store_true",
        help="block until the result file appears and render it",
    )
    sb.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="--wait: seconds to poll for the result file (default 60)",
    )
    sw = sub.add_parser(
        "sweep",
        help="run a modes x node-counts sweep through Engine.run_many",
        parents=[preset, app, steps, node_list, workers, json_out, cache],
    )
    sw.add_argument(
        "--modes",
        default="cluster,booster,cb",
        help="comma-separated placements (default cluster,booster,cb)",
    )
    tn = sub.add_parser(
        "tune",
        help="autotune the Cluster/Booster partition (model-seeded "
        "successive halving over the cached engine)",
        parents=[preset, fig_steps, node_list, workers, cache, json_out],
    )
    tn.add_argument(
        "--generations",
        type=int,
        default=3,
        help="successive-halving rounds (default 3)",
    )
    tn.add_argument(
        "--population",
        type=int,
        default=8,
        help="model-seeded candidates entering round 1 (default 8)",
    )
    tn.add_argument(
        "--eta",
        type=int,
        default=2,
        help="halving factor between rounds (default 2)",
    )
    tn.add_argument(
        "--min-steps",
        type=int,
        default=5,
        help="floor on short-probe step counts (default 5)",
    )
    tn.add_argument(
        "--nested",
        action="store_true",
        help="also search hierarchical partitions (homogeneous pools "
        "sub-split into co-scheduled fields/particles arms)",
    )
    tn.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip measuring the hand-coded C+B baseline at full steps",
    )
    bn = sub.add_parser(
        "bench",
        help="run + archive the throughput microbenchmarks, then apply "
        "the regression gate (the CI steps, locally)",
    )
    bn.add_argument(
        "--all",
        action="store_true",
        help="run the whole benchmark suite (every table/figure), not "
        "just the gated throughput benches",
    )
    bn.add_argument(
        "--gate-only",
        action="store_true",
        help="skip running; gate the already-archived results",
    )
    bn.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fraction below each baseline floor (default 0.30)",
    )
    fl = sub.add_parser(
        "fleet",
        help="run / talk to a sharded service fleet (consistent-hash "
        "cache-key routing, work stealing, fleet-wide metrics)",
    )
    flsub = fl.add_subparsers(dest="verb", required=True)
    fls = flsub.add_parser(
        "serve",
        help="N experiment-service shards behind a TCP front-end router",
        parents=[workers, serving],
    )
    fls.add_argument(
        "--root",
        metavar="DIR",
        required=True,
        help="fleet root; shard i lives under ROOT/shard-0i",
    )
    fls.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard count (default 4)",
    )
    fls.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address of the front end (default 127.0.0.1)",
    )
    fls.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = ephemeral; printed on start)",
    )
    fls.add_argument(
        "--process",
        action="store_true",
        help="run each shard as its own `repro serve` process "
        "(journal + heartbeat durability; restart-on-death recovery)",
    )
    fls.add_argument(
        "--stale-after-s",
        type=float,
        default=5.0,
        metavar="S",
        help="heartbeat age past which the router declares a shard "
        "dead (default 5)",
    )
    flb = flsub.add_parser(
        "submit",
        help="submit one experiment to a running fleet front end",
        parents=[spec, address, submit],
    )
    flb.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="socket timeout [s] (default 60)",
    )
    flt = flsub.add_parser(
        "status",
        help="aggregated fleet metrics + ledger-invariant check "
        "(non-zero exit on violation)",
        parents=[address],
    )
    flt.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="socket timeout [s] (default 10)",
    )
    ca = sub.add_parser(
        "cache",
        help="manage a tiered content-addressed result store",
        parents=[store],
    )
    ca.add_argument(
        "verb",
        choices=["stats", "prune", "verify", "export", "import"],
        help="stats: size + tier counters; prune: evict by policy; "
        "verify: audit entries + index (--repair rebuilds); "
        "export/import: exchange entry bundles between stores",
    )
    ca.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="prune: keep at most this many stored bytes (default: 0, "
        "clear everything)",
    )
    ca.add_argument(
        "--policy",
        default="age",
        choices=["age", "size", "hit-rate"],
        help="prune: victim ordering — oldest, largest, or fewest "
        "session hits first (default age)",
    )
    ca.add_argument(
        "--max-age-s",
        type=float,
        default=None,
        help="prune: also drop entries older than this many seconds",
    )
    ca.add_argument(
        "--repair",
        action="store_true",
        help="verify: delete corrupt or key-mismatched entries and "
        "rebuild the index from the blobs",
    )
    ca.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="export: write the bundle JSON here",
    )
    ca.add_argument(
        "--file",
        metavar="FILE",
        default=None,
        help="import: the bundle JSON to fold in",
    )
    qr = sub.add_parser(
        "query",
        help="filter + aggregate stored runs from the store's columnar "
        "index (no report blobs are read for index columns)",
        parents=[store, json_out],
    )
    qr.add_argument(
        "--fields",
        default=None,
        help="comma-separated extra columns; dotted report paths "
        "(e.g. network.total_bytes) load only the matched blobs",
    )
    qr.add_argument(
        "--agg",
        metavar="FIELD",
        default=None,
        help="aggregate this column over the matches "
        "(count/mean/min/max/p50/p90/p99)",
    )
    qr.add_argument(
        "--group-by",
        metavar="COLUMN",
        default=None,
        help="with --agg: split the aggregate per distinct value of "
        "this column (one stats row per value, from the index alone)",
    )
    qr.add_argument(
        "--limit",
        type=int,
        default=None,
        help="show at most this many rows (newest first)",
    )
    for name, hlp, extra in (
        ("fig7", "Fig 7: single-node mode comparison", [faults, cache]),
        ("fig8", "Fig 8: scaling sweep", [faults, cache]),
        ("validate", "grade every claim against its acceptance band", []),
        ("all", "everything", []),
    ):
        sub.add_parser(
            name, help=hlp, parents=[fig_steps, workers, *extra]
        )
    # `all` renders Fig 7 and Fig 8 with neither faults nor a cache
    sub.choices["all"].set_defaults(fault_plan=None, mtbf=None, cache=None)
    ft = sub.add_parser(
        "faults",
        help="draw a Poisson fault plan, or inspect an existing plan file",
    )
    ft.add_argument(
        "file",
        nargs="?",
        default=None,
        help="existing fault plan JSON to render (omit to generate)",
    )
    ft.add_argument(
        "--mtbf", type=float, default=None, help="system MTBF [s]"
    )
    ft.add_argument(
        "--horizon", type=float, default=None, help="schedule horizon [s]"
    )
    ft.add_argument(
        "--targets",
        default="",
        help="comma-separated node ids (or a:b endpoint pairs for link "
        "faults) the schedule draws from",
    )
    ft.add_argument(
        "--seed", type=int, default=20180521, help="schedule RNG seed"
    )
    ft.add_argument(
        "--kind",
        default="node_crash",
        choices=["node_crash", "link_down", "link_degrade"],
        help="fault kind of every drawn event (default node_crash)",
    )
    ft.add_argument(
        "--duration",
        type=float,
        default=None,
        help="self-heal each fault after this many seconds",
    )
    ft.add_argument(
        "--factor",
        type=float,
        default=None,
        help="bandwidth fraction for link_degrade events",
    )
    ft.add_argument(
        "--out", metavar="FILE", default=None, help="write the plan JSON"
    )
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "tune": cmd_tune,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "fleet": cmd_fleet,
        "bench": cmd_bench,
        "cache": cmd_cache,
        "query": cmd_query,
        "table1": cmd_table1,
        "fig3": cmd_fig3,
        "fig7": cmd_fig7,
        "fig8": cmd_fig8,
        "validate": cmd_validate,
        "report": cmd_report,
        "faults": cmd_faults,
        "all": cmd_all,
    }[args.command]
    try:
        out = handler(args)
        # handlers return text, or (text, exit_code) for status-style
        # verbs whose outcome scripts branch on
        code = 0
        if isinstance(out, tuple):
            out, code = out
        print(out)
    except (ValueError, FileNotFoundError, TimeoutError) as exc:
        # bad spec values, missing report files, or a submit --wait
        # that outlived its timeout: a message, not a trace
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
