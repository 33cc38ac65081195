"""Tests for the command-line interface."""

import argparse
import hashlib
import json

import pytest

from repro.cli import build_parser, main
from repro.store import ResultCache

#: sha256 of the parser surface (:func:`_parser_surface`) as sorted JSON:
#: 19 commands, 143 options
PARSER_SURFACE_SHA256 = (
    "58d26c2fe1529b840b78fb47f6345cf2c51537c952726bd32b9005a06bbcb259"
)


def _parser_surface(parser, path=()):
    """Every option of every leaf command, keyed by the command path,
    with each field that changes how a command line parses (help text
    left out); options sorted so declaration order does not count."""
    surface, options, leaf = {}, [], True
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            leaf = False
            for name, sub in action.choices.items():
                surface.update(_parser_surface(sub, path + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            options.append({
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "type": getattr(action.type, "__name__", action.type),
                "choices": (
                    None if action.choices is None else list(action.choices)
                ),
                "required": action.required,
                "action": type(action).__name__,
                "nargs": action.nargs,
                "metavar": action.metavar,
            })
    if leaf:
        surface[" ".join(path)] = sorted(
            options, key=lambda o: (o["option_strings"], o["dest"])
        )
    return surface


def test_parser_surface_is_pinned():
    surface = _parser_surface(build_parser())
    assert len(surface) == 19
    assert sum(len(options) for options in surface.values()) == 143
    digest = hashlib.sha256(
        json.dumps(surface, sort_keys=True).encode()
    ).hexdigest()
    assert digest == PARSER_SURFACE_SHA256, (
        "the CLI surface changed (an option, default, type, choice or "
        f"arity); if on purpose, pin the new digest {digest}"
    )


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "Intel Xeon Phi 7210" in out
    assert "EXTOLL Tourmalet A3" in out


def test_fig3_command(capsys):
    assert main(["fig3"]) == 0
    out = capsys.readouterr().out
    assert "bandwidth" in out and "latency" in out
    assert "CN-CN" in out and "BN-BN" in out and "CN-BN" in out


def test_fig7_command_short(capsys):
    assert main(["fig7", "--steps", "20"]) == 0
    out = capsys.readouterr().out
    assert "C+B gain vs Cluster" in out
    assert "Fig 7" in out


def test_fig8_command_short(capsys):
    assert main(["fig8", "--steps", "20"]) == 0
    out = capsys.readouterr().out
    assert "parallel efficiency" in out
    assert "C+B gain at 8 nodes" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])


def test_steps_flag_parsing():
    args = build_parser().parse_args(["fig7", "--steps", "123"])
    assert args.steps == 123


def test_report_command(tmp_path, monkeypatch, capsys):
    results = tmp_path / "benchmarks" / "_results"
    results.mkdir(parents=True)
    for name in ("fig7", "ablation_energy", "table1"):
        (results / f"{name}.txt").write_text(f"{name} table\n")
    monkeypatch.chdir(tmp_path)
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "# Benchmark results" in out
    assert "table1" in out and "fig7" in out
    # paper order first, the rest after
    assert out.index("## table1") < out.index("## fig7")
    assert out.index("## fig7") < out.index("## ablation_energy")


def test_run_command(capsys):
    assert main(["run", "--mode", "cb", "--steps", "5"]) == 0
    out = capsys.readouterr().out
    assert "Run report" in out
    assert "xpic / C+B" in out
    assert "Per-link traffic" in out
    assert "Per-communicator traffic" in out
    assert "world<->xpic-field-solver" in out


def test_run_command_writes_artifacts(tmp_path, capsys):
    json_path = tmp_path / "r.json"
    trace_path = tmp_path / "r.trace.json"
    assert (
        main(
            [
                "run", "--mode", "cb", "--steps", "3",
                "--json", str(json_path),
                "--chrome-trace", str(trace_path),
            ]
        )
        == 0
    )
    report = json.loads(json_path.read_text())
    assert report["schema"] == "repro.run_report/1"
    assert report["network"]["total_bytes"] > 0
    trace = json.loads(trace_path.read_text())
    assert any(e["ph"] == "X" for e in trace)  # --chrome-trace implies --trace
    capsys.readouterr()


def test_serve_once_without_journal(tmp_path, capsys):
    """``serve --no-journal`` answers every request and writes the
    metrics, but neither the journal nor the heartbeat."""
    jobdir = tmp_path / "jobs"
    for steps in ("3", "4"):
        assert main(["submit", "--jobdir", str(jobdir), "--steps", steps]) == 0
    assert main(
        ["serve", "--jobdir", str(jobdir), "--once", "--no-journal"]
    ) == 0
    assert "Experiment service" in capsys.readouterr().out
    metrics = json.loads((jobdir / "metrics.json").read_text())
    assert metrics["completed"] == 2 and metrics["in_flight"] == 0
    results = list((jobdir / "results").glob("*.json"))
    assert len(results) == 2
    assert all(json.loads(p.read_text())["status"] == "done" for p in results)
    assert not (jobdir / "journal.jsonl").exists()
    assert not (jobdir / "heartbeat.json").exists()


def test_run_command_seismic(capsys):
    assert main(["run", "--app", "seismic", "--mode", "split", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "seismic / Split" in out


def test_seismic_placement_error_names_what_was_typed(capsys):
    assert main(["run", "--app", "seismic", "--mode", "cb", "--steps", "3"]) == 2
    err = capsys.readouterr().err
    assert "'cb'" in err and "'Cb'" not in err
    for name in ("Cluster", "Booster", "Split"):
        assert name in err
    assert main(["run", "--app", "seismic", "--mode", "BOOSTER", "--steps", "3"]) == 0
    assert "seismic / Booster" in capsys.readouterr().out


def _graded(monkeypatch, measured):
    """Stand ``validate_claims`` in with one claim, banded [1, 2]."""
    from repro import validate

    claim = validate.Claim("X-1", "a claim", "1.5", measured, 1.0, 2.0)
    monkeypatch.setattr(validate, "validate_claims", lambda **_kw: [claim])


def test_validate_exits_1_when_a_claim_fails(monkeypatch, capsys):
    _graded(monkeypatch, measured=2.5)
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "0/1 claims reproduced" in out


def test_validate_exits_0_when_every_claim_passes(monkeypatch, capsys):
    _graded(monkeypatch, measured=1.5)
    assert main(["validate"]) == 0
    assert "1/1 claims reproduced" in capsys.readouterr().out


def test_report_command_renders_saved_run(tmp_path, capsys):
    json_path = tmp_path / "r.json"
    assert main(["run", "--steps", "3", "--json", str(json_path)]) == 0
    capsys.readouterr()
    assert main(["report", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "Run report" in out and "total runtime" in out


def test_report_command_renders_saved_sweep(tmp_path, capsys):
    json_path = tmp_path / "sweep.json"
    assert (
        main(
            [
                "sweep", "--modes", "cluster,cb", "--nodes", "1,2",
                "--steps", "3", "--json", str(json_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["report", str(json_path)]) == 0
    out = capsys.readouterr().out
    # the shared sweep renderer: per-run table plus merged totals
    assert "Sweep: 4 runs" in out
    assert "Nodes/solver" in out
    assert "messages" in out and "bytes on the fabric" in out


def test_report_command_rejects_unknown_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "something/else"}')
    assert main(["report", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_command_cache_roundtrip(tmp_path, capsys):
    store = str(tmp_path / "store")
    j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(
        ["run", "--mode", "cb", "--steps", "3",
         "--cache", store, "--json", str(j1)]
    ) == 0
    assert "result cache: miss" in capsys.readouterr().out
    assert main(
        ["run", "--mode", "cb", "--steps", "3",
         "--cache", store, "--json", str(j2)]
    ) == 0
    out = capsys.readouterr().out
    assert "result cache: hit" in out
    assert "Result cache" in out  # the counters table
    assert j1.read_text() == j2.read_text()  # bit-identical report


def test_sweep_command_reports_cache_hits(tmp_path, capsys):
    store = str(tmp_path / "store")
    args = [
        "sweep", "--modes", "cluster,cb", "--nodes", "1",
        "--steps", "3", "--cache", store,
    ]
    assert main(args) == 0
    assert "2 miss(es)" in capsys.readouterr().out
    assert main(args) == 0
    assert "2 hit(s)" in capsys.readouterr().out


def test_tune_command(tmp_path, capsys):
    json_path = tmp_path / "tune.json"
    store = str(tmp_path / "store")
    args = [
        "tune", "--steps", "8", "--nodes", "1,2", "--generations", "2",
        "--population", "4", "--min-steps", "3",
        "--cache", store, "--json", str(json_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Generation 1/2" in out and "Generation 2/2" in out
    assert "best partition:" in out
    assert "tuned speedup" in out
    assert "model-vs-measured error" in out

    doc = json.loads(json_path.read_text())
    assert doc["schema"] == "repro.tune_report/1"
    assert doc["best_runtime_s"] <= doc["baseline"]["measured_s"]

    # the repeated tune resolves from cache with an identical winner
    assert main(args) == 0
    capsys.readouterr()
    assert json.loads(json_path.read_text())["best"] == doc["best"]


def test_tune_command_rejects_bad_nodes(capsys):
    assert main(["tune", "--nodes", "1,x"]) == 2
    assert "bad --nodes" in capsys.readouterr().err


def test_cache_command_verbs(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(
        ["run", "--mode", "cluster", "--steps", "2", "--cache", store]
    ) == 0
    capsys.readouterr()

    assert main(["cache", "stats", "--dir", store]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "stored bytes" in out

    assert main(["cache", "verify", "--dir", store]) == 0
    assert "1 entry ok" in capsys.readouterr().out

    assert main(["cache", "prune", "--dir", store]) == 0
    assert "pruned 1 entry" in capsys.readouterr().out
    assert main(["cache", "stats", "--dir", store]) == 0
    capsys.readouterr()


def test_cache_export_import_verbs(tmp_path, capsys):
    store = str(tmp_path / "store")
    other = str(tmp_path / "other")
    bundle = str(tmp_path / "bundle.json")
    assert main(
        ["run", "--mode", "cb", "--steps", "2", "--cache", store]
    ) == 0
    capsys.readouterr()

    assert main(["cache", "export", "--dir", store, "--out", bundle]) == 0
    assert "exported 1 entry" in capsys.readouterr().out

    assert main(["cache", "import", "--dir", other, "--file", bundle]) == 0
    assert "imported 1 entry" in capsys.readouterr().out
    # importing again coalesces instead of duplicating
    assert main(["cache", "import", "--dir", other, "--file", bundle]) == 0
    assert "1 already present" in capsys.readouterr().out

    assert main(["cache", "export", "--dir", store]) == 2
    assert "needs --out" in capsys.readouterr().err
    assert main(["cache", "import", "--dir", store]) == 2
    assert "needs --file" in capsys.readouterr().err


def test_cache_verify_repair_rebuilds_index(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(
        ["run", "--mode", "cluster", "--steps", "2", "--cache", str(store)]
    ) == 0
    capsys.readouterr()
    with open(store / "index.jsonl", "a") as fh:
        fh.write('{"op":"put","key":"deadbeef","si')  # torn final line

    assert main(["cache", "verify", "--dir", str(store)]) == 0
    assert "index STALE" in capsys.readouterr().out
    assert main(["cache", "verify", "--dir", str(store), "--repair"]) == 0
    assert "index rebuilt from blobs" in capsys.readouterr().out
    assert main(["cache", "verify", "--dir", str(store)]) == 0
    assert "index consistent" in capsys.readouterr().out


def test_query_command(tmp_path, capsys):
    store = str(tmp_path / "store")
    for steps in ("2", "3"):
        assert main(
            ["run", "--mode", "cb", "--steps", steps, "--cache", store]
        ) == 0
    capsys.readouterr()

    assert main(
        ["query", "--dir", store, "--where", "mode=C+B",
         "--agg", "total_runtime"]
    ) == 0
    out = capsys.readouterr().out
    assert "2 matched" in out
    assert "Aggregate: total_runtime" in out

    json_path = tmp_path / "query.json"
    assert main(
        ["query", "--dir", store, "--where", "steps>=3",
         "--json", str(json_path)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(json_path.read_text())
    assert len(doc["rows"]) == 1 and doc["rows"][0]["steps"] == 3

    assert main(["query", "--dir", store, "--where", "steps~3"]) == 2
    assert "predicate" in capsys.readouterr().err


def test_query_json_aggregates_once(tmp_path, capsys, monkeypatch):
    store = str(tmp_path / "store")
    for steps in ("2", "3"):
        assert main(
            ["run", "--mode", "cb", "--steps", steps, "--cache", store]
        ) == 0
    calls = []
    aggregate = ResultCache.aggregate

    def counted(self, *args, **kwargs):
        calls.append(args)
        return aggregate(self, *args, **kwargs)

    monkeypatch.setattr(ResultCache, "aggregate", counted)
    capsys.readouterr()
    json_path = tmp_path / "query.json"
    assert main(
        ["query", "--dir", store, "--agg", "total_runtime",
         "--json", str(json_path)]
    ) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    # the JSON aggregate is the one the table printed
    agg = json.loads(json_path.read_text())["aggregate"]
    printed = dict(
        (cell.strip() for cell in line.split("|"))
        for line in out.split("Aggregate: total_runtime")[1].splitlines()
        if line.count("|") == 1
    )
    assert printed["count"] == str(agg["count"]) == "2"
    for stat in ("mean", "min", "max", "p50", "p90", "p99"):
        assert printed[stat] == f"{agg[stat]:.4f}"


def test_query_group_by(tmp_path, capsys):
    store = str(tmp_path / "store")
    for mode in ("cluster", "booster", "cb"):
        assert main(
            ["run", "--mode", mode, "--steps", "3", "--cache", store]
        ) == 0
    capsys.readouterr()

    assert main(
        ["query", "--dir", store, "--agg", "total_runtime",
         "--group-by", "mode"]
    ) == 0
    out = capsys.readouterr().out
    assert "Aggregate: total_runtime per mode" in out
    for mode in ("Booster", "C+B", "Cluster"):
        assert mode in out

    json_path = tmp_path / "grouped.json"
    assert main(
        ["query", "--dir", store, "--agg", "total_runtime",
         "--group-by", "mode", "--json", str(json_path)]
    ) == 0
    capsys.readouterr()
    agg = json.loads(json_path.read_text())["aggregate"]
    assert agg["group_by"] == "mode"
    assert [g["group"] for g in agg["groups"]] == [
        "Booster", "C+B", "Cluster"
    ]

    # --group-by is meaningless without an aggregate field
    assert main(
        ["query", "--dir", store, "--group-by", "mode"]
    ) == 2
    assert "--agg" in capsys.readouterr().err
