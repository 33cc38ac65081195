"""Smoke test of the end-to-end benchmark at tiny sizes.

Runs every workload in-process, untraced and traced, and checks that
the metrics ``BENCHMARK.json`` names come out with their units and
that a traced run reproduces the untraced results.  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

import json
import time

import pytest

import compare
import run
import workloads
from layers import LayerMap, LayerProfiler

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: sizes small enough for seconds per workload, large enough that the
#: fault still strikes mid-run and the fleet still sees repeats
TINY = {
    "cb_run": {"steps": 5, "nodes": 2},
    "paper_validate": {"steps": 20},
    "fault_recover": {"steps": 30, "nodes": 4, "window": (0.05, 0.1),
                      "ckpt_interval_s": 0.02},
    "fleet_dup": {"requests": 40, "steps": (2, 6), "samples": 2, "passes": 2},
}


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_names_what_the_code_emits():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert units("end_to_end") == run.E2E_UNITS
    assert units("per_layer") == run.PER_LAYER_UNITS
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    doc = run.measure(workloads, name, seed=3, seconds=0, workdir=tmp_path,
                      **TINY[name])
    assert all(doc["checks"].values()), doc["checks"]
    assert doc["failed"] == 0 and doc["attempted"] > 0
    doc.update(setup_s=0.5, peak_rss_mb=100.0)
    metrics = run.e2e_metrics(doc, [doc["setup_s"]])
    assert {k: m["unit"] for k, m in metrics.items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reproduces_untraced_results(name, tmp_path):
    profiler = LayerProfiler(
        LayerMap(run.SRC / "repro", client_files=[run.HERE / "run.py"])
    )
    t0 = time.perf_counter()
    profiler.start()
    try:
        doc = run.measure_traced(workloads, profiler, name, 3, tmp_path, t0,
                                 **TINY[name])
    finally:
        profiler.stop()
    assert doc["checks"]["trace.results_equal_untraced"]
    assert all(doc["checks"].values()), doc["checks"]
    metrics = run.per_layer_metrics(doc)
    assert {k: m["unit"] for k, m in metrics.items()} == units("per_layer")


def test_setup_probe_runs_in_a_fresh_child():
    doc = run.spawn("cb_run", seed=3, seconds=0, trace=0, setup_only=True)
    assert 0 < doc["setup_wall_s"] < run.PROBE_TIMEOUT_S
    assert doc["setup_s"] > 0


def test_same_seed_gives_same_inputs():
    for name, make in workloads.MAKERS.items():
        a, b = make(7, **TINY[name]), make(7, **TINY[name])
        assert repr(a) == repr(b), name
    passes = workloads.make_fleet_dup(7, **TINY["fleet_dup"])["passes"]
    for seq in passes:
        assert len({id(s) for s in seq}) == round(0.4 * len(seq))
    keys = [{workloads.cache_key(s) for s in seq} for seq in passes]
    assert not keys[0] & keys[1]


def test_operation_time_is_scaled_by_the_speed_readings_around_it(
        monkeypatch):
    assert 0 < workloads.speed_reading() < 1
    ref = workloads.REFERENCE_READING_S
    monkeypatch.setattr(workloads, "speed_reading", lambda repeats=1: 2 * ref)
    out = workloads.Outcome()
    out.timed("main", lambda: time.sleep(2.5 * workloads.SAMPLE_EVERY_S) or 1)
    assert out.times["main"][0] == pytest.approx(out.walls["main"][0] / 2)
    out.unscaled.add("ref")
    out.timed("ref", lambda: time.sleep(0.01) or 1)
    assert out.times["ref"] == out.walls["ref"]


def test_tail_quantile_leaves_ten_samples_beyond_it():
    assert workloads.tail_quantile(1000) == 0.9
    assert workloads.tail_quantile(100) == 0.9
    assert workloads.tail_quantile(99) == 0.5
    lat = workloads.latency([3.0, 1.0, 2.0, 4.0])
    assert lat["p50_s"] == lat["tail_s"] == 2.5


def test_run_length_is_fixed_by_benchmark_json():
    assert run.parse_args([]).seconds == SPEC["run_seconds"]
    assert run.parse_args(["--seconds", str(SPEC["run_seconds"])]).seconds \
        == SPEC["run_seconds"]
    with pytest.raises(SystemExit):
        run.parse_args(["--seconds", "1"])


def _result(workload, seconds, failed, value):
    return {"workload": workload, "seconds": seconds, "attempted": 10,
            "failed": failed, "finished_at": value,
            "metrics": {"main_s": {"value": value, "unit": "s"}}}


def test_compare_flags_any_rise_of_the_fail_ratio():
    base = [_result("cb_run", 16, 0, 1.0 + i / 100) for i in range(5)]
    new = [_result("cb_run", 16, 1, 1.0 + i / 100) for i in range(5)]
    rows = {r["metric"]: r for r in compare.compare(base, new, SPEC)}
    assert rows["main_s"]["verdict"] == "same"
    assert rows["fail_ratio"]["verdict"] == "regression"


def test_compare_refuses_runs_of_different_lengths(tmp_path, capsys):
    for side, seconds in (("a", 16), ("b", 8)):
        (tmp_path / f"{side}.json").write_text(
            json.dumps(_result("cb_run", seconds, 0, 1.0))
        )
    assert compare.main([str(tmp_path / "a.json"),
                         "--vs", str(tmp_path / "b.json")]) == 2
    assert "different lengths" in capsys.readouterr().err
