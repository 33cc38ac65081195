"""Tests for the interval tracer and Gantt rendering."""

import pytest

from repro.apps.xpic import run_experiment
from repro.engine import ExperimentSpec
from repro.hardware import build_deep_er_prototype
from repro.sim import Interval, Tracer


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval("a", "x", 2.0, 1.0)


def test_record_and_timeline_order():
    tr = Tracer()
    tr.record("a", "x", 2.0, 3.0)
    tr.record("a", "y", 0.0, 1.0)
    tr.record("b", "x", 0.5, 0.7)
    tl = tr.timeline("a")
    assert [iv.label for iv in tl] == ["y", "x"]
    assert tr.actors() == ["a", "b"]


def test_busy_time_by_label():
    tr = Tracer()
    tr.record("a", "x", 0.0, 1.0)
    tr.record("a", "x", 2.0, 2.5)
    tr.record("a", "y", 1.0, 2.0)
    assert tr.busy_time("a", "x") == pytest.approx(1.5)
    assert tr.busy_time("a") == pytest.approx(2.5)


def test_span():
    tr = Tracer()
    assert tr.span() == (0.0, 0.0)
    tr.record("a", "x", 1.0, 2.0)
    tr.record("b", "y", 0.5, 3.0)
    assert tr.span() == (0.5, 3.0)


def test_gantt_renders_rows_and_legend():
    tr = Tracer()
    tr.record("alpha", "fields", 0.0, 0.5)
    tr.record("alpha", "wait", 0.5, 1.0)
    tr.record("beta", "particles", 0.0, 1.0)
    out = tr.gantt(width=20)
    lines = out.splitlines()
    assert any(line.startswith("alpha |") for line in lines)
    assert any(line.startswith(" beta |") for line in lines)
    assert "legend:" in lines[-1]
    assert "F=fields" in lines[-1]


def test_gantt_empty():
    assert "no intervals" in Tracer().gantt()


def test_gantt_window_validation():
    tr = Tracer()
    tr.record("a", "x", 0.0, 1.0)
    with pytest.raises(ValueError):
        tr.gantt(t0=1.0, t1=1.0)


def test_gantt_distinct_glyphs_for_colliding_labels():
    tr = Tracer()
    tr.record("a", "fields", 0.0, 1.0)
    tr.record("a", "flush", 1.0, 2.0)  # same initial letter
    out = tr.gantt(width=10)
    legend = out.splitlines()[-1]
    # both labels present with distinct glyphs
    glyphs = dict(
        part.split("=") for part in legend.replace("legend: ", "").split()
        if "=" in part
    )
    inv = {v: k for k, v in glyphs.items()}
    assert len(inv) == len(glyphs)


def test_gantt_glyph_palette_exhaustion_terminates():
    # regression: with more unique labels than palette glyphs the
    # assignment loop used to spin forever looking for a free glyph;
    # it must fall back to reusing glyphs and terminate
    tr = Tracer()
    for i in range(40):
        tr.record("a", f"label{i:02d}", float(i), float(i + 1))
    out = tr.gantt(width=50)
    legend = out.splitlines()[-1]
    assert legend.startswith("legend:")
    for i in range(40):
        assert f"label{i:02d}" in legend


def test_gantt_glyphs_unique_while_palette_lasts():
    tr = Tracer()
    for i in range(10):
        tr.record("a", f"task{i}", float(i), float(i + 1))
    legend = tr.gantt(width=40).splitlines()[-1]
    glyphs = [
        part.split("=")[0]
        for part in legend.replace("legend: ", "").split()
        if "=" in part
    ]
    assert len(set(glyphs)) == len(glyphs)


def test_driver_tracing_produces_pipeline():
    tracer = Tracer()
    machine = build_deep_er_prototype()
    run_experiment(
        machine, ExperimentSpec(mode="cb", steps=5), tracer=tracer
    )
    assert "CN0" in tracer.actors()
    assert "BN0" in tracer.actors()
    # booster computes particles while the cluster waits: overlap exists
    cn_wait = tracer.busy_time("CN0", "wait")
    bn_particles = tracer.busy_time("BN0", "particles")
    assert cn_wait > 0.5 * bn_particles
    assert tracer.busy_time("CN0", "fields") > 0


def test_chrome_trace_pid_stable_per_actor():
    from repro.engine import RunReport

    report = RunReport(
        spec={}, result={}, sim={}, network={}, mpi={}, phases={},
        intervals=[
            {"actor": "CN0", "label": "fields", "start": 0.0, "end": 1.0},
            {"actor": "BN0", "label": "particles", "start": 0.0, "end": 1.0},
            {"actor": "CN0", "label": "io", "start": 1.0, "end": 2.0},
        ],
    )
    events = report.to_chrome_trace()
    spans = [e for e in events if e["ph"] == "X"]
    cn_pids = {e["pid"] for e in spans if e["name"] in ("fields", "io")}
    assert len(cn_pids) == 1
    assert len({e["pid"] for e in spans}) == 2
