"""Tests for the bench utilities: tables, series, ping-pong harness."""

import pytest

from repro.bench import (
    fig3_sizes_bandwidth,
    fig3_sizes_latency,
    pingpong,
    render_series,
    render_table,
)
from repro.hardware import build_deep_er_prototype


# ------------------------------------------------------------------ tables
def test_render_table_alignment():
    out = render_table(
        ["A", "Blong"], [("1", "2"), ("333", "4")], title="T"
    )
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "A" in lines[1] and "Blong" in lines[1]
    # all rows same width
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1


def test_render_table_no_title():
    out = render_table(["x"], [("1",)])
    assert not out.startswith("\n")
    assert out.splitlines()[0].strip() == "x"


def test_render_series():
    out = render_series(
        "N",
        [1, 2, 3],
        {"a": [0.5, 1.5, float("nan")], "b": [10.0, 20.0, None]},
        fmt="{:.1f}",
    )
    lines = out.splitlines()
    assert "N" in lines[0] and "a" in lines[0] and "b" in lines[0]
    assert "0.5" in lines[2] and "10.0" in lines[2]
    assert "1.5" in lines[3] and "20.0" in lines[3]
    # missing points (None or NaN) render as n/a, never as nan
    assert lines[4].split() == ["3", "|", "n/a", "|", "n/a"]
    assert "nan" not in out


# --------------------------------------------------------------- ping-pong
def test_fig3_size_ranges():
    lat = fig3_sizes_latency()
    bw = fig3_sizes_bandwidth()
    assert lat[0] == 1 and lat[-1] == 32 * 1024
    assert bw[0] == 1 and bw[-1] == 16 * 2**20
    assert all(b == 2 * a for a, b in zip(lat, lat[1:]))


def test_pingpong_latency_halves_round_trip():
    machine = build_deep_er_prototype()
    pts = pingpong(machine, "cn00", "cn01", [1024], repetitions=2)
    assert len(pts) == 1
    expected = machine.fabric.transfer_time("cn00", "cn01", 1024)
    assert pts[0].latency_s == pytest.approx(expected, rel=1e-6)
    assert pts[0].bandwidth_bps == pytest.approx(1024 / expected, rel=1e-6)


def test_pingpong_monotone_latency():
    machine = build_deep_er_prototype()
    pts = pingpong(machine, "cn00", "bn00", [64, 4096, 2**20])
    lats = [p.latency_s for p in pts]
    assert lats[0] < lats[1] < lats[2]


def test_pingpong_repetitions_consistent():
    m1 = build_deep_er_prototype()
    m2 = build_deep_er_prototype()
    a = pingpong(m1, "cn00", "cn01", [512], repetitions=1)[0]
    b = pingpong(m2, "cn00", "cn01", [512], repetitions=8)[0]
    assert a.latency_s == pytest.approx(b.latency_s, rel=1e-9)
