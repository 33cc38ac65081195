"""Determinism guarantees, enforced mechanically and behaviourally."""

import pathlib
import re
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def test_no_unseeded_randomness_in_library_code():
    """Every RNG in the library goes through seeded default_rng; the
    legacy global numpy RNG and random module are banned."""
    offenders = []
    banned = re.compile(
        r"np\.random\.(rand|randn|randint|random|choice|seed|uniform|normal)\b"
        r"|^\s*import random\b|random\.random\(",
        re.M,
    )
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        if banned.search(text):
            offenders.append(str(path.relative_to(SRC)))
    assert not offenders, f"unseeded randomness in: {offenders}"


def test_no_wall_clock_in_library_code():
    """Simulated *results* must not depend on wall-clock time.  The
    instrumentation layer may read the host clock for telemetry
    (events/sec, wall_time_s in RunReports), but every such line must
    carry an explicit ``# wall-clock-ok`` pragma; anything else is an
    offender."""
    offenders = []
    banned = re.compile(r"time\.(time|perf_counter|monotonic)\(")
    for path in SRC.rglob("*.py"):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if banned.search(line) and "# wall-clock-ok" not in line:
                offenders.append(f"{path.relative_to(SRC)}:{lineno}")
    assert not offenders, f"unsanctioned wall-clock use in: {offenders}"


def test_wall_clock_telemetry_does_not_leak_into_results():
    """The sanctioned host-clock reads are telemetry only: two engine
    runs of the same spec agree bit-for-bit on everything except the
    wall-time fields."""
    from repro.engine import Engine, ExperimentSpec

    spec = ExperimentSpec(mode="cb", steps=5)
    a, b = Engine().run(spec).to_dict(), Engine().run(spec).to_dict()
    for d in (a, b):
        for key in ("wall_time_s", "events_per_sec", "host_wall_s"):
            d["sim"].pop(key, None)
    assert a == b


def test_headline_experiment_bit_reproducible():
    """Two fresh runs of the Fig 7 experiment give identical floats."""
    from repro.apps.xpic import run_experiment
    from repro.engine import ExperimentSpec
    from repro.hardware import build_deep_er_prototype

    spec = ExperimentSpec(mode="cb", steps=30, nodes_per_solver=2)

    def once():
        r = run_experiment(build_deep_er_prototype(), spec)
        return (r.total_runtime, r.fields_time, r.particles_time,
                r.inter_module_comm_time)

    assert once() == once()


def test_numeric_physics_bit_reproducible():
    from repro.apps.xpic import SpeciesConfig, XpicConfig, XpicSimulation

    cfg = XpicConfig(
        nx=16, ny=16, dt=0.05, steps=4,
        species=(SpeciesConfig("e", -1.0, 1.0, 8),),
    )
    a = XpicSimulation(cfg)
    a.run()
    b = XpicSimulation(cfg)
    b.run()
    assert a.state_fingerprint() == b.state_fingerprint()


def test_reproducible_across_processes():
    """Determinism survives interpreter restarts (no id()/hash-order
    dependence leaking into results)."""
    code = (
        "from repro.apps.xpic import run_experiment;"
        "from repro.engine import ExperimentSpec;"
        "from repro.hardware import build_deep_er_prototype;"
        "r = run_experiment(build_deep_er_prototype(),"
        " ExperimentSpec(mode='cb', steps=10, nodes_per_solver=2));"
        "print(repr(r.total_runtime))"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        ).stdout.strip()
        for _ in range(2)
    }
    assert len(outs) == 1 and "" not in outs
