"""Tests for the claims-validation module."""

import pytest

from repro import validate
from repro.apps.xpic import Mode
from repro.engine import Engine
from repro.validate import Claim, render_claims, validate_claims


def test_claim_grading():
    c = Claim("x", "s", "p", measured=1.3, low=1.0, high=1.5)
    assert c.passed
    assert not Claim("x", "s", "p", measured=1.6, low=1.0, high=1.5).passed
    assert Claim("x", "s", "p", 1.0, 1.0, 1.0).passed  # inclusive bounds


def test_claim_formatting():
    c = Claim("x", "s", "p", measured=0.816, low=0, high=1, fmt="{:.1%}")
    assert c.measured_str == "81.6%"


@pytest.fixture(scope="module")
def claims():
    return validate_claims(steps=60)


def test_all_claims_reproduce(claims):
    failing = [c.claim_id for c in claims if not c.passed]
    assert not failing, f"claims failed: {failing}"


def test_claim_coverage(claims):
    """Every table/figure of the evaluation contributes claims."""
    ids = {c.claim_id for c in claims}
    assert any(i.startswith("T1") for i in ids)
    assert any(i.startswith("F3") for i in ids)
    assert any(i.startswith("F7") for i in ids)
    assert any(i.startswith("F8") for i in ids)
    assert len(claims) >= 14


def test_render_claims(claims):
    out = render_claims(claims)
    assert "Claims checklist" in out
    assert f"{len(claims)}/{len(claims)} claims reproduced" in out
    assert "PASS" in out


def test_validate_simulates_only_the_runs_its_claims_read(monkeypatch):
    """Every F7 and F8 claim reads the 1- and 8-node runs, so the sweep
    is those six specs, not Fig 8's twelve."""
    swept = []
    run_many = Engine.run_many

    def recording(self, specs, *args, **kwargs):
        swept.extend(specs)
        return run_many(self, specs, *args, **kwargs)

    monkeypatch.setattr(Engine, "run_many", recording)
    validate_claims(steps=5)
    assert sorted((s.mode, s.nodes_per_solver) for s in swept) == sorted(
        (m.value, n) for m in Mode for n in (1, 8)
    )


def test_lean_sweep_grades_as_the_full_one(claims, monkeypatch):
    """Sweeping 2 and 4 nodes too changes no claim's measurement."""
    run_fig8 = validate.run_fig8
    full_counts = []

    def full_sweep(**kwargs):
        kwargs["node_counts"] = (1, 2, 4, 8)
        result = run_fig8(**kwargs)
        full_counts.append(result.node_counts)
        return result

    monkeypatch.setattr(validate, "run_fig8", full_sweep)
    full = validate_claims(steps=60)
    assert full_counts == [[1, 2, 4, 8]]
    assert [(c.claim_id, c.measured) for c in claims] == [
        (c.claim_id, c.measured) for c in full
    ]
