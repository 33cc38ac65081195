"""Smoke tests: every example script runs to completion.

The two scheduling examples print only simulated quantities, so the
sha256 of their stdout is pinned: a refactor of the machine builder or
the batch scheduler must leave every byte where it was.
"""

import hashlib
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    pathlib.Path(__file__).parent.parent.joinpath("examples").glob("*.py")
)

STDOUT_PINS = {
    "heterogeneous_scheduling.py":
        "4aaeca4495de2fcdda8e82a8055ad29a1429c3e6d32485480435c93292a7822c",
    "modular_supercomputing.py":
        "442d7d546c2f346fd72f22c1d390730706de4a44fb076c7ed89981ec35b6b050",
}


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3  # deliverable: at least three examples


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()  # says something
    if script.name in STDOUT_PINS:
        digest = hashlib.sha256(result.stdout.encode()).hexdigest()
        assert digest == STDOUT_PINS[script.name], (
            f"{script.name}: stdout now hashes to {digest}"
        )
