"""Unit tests for the durability primitives: the write-ahead job
journal, the shared backoff helper, and the liveness heartbeat."""

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backoff import ExponentialBackoff
from repro.engine import Engine, ExperimentSpec
from repro.mpi import FaultTolerancePolicy
from repro.serve import (
    HEARTBEAT_SCHEMA,
    JOB_JOURNAL_SCHEMA,
    JobJournal,
    read_heartbeat,
    write_heartbeat,
)


# -- journal append / replay -------------------------------------------------


def test_journal_roundtrip_folds_lifecycle(tmp_path):
    j = JobJournal(tmp_path / "journal.jsonl")
    j.record_accepted(
        1, "k1", {"steps": 3}, priority=2, client="alice",
        deadline_s=9.0, meta={"request_id": "r1"},
    )
    j.record_accepted(2, "k2", {"steps": 4})
    j.record_attached(1, {"request_id": "r2"})
    j.record_dispatched(1)
    j.record_completed(1)
    j.record_dispatched(2)
    state = j.replay()
    assert state.records[1].state == "completed"
    assert not state.records[1].unresolved
    assert state.records[1].metas == [
        {"request_id": "r1"}, {"request_id": "r2"}
    ]
    assert state.records[1].priority == 2
    assert state.records[1].client == "alice"
    assert state.records[1].deadline_s == 9.0
    # job 2 was dispatched but never resolved: the recovery set
    assert [r.seq for r in state.unresolved()] == [2]
    assert state.records[2].spec == {"steps": 4}
    assert state.max_seq == 2
    assert state.dropped_lines == 0
    header = json.loads(
        (tmp_path / "journal.jsonl").read_text().splitlines()[0]
    )
    assert header == {"op": "header", "schema": JOB_JOURNAL_SCHEMA}


def test_journal_failed_record_is_resolved(tmp_path):
    j = JobJournal(tmp_path / "journal.jsonl")
    j.record_accepted(1, "k1", {"steps": 3})
    j.record_failed(1, "boom")
    state = j.replay()
    assert state.records[1].state == "failed"
    assert state.records[1].error == "boom"
    assert state.unresolved() == []


def test_journal_torn_final_line_is_dropped(tmp_path):
    path = tmp_path / "journal.jsonl"
    j = JobJournal(path)
    j.record_accepted(1, "k1", {"steps": 3})
    j.record_accepted(2, "k2", {"steps": 4})
    raw = path.read_bytes()
    # SIGKILL mid-append: the last line is a prefix of valid JSON
    path.write_bytes(raw[:-15])
    state = j.replay()
    assert state.dropped_lines == 1
    assert list(state.records) == [1]
    assert state.records[1].unresolved
    # the recovery replay (trim=True) cuts the torn tail off the file,
    # so the next append starts on a clean line instead of merging
    state = j.replay(trim=True)
    assert state.dropped_lines == 1
    assert path.read_bytes().endswith(b"\n")
    j.record_completed(1)
    state = j.replay()
    assert state.dropped_lines == 0
    assert state.records[1].state == "completed"


def test_journal_foreign_header_reads_as_stale_and_empty(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text(
        json.dumps({"op": "header", "schema": "someone.else/9"}) + "\n"
        + json.dumps({"op": "accepted", "seq": 1, "key": "k"}) + "\n"
    )
    state = JobJournal(path).replay()
    assert state.stale
    assert state.records == {} and state.quarantined == {}


def test_journal_missing_file_replays_empty(tmp_path):
    state = JobJournal(tmp_path / "never-written.jsonl").replay()
    assert state.records == {}
    assert state.max_seq == 0
    assert not state.stale


def test_journal_quarantine_survives_compaction(tmp_path):
    path = tmp_path / "journal.jsonl"
    j = JobJournal(path)
    j.record_accepted(1, "good", {"steps": 3})
    j.record_completed(1)
    j.record_accepted(2, "poison", {"steps": 4})
    j.record_quarantined(2, "poison", "crashed the pool 3 times", "tb...")
    j.compact()
    state = j.replay()
    # resolved records gone; the circuit breaker persists with its seq
    assert list(state.records) == []
    assert list(state.quarantined) == ["poison"]
    rec = state.quarantined["poison"]
    assert rec.seq == 2 and rec.traceback == "tb..."
    assert state.max_seq == 2  # fresh ids still start above it


def test_journal_unknown_ops_counted_not_fatal(tmp_path):
    path = tmp_path / "journal.jsonl"
    j = JobJournal(path)
    j.record_accepted(1, "k1", {"steps": 3})
    with open(path, "a") as fh:
        fh.write(json.dumps({"op": "future-op", "seq": 9}) + "\n")
        fh.write("not json at all\n")
    state = j.replay()
    assert state.dropped_lines == 2
    assert state.records[1].unresolved
    stats = state.stats()
    assert stats["records"] == 1
    assert stats["dropped_lines"] == 2
    assert stats["by_state"] == {"accepted": 1}


#: job transitions (op, job seq); a job's first transition is preceded
#: by its admission, as the service journals them
_transitions = st.lists(
    st.tuples(
        st.sampled_from(
            ("attached", "dispatched", "completed", "failed", "quarantined")
        ),
        st.integers(1, 5),
    ),
    min_size=1,
    max_size=15,
)


def _write_journal(path, transitions):
    j = JobJournal(path)
    admitted = set()
    for op, seq in transitions:
        if seq not in admitted:
            admitted.add(seq)
            j.record_accepted(seq, f"k{seq}", {"steps": seq}, meta={"n": seq})
        if op == "attached":
            j.record_attached(seq, {"n": seq})
        elif op == "dispatched":
            j.record_dispatched(seq)
        elif op == "completed":
            j.record_completed(seq)
        elif op == "failed":
            j.record_failed(seq, "boom")
        else:
            j.record_quarantined(seq, f"k{seq}", "poison", "tb")
    return j


@given(_transitions, st.data())
@settings(max_examples=150, deadline=None)
def test_journal_cut_at_any_byte_replays_a_clean_prefix(transitions, data):
    """A writer killed mid-append leaves the journal cut at any byte.
    Replaying it never raises, recovers only records the whole journal
    has, and drops at most the one torn line; the recovery replay
    (``trim=True``) leaves the file empty or ending in a newline."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "journal.jsonl"
        full = _write_journal(path, transitions).replay()
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw)), label="cut")
        path.write_bytes(raw[:cut])
        state = JobJournal(path).replay()
        assert full.dropped_lines == 0
        assert state.dropped_lines <= 1
        assert set(state.records) <= set(full.records)
        for seq, rec in state.records.items():
            assert (rec.key, rec.spec) == (
                full.records[seq].key, full.records[seq].spec
            )
        assert set(state.quarantined) <= set(full.quarantined)
        JobJournal(path).replay(trim=True)
        trimmed = path.read_bytes()
        assert trimmed == b"" or trimmed.endswith(b"\n")
        assert raw.startswith(trimmed)


# -- shared backoff helper ---------------------------------------------------


def test_backoff_zero_jitter_is_exact_geometric_sequence():
    bo = ExponentialBackoff(base_s=0.001, factor=2.0)
    assert bo.delays(4) == [0.001, 0.002, 0.004, 0.008]


def test_backoff_cap_and_floor():
    bo = ExponentialBackoff(base_s=1.0, factor=10.0, cap_s=5.0)
    assert bo.next_delay() == 1.0
    assert bo.next_delay() == 5.0  # 10.0 capped
    # the floor (a server retry-after hint) raises a small delay...
    bo2 = ExponentialBackoff(base_s=0.001, factor=2.0, cap_s=0.5)
    assert bo2.next_delay(floor_s=0.25) == 0.25
    # ...but the cap still wins over a hostile hint
    assert bo2.next_delay(floor_s=60.0) == 0.5


def test_backoff_decorrelated_bounds_and_determinism():
    a = ExponentialBackoff(
        base_s=0.05, factor=3.0, cap_s=2.0, decorrelated=True, seed=11
    )
    b = ExponentialBackoff(
        base_s=0.05, factor=3.0, cap_s=2.0, decorrelated=True, seed=11
    )
    da = a.delays(8)
    assert da == b.delays(8)
    for d in da:
        assert 0.05 <= d <= 2.0


def _default_rng_callers(monkeypatch):
    """Record the module of every ``np.random.default_rng`` caller."""
    callers = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return callers


def test_zero_jitter_backoff_builds_no_generator(monkeypatch):
    callers = _default_rng_callers(monkeypatch)
    bo = ExponentialBackoff(base_s=0.001, factor=2.0, cap_s=0.004)
    bo.delays(5)
    bo.reset()
    bo.delays(5)
    FaultTolerancePolicy(max_retries=3).backoff().delays(3)
    assert callers == []


def test_fault_injected_run_builds_no_generator_per_message(monkeypatch):
    """The CI chaos spec (bn00 crashes at 1 s) sends its ~1.5k messages
    under a retry policy without building one RNG per message, and its
    explicit plan draws nothing from the fault injector's Poisson
    stream, so no stream is built at all."""
    callers = _default_rng_callers(monkeypatch)
    plan = {
        "schema": "repro.fault_plan/1",
        "seed": 1,
        "mtbf_s": None,
        "events": [{"time_s": 1.0, "kind": "node_crash", "target": "bn00"}],
    }
    report = Engine().run(
        ExperimentSpec(
            mode="C+B", nodes_per_solver=2, steps=60, fault_plan=plan,
            ckpt_interval_s=0.5,
        )
    )
    assert report.resiliency["restarts"] >= 1
    assert callers == []


def test_backoff_reset_replays_the_seeded_streams():
    """The stream built on the first draw gives the delays one seeded
    up front would, and ``reset()`` replays them."""
    dec = ExponentialBackoff(
        base_s=0.05, factor=3.0, cap_s=2.0, decorrelated=True, seed=11
    )
    rng = np.random.default_rng(11)
    expected, prev = [], 0.05
    for _ in range(8):
        prev = min(rng.uniform(0.05, max(0.05, prev * 3.0)), 2.0)
        expected.append(prev)
    assert dec.delays(8) == expected
    dec.reset()
    assert dec.delays(8) == expected


def test_backoff_validation():
    with pytest.raises(ValueError):
        ExponentialBackoff(base_s=-1.0)
    with pytest.raises(ValueError):
        ExponentialBackoff(factor=0.5)
    with pytest.raises(ValueError):
        ExponentialBackoff(cap_s=0.0)


def test_fault_tolerance_policy_shares_the_backoff_helper():
    # the fixed schedule: the base delay, doubling per attempt
    plain = FaultTolerancePolicy(max_retries=3, backoff_base_s=1e-3)
    assert plain.backoff().delays(3) == [1e-3, 2e-3, 4e-3]
    with pytest.raises(ValueError):
        FaultTolerancePolicy(max_retries=-1)
    with pytest.raises(ValueError):
        FaultTolerancePolicy(backoff_base_s=-1e-3)


# -- heartbeat ---------------------------------------------------------------


def test_heartbeat_roundtrip_reports_alive(tmp_path):
    path = tmp_path / "heartbeat.json"
    write_heartbeat(path, "serving", {"queue_depth": 3, "completed": 7})
    doc = read_heartbeat(path)
    assert doc["schema"] == HEARTBEAT_SCHEMA
    assert doc["status"] == "serving"
    assert doc["pid"] == os.getpid()
    assert doc["alive"] is True  # we are the recorded pid
    assert doc["age_s"] >= 0.0
    assert doc["queue_depth"] == 3 and doc["completed"] == 7


def test_heartbeat_dead_pid_and_foreign_schema(tmp_path):
    path = tmp_path / "heartbeat.json"
    write_heartbeat(path, "serving")
    doc = json.loads(path.read_text())
    doc["pid"] = 2 ** 22 + 1  # beyond any real pid on this host
    path.write_text(json.dumps(doc))
    assert read_heartbeat(path)["alive"] is False
    doc["schema"] = "someone.else/1"
    path.write_text(json.dumps(doc))
    assert read_heartbeat(path) is None
    assert read_heartbeat(tmp_path / "missing.json") is None
