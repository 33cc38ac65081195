"""The crash-safe file layer: every file the serving stack persists
keeps its bytes, the columnar index survives a cut at any byte, and
journal compaction reaches the disk."""

import hashlib
import json
import os
import stat
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ExperimentSpec
from repro.serve import JobJournal, serve_jobdir, submit_job, write_heartbeat
from repro.store import ResultCache
from repro.store.index import ColumnarIndex, entry_columns

# -- golden bytes --------------------------------------------------------------

#: sha256 of each file the fixed sequence below writes
GOLDEN = {
    "journal":
        "2195d8731d633da0616cb5a3a4d89b4587a48e1ac6d6da4644921a2f6a6c60c0",
    "journal-compacted":
        "3dcbc13b9c54f5b5407f94e7bce4e53a8ce8babd62dd1aa1220643257db4360c",
    "index":
        "30a52690a16c8ccd7bf09fcea26e78682ed8845c3346f9cf1f7709d0b36420e1",
    "index-compacted":
        "9b6f9c910275895d8588a3c382af25590980b9b20a45c8701b7973e2c9a18d5d",
    "index-rebuilt":
        "7ae70f9cfef1be6d5363c7713b4540fb8febaa72306c53a1248a24814f70c7d6",
    "blob": "c932c250a324c002322ff75bca2bfb1aac971a53a223ef7d380d79e9494e201e",
    "bundle":
        "734ceeaffac79d5f6bd57f9b0d70f25ef8f2b5f54aa49f207522a6c1beb9ee0f",
    "heartbeat":
        "cc82dd1541196c73944819982ad94d74a9c9dec594a6e9c01dd0b2090320deed",
    "request":
        "b67d2f2ad00c2c6db905aefafe5ddde0cb1430ea161d291db88273902a2b86ce",
    "result":
        "8780d004085aae7d252d690f54f080debee98f7199a417dee832c7ba6d3e9e53",
}


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _journal_sequence(path) -> dict:
    j = JobJournal(path)
    j.record_accepted(
        1, "k1", {"steps": 3}, priority=2, client="alice", deadline_s=9.0,
        meta={"request_id": "r1"},
    )
    j.record_accepted(2, "k2", {"steps": 4})
    j.record_accepted(3, "k3", {"steps": 5}, meta={"request_id": "r3"})
    j.record_attached(1, {"request_id": "r2"})
    j.record_dispatched(1)
    j.record_completed(1)
    j.record_dispatched(2)
    j.record_failed(2, "boom")
    j.record_quarantined(3, "k3", "crashed the pool 3 times", "tb...")
    j.record_accepted(4, "k4", {"steps": 6})
    j.record_quarantined(4, "k4", "watchdog")
    out = {"journal": _digest(path)}
    j.compact()
    out["journal-compacted"] = _digest(path)
    return out


def _row(n: int) -> dict:
    entry = {
        "schema": "repro.cache_entry/1",
        "spec": {"app": "xpic", "preset": "deep-er", "mode": "cb",
                 "seed": n, "steps": 10 * n},
        "report": {
            "result": {"mode": "C+B", "nodes_per_solver": n,
                       "total_runtime": 1.5 * n, "fields_time": 0.25 * n,
                       "particles_time": 1.25 * n,
                       "comm_overhead_fraction": 0.01 * n},
            "network": {"total_bytes": 4096 * n},
            "sim": {"events_processed": 100 * n},
        },
    }
    return entry_columns(entry, size=1000 + n, mtime=1.7e9 + n)


def _index_sequence(root) -> dict:
    root.mkdir()
    idx = ColumnarIndex(root)
    for n in (1, 2, 3):
        idx.record_put(f"key{n}", _row(n))
    idx.record_put("key1", _row(4))
    idx.record_del("key2")
    out = {"index": _digest(idx.path)}
    idx.compact()
    out["index-compacted"] = _digest(idx.path)
    idx.rebuild({f"key{n}": _row(n) for n in (5, 6)})
    out["index-rebuilt"] = _digest(idx.path)
    return out


def _store_sequence(root) -> dict:
    cache = ResultCache(root / "store", salt="golden")
    key = "ab" + "0" * 62
    bundle_in = root / "in.json"
    bundle_in.write_text(json.dumps({
        "schema": "repro.cache_bundle/1",
        "salt": "golden",
        "entries": [{"key": key, "salt": "golden", "spec": {"steps": 3},
                     "report": {"result": {"total_runtime": 2.5}}}],
    }))
    assert cache.import_bundle(bundle_in)["imported"] == 1
    out = {"blob": _digest(cache.path_for(key))}
    cache.export_bundle(root / "out.json")
    out["bundle"] = _digest(root / "out.json")
    return out


def _jobdir_sequence(root, monkeypatch) -> dict:
    jobdir = root / "jobs"
    with monkeypatch.context() as m:
        m.setattr(os, "getpid", lambda: 4242)
        m.setattr(time, "time", lambda: 1.7e9)
        write_heartbeat(jobdir / "heartbeat.json", "serving",
                        {"queue_depth": 3, "in_flight": 1})
    out = {"heartbeat": _digest(jobdir / "heartbeat.json")}
    submit_job(jobdir, ExperimentSpec(mode="cb", steps=7), client="golden",
               job_id="golden-1", deadline_s=5.0)
    out["request"] = _digest(jobdir / "queue" / "golden-1.json")
    # a request without a spec is rejected at once with a fixed result
    (jobdir / "queue" / "golden-1.json").write_text(json.dumps({"id": "x"}))
    serve_jobdir(jobdir, once=True, durable=False)
    out["result"] = _digest(jobdir / "results" / "golden-1.json")
    return out


def test_every_persisted_file_keeps_its_bytes(tmp_path, monkeypatch):
    """A fixed sequence through the journal, the index, the blob store,
    the heartbeat and the job directory writes the same bytes as the
    layers written before the shared file layer did."""
    got = {}
    got.update(_journal_sequence(tmp_path / "journal.jsonl"))
    got.update(_index_sequence(tmp_path / "index"))
    got.update(_store_sequence(tmp_path))
    got.update(_jobdir_sequence(tmp_path, monkeypatch))
    assert got == GOLDEN


# -- the index under a cut and a rewrite ---------------------------------------

#: index mutations (op, key number, blob size)
_index_ops = st.lists(
    st.tuples(
        st.sampled_from(("put", "put", "del")),
        st.integers(1, 4),
        st.integers(1, 999),
    ),
    min_size=1,
    max_size=12,
)


def _index_over(root, raw: bytes) -> ColumnarIndex:
    root.mkdir()
    (root / "index.jsonl").write_bytes(raw)
    return ColumnarIndex(root)


@given(_index_ops, st.data())
@settings(max_examples=150, deadline=None)
def test_index_cut_at_any_byte_holds_a_line_prefix(ops, data):
    """A writer killed mid-append leaves the index cut at any byte.
    Loading it never raises and holds the rows of the file cut back to
    its last newline, or forward to its next one when the torn line is
    whole (only its newline is missing); a torn line is dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "full").mkdir()
        idx = ColumnarIndex(tmp / "full")
        for op, n, size in ops:
            if op == "put":
                idx.record_put(f"key{n}", {**_row(n), "size": size})
            else:
                idx.record_del(f"key{n}")
        raw = idx.path.read_bytes()
        cut = data.draw(st.integers(0, len(raw)), label="cut")
        whole = 0 < cut < len(raw) and raw[cut:cut + 1] == b"\n"
        if whole:
            prefix = raw[: cut + 1]
        else:
            prefix = raw[: raw.rfind(b"\n", 0, cut) + 1]
        got = _index_over(tmp / "cut", raw[:cut])
        want = _index_over(tmp / "want", prefix)
        assert got.rows == want.rows
        assert got.stored_bytes == want.stored_bytes
        assert got.dead_lines == want.dead_lines
        assert not got.stale and want.dropped_lines == 0
        torn = not whole and cut > len(prefix)
        assert got.dropped_lines == int(torn)


def test_index_refresh_reloads_after_a_rewrite(tmp_path):
    """A reader whose offset lies past the end of a compacted index
    reloads it whole instead of reading from the stale offset."""
    writer = ColumnarIndex(tmp_path)
    for n in (1, 2, 3):
        writer.record_put(f"key{n}", _row(n))
    reader = ColumnarIndex(tmp_path)
    writer.record_del("key1")
    writer.record_del("key2")
    writer.compact()
    assert reader.refresh() == 0
    assert sorted(reader.rows) == ["key3"]
    assert reader.dead_lines == 0 and reader.dropped_lines == 0


def test_index_put_does_not_skip_other_writers_rows(tmp_path):
    """A writer's own append leaves its read offset before the lines
    another index appended since its last refresh, so the next refresh
    folds them in."""
    a = ColumnarIndex(tmp_path)
    b = ColumnarIndex(tmp_path)
    a.record_put("ka", _row(1))
    b.refresh()
    b.record_put("kb", _row(2))
    a.record_put("kc", _row(3))
    a.refresh()
    assert sorted(a.rows) == ["ka", "kb", "kc"]
    assert len(a) == 3
    assert a.stored_bytes == sum(_row(n)["size"] for n in (1, 2, 3))
    assert ColumnarIndex(tmp_path).rows == a.rows


def test_index_append_after_a_torn_tail_starts_a_fresh_line(tmp_path):
    """The next put after a writer died mid-append lands on a line of
    its own: only the torn row is lost."""
    idx = ColumnarIndex(tmp_path)
    idx.record_put("key1", _row(1))
    idx.record_put("key2", _row(2))
    raw = idx.path.read_bytes()
    idx.path.write_bytes(raw[:-5])
    ColumnarIndex(tmp_path).record_put("key3", _row(3))
    reopened = ColumnarIndex(tmp_path)
    assert sorted(reopened.rows) == ["key1", "key3"]
    assert reopened.dropped_lines == 1


# -- durability ----------------------------------------------------------------


def _watch_disk(monkeypatch) -> list:
    """Record every fsync (of a file or a directory) and rename."""
    calls = []
    fsync, replace = os.fsync, os.replace

    def watched_fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        calls.append(f"fsync {kind}")
        fsync(fd)

    def watched_replace(src, dst):
        calls.append("rename")
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", watched_fsync)
    monkeypatch.setattr(os, "replace", watched_replace)
    return calls


def test_journal_compaction_reaches_the_disk(tmp_path, monkeypatch):
    """Compaction keeps the quarantine set, the poison-spec circuit
    breaker: it fsyncs the new journal before renaming it into place
    and the directory after."""
    journal = JobJournal(tmp_path / "journal.jsonl")
    journal.record_accepted(1, "k1", {"steps": 3})
    journal.record_quarantined(1, "k1", "poison")
    calls = _watch_disk(monkeypatch)
    journal.compact()
    assert calls == ["fsync file", "rename", "fsync dir"]
    assert list(journal.replay().quarantined) == ["k1"]


def test_hot_path_writes_skip_fsync(tmp_path, monkeypatch):
    """Result blobs, index appends and job-directory requests are
    atomic but not synced: they stay off the disk's flush path."""
    cache = ResultCache(tmp_path / "store", salt="golden")
    bundle = tmp_path / "in.json"
    bundle.write_text(json.dumps({
        "schema": "repro.cache_bundle/1",
        "salt": "golden",
        "entries": [{"key": "cd" + "1" * 62, "salt": "golden",
                     "spec": {"steps": 4}, "report": {}}],
    }))
    calls = _watch_disk(monkeypatch)
    cache.import_bundle(bundle)
    submit_job(tmp_path / "jobs", ExperimentSpec(steps=3), job_id="hot")
    assert calls == ["rename", "rename"]
    assert not list(tmp_path.rglob("*.tmp"))
