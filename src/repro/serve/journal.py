"""Write-ahead job journal: the durability spine of the experiment service.

The service's in-memory queue dies with the process; the journal is
what survives.  Every job transition is appended as one JSON line to
``journal.jsonl`` *before* the transition takes effect, through the
JSON-lines log of :mod:`repro.durable` that the result store's
columnar index uses too: concurrent appends interleave whole lines,
never torn ones, and a half-written final line (SIGKILL mid-append) is
dropped on replay instead of poisoning the load.

Record lifecycle per job (``seq`` is the journal-wide job sequence
number, unique across service restarts)::

    accepted  --> dispatched --> completed
        |             |      \\-> failed
        |             \\--------> quarantined
        \\-> attached (a coalesced duplicate request rode along)

Replay folds the lines into one :class:`JournalRecord` per ``seq``
(last state wins) plus a persistent quarantine set keyed by the spec's
content-addressed cache key.  A restarted service recovers exactly the
records still in ``accepted``/``dispatched`` — the jobs the dead
process had promised but not delivered — in original sequence order,
and skips any whose key was quarantined (poison specs must not
crash-loop the replacement process).

Compaction durably rewrites the file with only the quarantine set
(everything else is either resolved or about to be re-accepted under a
fresh line), and only runs from management paths — recovery with
nothing unresolved, or a clean shutdown — never concurrently with
appends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..durable import JsonLinesLog

__all__ = [
    "JOB_JOURNAL_SCHEMA",
    "JournalRecord",
    "JournalState",
    "JobJournal",
]

#: schema tag of the journal file (bump on breaking layout change)
JOB_JOURNAL_SCHEMA = "repro.job_journal/1"

#: the unresolved states a restarted service must recover
UNRESOLVED_STATES = ("accepted", "dispatched")

#: every state a replayed record can land in
RECORD_STATES = ("accepted", "dispatched", "completed", "failed", "quarantined")


@dataclass
class JournalRecord:
    """The folded view of one journaled job after replay."""

    seq: int
    key: str = ""
    spec: Optional[dict] = None
    priority: int = 0
    client: str = "default"
    deadline_s: Optional[float] = None
    state: str = "accepted"
    error: Optional[str] = None
    traceback: Optional[str] = None
    #: opaque per-request payloads (the file-job server stores its
    #: request ids here so recovery can re-route results), first the
    #: accepting request's, then one per coalesced attach
    metas: List[dict] = field(default_factory=list)

    @property
    def unresolved(self) -> bool:
        """True while the job still owes its client a resolution."""
        return self.state in UNRESOLVED_STATES


class JournalState:
    """Replayed journal: seq -> record, plus the quarantine set."""

    def __init__(self):
        #: insertion-ordered (= sequence-ordered) record table
        self.records: Dict[int, JournalRecord] = {}
        #: cache key -> the record that poisoned it (persists compaction)
        self.quarantined: Dict[str, JournalRecord] = {}
        #: malformed or torn lines dropped during replay
        self.dropped_lines = 0
        #: file carried a foreign schema header (contents unusable)
        self.stale = False

    @property
    def max_seq(self) -> int:
        """Highest sequence number seen (0 on an empty journal)."""
        top = max(self.records, default=0)
        qtop = max((r.seq for r in self.quarantined.values()), default=0)
        return max(top, qtop)

    def unresolved(self) -> List[JournalRecord]:
        """Records still owed to clients, in original sequence order."""
        return [r for r in self.records.values() if r.unresolved]

    def in_order(self) -> List[JournalRecord]:
        """Every record, in original sequence order."""
        return [self.records[seq] for seq in sorted(self.records)]

    def stats(self) -> dict:
        """Replay counters (for logs, status, and the microbench)."""
        by_state: Dict[str, int] = {}
        for rec in self.records.values():
            by_state[rec.state] = by_state.get(rec.state, 0) + 1
        return {
            "records": len(self.records),
            "unresolved": len(self.unresolved()),
            "quarantined": len(self.quarantined),
            "dropped_lines": self.dropped_lines,
            "stale": self.stale,
            "by_state": by_state,
        }


class JobJournal:
    """Append-only write-ahead log of job transitions.

    Appends are crash-atomic at line granularity (``O_APPEND``, one
    ``write(2)`` per record); :meth:`replay` is the recovery read.  The
    journal records *intent*, not results — reports live in the result
    store, which is why a recovered job whose report already reached
    the store resolves as a cache hit instead of re-running.
    """

    def __init__(self, path):
        self.path = Path(path).expanduser()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._log = JsonLinesLog(self.path, JOB_JOURNAL_SCHEMA)

    # -- append side ---------------------------------------------------------
    def record_accepted(
        self,
        seq: int,
        key: str,
        spec: dict,
        priority: int = 0,
        client: str = "default",
        deadline_s: Optional[float] = None,
        meta: Optional[dict] = None,
    ) -> None:
        """Journal one admission — the write that makes a job durable."""
        rec = {
            "op": "accepted",
            "seq": int(seq),
            "key": key,
            "spec": spec,
            "priority": int(priority),
            "client": client,
        }
        if deadline_s is not None:
            rec["deadline_s"] = float(deadline_s)
        if meta is not None:
            rec["meta"] = meta
        self._log.append(rec)

    def record_attached(self, seq: int, meta: dict) -> None:
        """Journal a coalesced duplicate riding on an accepted job."""
        self._log.append({"op": "attached", "seq": int(seq), "meta": meta})

    def record_dispatched(self, seq: int) -> None:
        """Journal a job leaving the queue for the worker pool."""
        self._log.append({"op": "dispatched", "seq": int(seq)})

    def record_completed(self, seq: int) -> None:
        """Journal a delivered result (write *after* the store put)."""
        self._log.append({"op": "completed", "seq": int(seq)})

    def record_failed(self, seq: int, error: str) -> None:
        """Journal a typed per-job failure (app error, deadline, ...)."""
        self._log.append({"op": "failed", "seq": int(seq), "error": str(error)})

    def record_quarantined(
        self,
        seq: int,
        key: str,
        error: str,
        traceback: Optional[str] = None,
    ) -> None:
        """Journal a poison spec: skipped on every future recovery."""
        rec = {
            "op": "quarantined",
            "seq": int(seq),
            "key": key,
            "error": str(error),
        }
        if traceback:
            rec["traceback"] = str(traceback)
        self._log.append(rec)

    # -- replay side ---------------------------------------------------------
    def replay(self, trim: bool = False) -> JournalState:
        """Fold the whole journal into a :class:`JournalState`.

        Unknown ops and torn/malformed lines are counted and dropped;
        a foreign schema header marks the state ``stale`` (contents
        ignored — the caller starts a fresh journal).

        ``trim=True`` additionally truncates a torn final line (no
        trailing newline — the writer died mid-``write``) off the file,
        so the next append starts on a clean line instead of merging
        into the torn one.  Only the process that *owns* the journal
        may trim (the service does, at recovery); read-only observers
        like ``repro serve --status`` must not, or they would race a
        live writer."""
        state = JournalState()
        got = self._log.read(trim=trim)
        if got.foreign:
            state.stale = True
            return state
        state.dropped_lines = got.dropped
        for rec in got.records:
            op = rec["op"]
            try:
                seq = int(rec["seq"])
            except (KeyError, ValueError, TypeError):
                state.dropped_lines += 1
                continue
            if op == "accepted":
                record = JournalRecord(
                    seq=seq,
                    key=str(rec.get("key", "")),
                    spec=rec.get("spec"),
                    priority=int(rec.get("priority", 0)),
                    client=str(rec.get("client", "default")),
                    deadline_s=rec.get("deadline_s"),
                )
                if rec.get("meta") is not None:
                    record.metas.append(rec["meta"])
                state.records[seq] = record
            elif op == "attached":
                record = state.records.get(seq)
                if record is None:
                    state.dropped_lines += 1
                elif rec.get("meta") is not None:
                    record.metas.append(rec["meta"])
            elif op in ("dispatched", "completed", "failed"):
                record = state.records.get(seq)
                if record is None:
                    state.dropped_lines += 1
                else:
                    record.state = op
                    if op == "failed":
                        record.error = rec.get("error")
            elif op == "quarantined":
                record = state.records.get(seq)
                if record is None:
                    # a quarantine line carried forward by compaction:
                    # reconstruct a minimal record for the set
                    record = JournalRecord(
                        seq=seq, key=str(rec.get("key", ""))
                    )
                record.state = "quarantined"
                record.error = rec.get("error")
                record.traceback = rec.get("traceback")
                if record.seq in state.records:
                    state.records[record.seq] = record
                if record.key:
                    state.quarantined[record.key] = record
            else:
                state.dropped_lines += 1
        return state

    # -- maintenance ---------------------------------------------------------
    def compact(self, state: Optional[JournalState] = None) -> None:
        """Durably rewrite the journal keeping only the quarantine set.

        Management-path only (recovery with nothing unresolved, clean
        shutdown): must never race a concurrent appender.  Resolved
        records are dropped; quarantined keys persist so the circuit
        breaker survives restarts."""
        if state is None:
            state = self.replay()
        lines = []
        for key in sorted(state.quarantined):
            rec = state.quarantined[key]
            line = {
                "op": "quarantined",
                "seq": rec.seq,
                "key": rec.key,
                "error": rec.error or "",
            }
            if rec.traceback:
                line["traceback"] = rec.traceback
            lines.append(line)
        self._log.rewrite(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<JobJournal {str(self.path)!r}>"
