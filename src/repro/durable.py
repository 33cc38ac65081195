"""Crash-safe files: atomic rewrites and append-only JSON-lines logs.

Everything the serving stack persists reaches the disk through here:

* :func:`atomic_write` replaces a whole file in one rename: the data
  goes to a ``<stem>.<pid>.<n>.tmp`` file beside the target (no two
  writers share one), then ``os.replace`` swaps it in, so a reader sees
  the old file or the new one, never a half.  ``durable=True`` also
  fsyncs the file before the rename and its directory after: the
  management rewrites (journal compaction, index rebuilds, bundle
  exports) take it, the hot-path writes (result blobs, job-directory
  documents, the heartbeat) do not.
* :class:`JsonLinesLog` is the append-only file of one JSON object per
  line behind a schema header that the job journal
  (:mod:`repro.serve.journal`) and the store's columnar index
  (:mod:`repro.store.index`) are kept in.  An append is one ``write(2)``
  on an ``O_APPEND`` descriptor, so concurrent appenders interleave
  whole lines, and a line torn by a crash mid-append is counted and
  dropped on read instead of poisoning the load; the next append starts
  a fresh line after it.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Tuple

__all__ = ["JsonLinesLog", "LogRead", "atomic_write", "fsync_dir"]

#: process-unique temp-file counter
_tmp_counter = itertools.count()


def fsync_dir(path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    ``os.replace`` makes the rename atomic but not durable: the new
    directory entry lives in the page cache until the *directory*
    inode is flushed.  Best-effort — platforms without directory fds
    (or odd filesystems) are skipped silently.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write(path, data, durable: bool = False) -> None:
    """Replace ``path`` with ``data`` (bytes, or str as UTF-8) in one
    rename; ``durable=True`` fsyncs the file and then its directory."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_suffix(f".{os.getpid()}.{next(_tmp_counter)}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        if durable:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if durable:
        fsync_dir(path.parent)


def _encode(rec: dict) -> bytes:
    return (
        json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


@dataclass
class LogRead:
    """What one :meth:`JsonLinesLog.read` found."""

    #: well-formed records (dicts with an ``"op"``), headers left out
    records: List[dict] = field(default_factory=list)
    #: malformed or torn lines skipped
    dropped: int = 0
    #: the file opens with another schema's header
    foreign: bool = False
    #: the file's length: where the next read starts (below the offset
    #: read from when the file was rewritten in between)
    end: int = 0


class JsonLinesLog:
    """One append-only JSON-lines file whose first line names its
    schema (``{"op": "header", "schema": ...}``)."""

    def __init__(self, path, schema: str):
        self.path = Path(path)
        self.schema = schema
        self._header = _encode({"op": "header", "schema": schema})

    def append(self, rec: dict) -> Tuple[int, int]:
        """Append one record (the header first on an empty file) in a
        single ``write(2)``; returns the ``(start, end)`` offsets of the
        bytes written, wherever other appenders put the file's end.

        A log left ending in a torn line gets a newline before the
        record, so the record starts a line of its own instead of
        merging into the torn one."""
        line = _encode(rec)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            size = os.fstat(fd).st_size
            if size == 0:
                line = self._header + line
            elif os.pread(fd, 1, size - 1) != b"\n":
                line = b"\n" + line
            os.write(fd, line)
            end = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)
        return end - len(line), end

    def read(self, offset: int = 0, trim: bool = False) -> LogRead:
        """The records from byte ``offset`` on (none for a missing
        file); a foreign header counts only as the file's first line.

        ``trim=True`` also cuts a torn final line (no trailing newline)
        off the file so the next append starts a clean line: only a
        log's single owner may trim, never a reader racing writers."""
        try:
            with open(self.path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                if size < offset:
                    return LogRead(end=size)
                fh.seek(offset)
                raw = fh.read()
        except OSError:
            return LogRead(end=offset)
        if trim and raw and not raw.endswith(b"\n"):
            os.truncate(self.path, offset + raw.rfind(b"\n") + 1)
        got = LogRead(end=offset + len(raw))
        keep, loads = got.records.append, json.loads
        for i, line in enumerate(raw.split(b"\n")):
            if not line.strip():
                continue
            try:
                rec = loads(line)
                op = rec["op"]
            except (ValueError, KeyError, TypeError):
                got.dropped += 1
                continue
            if op != "header":
                keep(rec)
            elif offset == 0 and i == 0 and rec.get("schema") != self.schema:
                got.foreign = True
        return got

    def rewrite(self, records: Iterable[dict]) -> int:
        """Durably replace the file with the header and ``records``;
        returns the new file's length."""
        data = self._header + b"".join(_encode(rec) for rec in records)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(self.path, data, durable=True)
        return len(data)
