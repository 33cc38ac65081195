"""Unified report base: one schema-tagged document family.

Every structured outcome in the stack — a single run
(:class:`~repro.engine.RunReport`), a sweep
(:class:`~repro.engine.SweepReport`), a partition tune
(:class:`~repro.autotune.TuneReport`) — is a :class:`Report`: it
serializes to a JSON document whose ``schema`` tag names its type, and
renders its own human-readable digest.  This module is the one place
that family is registered, so any consumer can round-trip a report
without knowing its type up front::

    from repro.report import load_report

    report = load_report("something.json")   # Run/Sweep/TuneReport
    print(report.render())

``repro report FILE`` is exactly that: ``load_report(FILE).render()``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Type

__all__ = [
    "Report",
    "report_schemas",
    "report_type",
    "report_from_dict",
    "report_from_json",
    "load_report",
]


class Report:
    """Base of every report type.

    A report is a schema-tagged, JSON-round-trippable document that
    renders itself.  A subclass sets ``schema`` and writes its own
    :meth:`to_dict`/:meth:`from_dict` (explicit, because a store hit
    rebuilds a run report on the hot path) and :meth:`render`; the
    JSON and file round trip below is defined once, here.
    """

    schema: str

    def to_dict(self) -> dict:
        """JSON-safe dict form (inverse of :meth:`from_dict`)."""
        raise NotImplementedError

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        """Rebuild a report from :meth:`to_dict` output."""
        raise NotImplementedError

    def render(self) -> str:
        """Human-readable digest (what ``repro report FILE`` prints)."""
        raise NotImplementedError

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize :meth:`to_dict` with stable key order."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        """Rebuild a report from :meth:`to_json` text."""
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Write the report as indented JSON to ``path``."""
        Path(path).write_text(self.to_json(indent=2))

    @classmethod
    def load(cls, path) -> "Report":
        """Read a report written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())


def report_schemas() -> Dict[str, Type[Report]]:
    """The registry: schema tag -> report class (imported lazily so
    this module stays import-cycle-free)."""
    from .autotune import TUNE_SCHEMA, TuneReport
    from .engine import (
        REPORT_SCHEMA,
        SWEEP_SCHEMA,
        RunReport,
        SweepReport,
    )

    return {
        REPORT_SCHEMA: RunReport,
        SWEEP_SCHEMA: SweepReport,
        TUNE_SCHEMA: TuneReport,
    }


def report_type(schema: str) -> Type[Report]:
    """The report class registered under a schema tag."""
    registry = report_schemas()
    if schema not in registry:
        raise ValueError(
            f"unknown report schema {schema!r} "
            f"(known: {sorted(registry)})"
        )
    return registry[schema]


def report_from_dict(doc: dict) -> Report:
    """Rebuild any registered report from its dict form, dispatching
    on the ``schema`` tag."""
    if not isinstance(doc, dict):
        raise ValueError("a report document must be a JSON object")
    schema = doc.get("schema")
    if schema is None:
        raise ValueError(
            "document carries no 'schema' tag — not a repro report"
        )
    return report_type(schema).from_dict(doc)


def report_from_json(text: str) -> Report:
    """Rebuild any registered report from JSON text."""
    return report_from_dict(json.loads(text))


def load_report(path) -> Report:
    """Load any registered report type from a JSON file."""
    return report_from_json(Path(path).read_text())
