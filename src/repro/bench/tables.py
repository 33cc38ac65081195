"""Plain-text table/series rendering for benchmark reports."""

from __future__ import annotations

import math
from typing import List, Sequence

__all__ = ["render_table", "render_series"]


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    """Fixed-width ASCII table."""
    cols = [list(map(str, col)) for col in zip(headers, *rows)]
    widths = [max(len(v) for v in col) for col in cols]
    out: List[str] = []
    if title:
        out.append(title)
    sep = "-+-".join("-" * w for w in widths)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in rows:
        out.append(
            " | ".join(str(v).ljust(w) for v, w in zip(row, widths))
        )
    return "\n".join(out)


def render_series(
    x_label: str,
    xs: Sequence,
    series: dict,
    title: str = "",
    fmt: str = "{:.4g}",
) -> str:
    """Multi-column series table: one x column plus one column per curve.

    A point a curve does not have (``None``, or NaN) renders as
    ``n/a`` rather than ``nan``.
    """

    def cell(v) -> str:
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return "n/a"
        return fmt.format(v)

    headers = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(xs):
        rows.append([str(x)] + [cell(series[name][i]) for name in series])
    return render_table(headers, rows, title=title)
