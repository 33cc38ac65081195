#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, metric by metric.

Usage, from the root of the repository::

    python3 benchmarks/e2e/compare.py BASE.json... --vs NEW.json...

Each file is the ``--json`` output of ``run.py`` (one result, or
``{"runs": [...]}``); a directory stands for every ``*.json`` in it.
Run the two sides alternately, base first on even pairs and new first
on odd ones, so that drift of the machine hits both alike.

For every end-to-end metric of ``BENCHMARK.json`` on every workload
the table gives each side's median and quartiles, the share of pairs
the new side wins (the i-th run of one side against the i-th of the
other, in the order they finished; ties count for neither), and one
verdict:

``unresolved``
    the spread of either side (quartile distance over median) is wider
    than the metric's bound, and not every new run beats every base run;
``regression``
    the new median is worse than the base median by more than the bound;
``gain``
    the new side wins at least nine pairs in ten and the medians differ
    by more than the base side's quartile distance;
``same``
    none of the above.

``fail_ratio``, failed over attempted operations of each run, gets a row
per workload too.  Its bound is 0, absolute: any rise of its median is a
regression.  It is not in ``BENCHMARK.json`` because it reads 0 on a
healthy run, and every metric there must be measurable as non-zero.

The command exits 1 when any verdict is ``regression`` or
``unresolved``, and 2 when the two sides cannot be compared: nothing
measured on both, or runs of different lengths.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(paths) -> list:
    """Every benchmark result in the given files and directories."""
    runs = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            doc = json.loads(f.read_text())
            runs.extend(doc["runs"] if "runs" in doc else [doc])
    return [r for r in runs if not r.get("trace")]


def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, bound: float, lower_is_better: bool) -> dict:
    """Apply the comparison rule to one metric on one workload."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (nm - bm) / bm if bm else 0.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    spread = max(
        (b3 - b1) / bm if bm else 0.0,
        (n3 - n1) / nm if nm else 0.0,
    )
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not all_better:
        call = "unresolved"
    elif worse > bound:
        call = "regression"
    elif win_share >= 0.9 and abs(nm - bm) > (b3 - b1):
        call = "gain"
    else:
        call = "same"
    return {
        "base": (bm, b1, b3, len(base)),
        "new": (nm, n1, n3, len(new)),
        "change": worse,
        "wins": win_share,
        "spread": spread,
        "verdict": call,
    }


def fail_verdict(base, new) -> dict:
    """The fail-ratio rule: no rise of the median at all."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    pairs = list(zip(base, new))
    return {
        "base": (bm, b1, b3, len(base)),
        "new": (nm, n1, n3, len(new)),
        "change": nm - bm,
        "wins": sum(1 for b, n in pairs if n < b) / len(pairs),
        "spread": 0.0,
        "verdict": "regression" if nm > bm else "same",
    }


def compare(base_runs, new_runs, spec) -> list:
    """One row per (workload, end-to-end metric) both sides measured,
    and one for the fail ratio."""
    def by_workload(runs):
        out = {}
        for r in sorted(runs, key=lambda r: r.get("finished_at", 0.0)):
            out.setdefault(r["workload"], []).append(r)
        return out

    base, new = by_workload(base_runs), by_workload(new_runs)
    rows = []
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]
                 if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[workload]
                 if name in r["metrics"]]
            if not b or not n:
                continue
            row = verdict(b, n, m["bound"], m["better"] == "lower")
            row.update(workload=workload, metric=name, unit=m["unit"],
                       bound=m["bound"])
            rows.append(row)
        row = fail_verdict(
            *([r["failed"] / r["attempted"] for r in side[workload]]
              for side in (base, new))
        )
        row.update(workload=workload, metric="fail_ratio", unit="fraction",
                   bound=0.0)
        rows.append(row)
    return rows


def render(rows) -> str:
    head = (f"{'workload':<15} {'metric':<15} {'base median [q1, q3] n':<34} "
            f"{'new median [q1, q3] n':<34} {'worse':>7} {'wins':>5} "
            f"{'bound':>5}  verdict")
    lines = [head, "-" * len(head)]
    for r in rows:
        def side(s):
            return f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}] {s[3]}"
        lines.append(
            f"{r['workload']:<15} {r['metric']:<15} {side(r['base']):<34} "
            f"{side(r['new']):<34} {100 * r['change']:>6.1f}% "
            f"{r['wins']:>5.2f} {r['bound']:>5.2f}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="+", help="base run files or dirs")
    parser.add_argument("--vs", nargs="+", required=True, metavar="NEW",
                        help="new run files or dirs")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    base, new = load_runs(args.base), load_runs(args.vs)
    lengths = {r["seconds"] for r in base + new}
    if len(lengths) > 1:
        print(f"error: runs of different lengths cannot be compared: "
              f"{sorted(lengths)} seconds", file=sys.stderr)
        return 2
    rows = compare(base, new, spec)
    if not rows:
        print("error: no workload measured on both sides", file=sys.stderr)
        return 2
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("regression", "unresolved")]
    print(f"\n{len(rows)} comparisons, {len(bad)} regression or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
