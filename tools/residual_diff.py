"""Compare the residuals of two ``qkit verify --format json`` reports.

Usage:
    python tools/residual_diff.py PARENT.json CHANGE.json
    python tools/residual_diff.py PARENT_DIR CHANGE_DIR

Given two directories, the script compares each pair of same-named ``*.json``
reports in them, and a report present in one directory only counts as a
difference.  Points are matched by identity id and their order within that
id, so both reports should come from the same ``--group/--samples/--seed``
arguments.
For each group the script prints how many points are identical in both
reports (the same rel_err, lhs and rhs), the status changes, the largest
and the median |log10(new rel_err / old rel_err)|, and every point whose
residual grew more than tenfold.  Residuals below FLOOR = 1e-15, the
rounding level of a double, count as FLOOR, so a move from 0 to 1e-15
between two results exact to rounding does not show as a huge ratio.  A
point without a finite residual in either report (one that raised) enters
only the status comparison.  In directory mode the output ends with the
sums over all reports: one ``TOTAL <group>:`` line per group, then one
``TOTAL:`` line, each giving the points, the identical points, the status
changes and the points that grew more than tenfold.

Exit status: 0 when every point keeps its status, 1 when any status changed
or a point or report is missing from one side, 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from collections import Counter

FLOOR = 1e-15
GROWTH = 10.0


def _points(path):
    """{(group, id, k): report} with k counting repeats of an id in file order."""
    with open(path, encoding="utf-8") as fh:
        reports = json.load(fh)
    seen = {}
    out = {}
    for rep in reports:
        k = seen.get(rep["id"], 0)
        seen[rep["id"]] = k + 1
        out[(rep["group"], rep["id"], k)] = rep
    return out


def _values(rep):
    """rel_err, lhs and rhs as text, so NaN (a skipped point) equals NaN."""
    return json.dumps([rep["rel_err"], rep["lhs"], rep["rhs"]])


def _log_ratio(old, new):
    return math.log10(max(abs(new), FLOOR) / max(abs(old), FLOOR))


def _counts(label, c):
    return (f"{label}: {c['points']} points, {c['identical']} identical, "
            f"{c['status']} status changes, {c['grew']} grew >{GROWTH:g}x")


def compare(parent, change):
    """Print the per-group comparison; return {group: Counter of points, identical, status, grew}."""
    counts = {}
    groups = sorted({key[0] for key in parent} | {key[0] for key in change})
    for group in groups:
        keys = sorted({k for k in parent if k[0] == group} | {k for k in change if k[0] == group})
        logs = []
        identical = 0
        status_lines = []
        growth_lines = []
        for key in keys:
            old, new = parent.get(key), change.get(key)
            label = f"{key[1]}#{key[2]}"
            if old is None or new is None:
                before = "missing" if old is None else old["status"]
                after = "missing" if new is None else new["status"]
                status_lines.append(f"  status {label}: {before} -> {after}")
                continue
            if old["status"] != new["status"]:
                status_lines.append(f"  status {label}: {old['status']} -> {new['status']}")
            identical += _values(old) == _values(new)
            if not (math.isfinite(old["rel_err"]) and math.isfinite(new["rel_err"])):
                continue  # a point that raised has no residual; its status is compared above
            d = _log_ratio(old["rel_err"], new["rel_err"])
            logs.append(abs(d))
            if d > math.log10(GROWTH):
                growth_lines.append(f"  grew {label}: {old['rel_err']:.3g} -> {new['rel_err']:.3g}")
        counts[group] = Counter(points=len(keys), identical=identical,
                                status=len(status_lines), grew=len(growth_lines))
        worst = max(logs) if logs else 0.0
        median = statistics.median(logs) if logs else 0.0
        print(f"{group}: {len(keys)} points, {identical} identical, {len(status_lines)} status changes, "
              f"|log10(new/old)| max {worst:.2f} median {median:.2f}, "
              f"{len(growth_lines)} grew >{GROWTH:g}x")
        for line in status_lines + growth_lines:
            print(line)
    return counts


def compare_dirs(parent_dir, change_dir):
    """Compare the same-named reports of two directories; return the number of differences."""
    parent_names = {n for n in os.listdir(parent_dir) if n.endswith(".json")}
    change_names = {n for n in os.listdir(change_dir) if n.endswith(".json")}
    changed = 0
    totals = {}
    for name in sorted(parent_names | change_names):
        if name not in change_names or name not in parent_names:
            print(f"{name}: only in {parent_dir if name in parent_names else change_dir}")
            changed += 1
            continue
        print(f"{name}:")
        counts = compare(_points(os.path.join(parent_dir, name)),
                         _points(os.path.join(change_dir, name)))
        for group, c in counts.items():
            totals[group] = totals.get(group, Counter()) + c
    for group in sorted(totals):
        print(_counts(f"TOTAL {group}", totals[group]))
    total = sum(totals.values(), Counter())
    print(_counts("TOTAL", total))
    return changed + total["status"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or os.path.isdir(argv[0]) != os.path.isdir(argv[1]):
        print("usage: python tools/residual_diff.py PARENT.json CHANGE.json\n"
              "       python tools/residual_diff.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    if os.path.isdir(argv[0]):
        changed = compare_dirs(*argv)
    else:
        changed = sum(c["status"] for c in compare(_points(argv[0]), _points(argv[1])).values())
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
