"""Record the benchmark of one checkout in a BENCH_*.json file.

Usage:
    python tools/bench_record.py OUT.json LABEL [--checkout DIR] [--seed N]
                                 [--workload NAME]

Runs ``perfbench/run.py --workload all`` (or the one named workload) of the
checkout DIR (default: this repository) twice, first with ``--trace 0`` and
then with ``--trace 1``, each at the benchmark's own run length, and adds
the result to OUT.json under LABEL:

- ``end_to_end``: one entry per call, in call order, with the seed, whether
  the checkout had uncommitted changes outside ``src``, the correctness
  verdicts of both runs and every end-to-end metric by ``workload/metric``.
  Calling the script alternately for two labels gives alternating pairs of
  runs, the i-th entry of one label against the i-th of the other.
- ``traced_counts``: per seed, the deterministic counts of the traced run
  (calls, integrand evaluations, series coefficients, point statuses).  Self
  times and the tracing overhead are left out, since they are wall times.

Each label also records the commit of its first run, the git tree of its
``src`` directory (which names the code that was measured even after the
commit is rewritten), ``nproc`` and the Python version.  The script refuses
(exit 2) a checkout with uncommitted changes under ``src``, whose code no
tree names, and a checkout whose ``src`` tree or Python version differs
from the one already recorded under LABEL; an earlier run is never
dropped.  It uses the standard library only and runs each benchmark in the
interpreter that runs it.

Exit status: 0 when every run is correct, 1 when a run reports
``correct: false``, 2 on a usage error, a refused checkout or a benchmark
that did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(checkout, *args):
    proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _bench(checkout, args, trace):
    """The final JSON line of one perfbench run."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"bench_record: {' '.join(cmd)} exited with {proc.returncode}", file=sys.stderr)
        sys.exit(2)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.workload != "all":  # a single workload names its metrics without the prefix
        result["metrics"] = {f"{args.workload}/{k}": v for k, v in result["metrics"].items()}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("label")
    parser.add_argument("--checkout", default=ROOT)
    parser.add_argument("--seed", type=int, default=55)
    parser.add_argument("--workload", default="all")
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
        parser.error(f"{checkout} has no perfbench/run.py")

    record = {"about": __doc__.split("\n\n")[0], "runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    src_tree = _git(checkout, "rev-parse", "HEAD:src")
    if src_tree is None:
        parser.error(f"{checkout} is not a git checkout with a src directory")
    if _git(checkout, "status", "--porcelain", "--", "src"):
        parser.error(f"{checkout} has uncommitted changes under src; commit them first")
    identity = {"src_tree": src_tree, "python": platform.python_version()}
    entry = record["runs"].setdefault(args.label, {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "nproc": os.cpu_count(),
        **identity,
        "end_to_end": [],
        "traced_counts": {},
    })
    for key, value in identity.items():
        if entry[key] != value:
            parser.error(f"{args.out} holds label {args.label!r} with {key} {entry[key]}, "
                         f"not {value}; record this checkout under another label")

    dirty = bool(_git(checkout, "status", "--porcelain", "--untracked-files=no"))
    plain = _bench(checkout, args, 0)
    traced = _bench(checkout, args, 1)
    entry["end_to_end"].append({
        "seed": args.seed, "workload": args.workload, "dirty": dirty,
        "correct": plain["correct"], "traced_correct": traced["correct"],
        "attempted": plain["attempted"], "failed": plain["failed"],
        "metrics": {k: v["value"] for k, v in plain["metrics"].items()},
    })
    entry["traced_counts"].setdefault(str(args.seed), {}).update({
        k: v["value"] for k, v in traced["metrics"].items() if v["unit"] == "count"})

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if plain["correct"] and traced["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
