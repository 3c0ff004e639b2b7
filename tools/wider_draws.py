"""Write the ``qkit verify --format json`` reports of the wider draws to a directory.

Usage:
    python tools/wider_draws.py OUTDIR [--src DIR]

The draws are one sample per identity and seed, 4,768 points in all:

- the suite seeds, each group at the seed its suite test samples (PRELIM 42,
  CONTOUR 777, MELLIN 101, SERIES 99, FOURIER 55);
- the wider draws of the ROADMAP Baseline: MELLIN, CONTOUR, PRELIM and SERIES
  at seeds 0-39, FOURIER at 0-5 and 100-105, and PRELIM at 56, 69, 122 and 137.

Each (group, seed) is one report, OUTDIR/GROUP_SEED.json, computed with one
thread, so the output of two revisions compares with

    python tools/residual_diff.py PARENT_DIR CHANGE_DIR

``--src`` names the directory that holds the ``qkit`` package (default: this
repository's ``src``).  It uses the standard library only.

Exit status: 0 when every report was written, whatever the statuses of its
points; 2 on a usage error or a verify run that ended otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SUITE_SEEDS = {"PRELIM": 42, "CONTOUR": 777, "MELLIN": 101, "SERIES": 99, "FOURIER": 55}


def runs():
    """The (group, seed) pairs, one report each."""
    pairs = list(SUITE_SEEDS.items())
    pairs += [(group, seed) for group in ("MELLIN", "CONTOUR", "PRELIM", "SERIES")
              for seed in range(40)]
    pairs += [("FOURIER", seed) for seed in (*range(6), *range(100, 106))]
    pairs += [("PRELIM", seed) for seed in (56, 69, 122, 137)]
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(args.src, "qkit")):
        print(f"wider_draws: no qkit package in {args.src}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(args.src))
    from qkit import cli

    os.makedirs(args.outdir, exist_ok=True)
    for group, seed in runs():
        out = os.path.join(args.outdir, f"{group}_{seed}.json")
        code = cli.main(["verify", "--group", group, "--samples", "1", "--seed", str(seed),
                         "--format", "json", "--threads", "1", "--out", out])
        if code not in (0, 1):  # 1: some point did not pass, which the report records
            print(f"wider_draws: verify {group} at seed {seed} exited with {code}",
                  file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
