"""Print a digest of both sides of every exact-oracle identity.

Usage:
    python tools/exact_sides.py [--order N] [--src DIR] [--ids ID,ID...] [BASE ...]

For each identity id and each rational BASE (default: the 17 rationals p/d
in (0, 1) with 2 <= d <= 7, the pool the benchmark draws its exact bases
from) the script builds the two sides the oracle compares and prints

    <id> <base> <sha256 of the lhs and rhs coefficients>

one line per pair, sorted, so the output of two revisions compares with
``diff``.  It is the exact-oracle counterpart of ``residual_diff.py``: a
refactor that keeps every digest builds the same series on both sides.
``--src`` names the directory that holds the ``qkit`` package (default:
this repository's ``src``).

Exit status: 0 on success, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import sys
from fractions import Fraction

POOL = sorted({Fraction(p, d) for d in range(2, 8) for p in range(1, d)})


def sides(exactq, ident, order, base):
    """(lhs coefficients, rhs coefficients) of one handler."""
    handler, _note = exactq._EXACT_HANDLERS[ident]
    lhs, rhs = handler(order, base)
    return lhs.coeffs, rhs.coeffs


def digest(lhs, rhs):
    text = "lhs " + " ".join(map(str, lhs)) + "\nrhs " + " ".join(map(str, rhs))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--order", type=int, default=20)
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"))
    parser.add_argument("--ids", default="", help="comma-separated ids (default: all)")
    parser.add_argument("bases", nargs="*", type=Fraction)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    exactq = importlib.import_module("qkit.exactq")
    ids = args.ids.split(",") if args.ids else sorted(exactq._EXACT_HANDLERS)
    unknown = [i for i in ids if i not in exactq._EXACT_HANDLERS]
    if unknown:
        parser.error(f"unknown ids: {', '.join(unknown)}")
    for ident in ids:
        for base in sorted(args.bases or POOL):
            print(ident, base, digest(*sides(exactq, ident, args.order, base)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
