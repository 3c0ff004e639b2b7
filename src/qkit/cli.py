"""Command-line front end: evaluate functions, run suites, rate checks, oracle.

Exit codes: 0 success/all-pass, 1 verification failure, 2 usage error,
3 numeric failure.  Reports go to stdout (or --out); diagnostics and
timing summaries go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .core import QParam, Truncation
from .errors import QKitError
from . import asymptotics, exactq, identities
from .polys import confluent_poly, qhermite, qhermite_inv, qlaguerre, stieltjes_wigert
from .series import (
    cal_e,
    jackson_bessel,
    m_weighted,
    modified_bessel_i,
    phi,
    psi_bilateral,
    q_exp_big,
    q_exp_small,
    ramanujan_a,
)
from .core import partial_theta, qgamma, qpoch_finite, qpoch_inf, theta2, theta3, theta4


class UsageError(Exception):
    pass


def _parse_complex(text: str) -> complex:
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(float(text), 0.0)


def _parse_complex_list(text: str):
    return [_parse_complex(part) for part in text.split(";") if part != ""]


def _fmt_value(v: complex) -> str:
    if v.imag == 0.0:
        return f"{v.real:.15g}"
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real:.15g}{sign}{abs(v.imag):.15g}i"


def _get(args, name, kind=float, required=True, default=None):
    val = getattr(args, name, None)
    if val is None:
        if required and default is None:
            raise UsageError(f"function requires --{name}")
        return default
    if kind is complex:
        return _parse_complex(val)
    if kind is int:
        return int(val)
    return kind(val)


def _cmd_eval(args) -> int:
    tol = args.tol if args.tol else float(os.environ.get("QKIT_TOL", 1e-10))
    tr = Truncation(tol=max(1e-14, tol * 0.01), max_terms=args.max_terms)
    q = QParam(args.q)
    fn = args.function
    if fn == "qpoch":
        a = _get(args, "z", complex)
        n = getattr(args, "n", None)
        val = qpoch_inf(a, q, tr) if n is None else qpoch_finite(a, q, int(n))
    elif fn == "qgamma":
        val = qgamma(_get(args, "x", complex), q, tr)
    elif fn in ("theta2", "theta3", "theta4"):
        fmap = {"theta2": theta2, "theta3": theta3, "theta4": theta4}
        arg = _get(args, "z", complex) if fn == "theta4" else _get(args, "x", complex)
        val = fmap[fn](arg, q, tr)
    elif fn == "partial_theta":
        val = partial_theta(_get(args, "z", complex), q, tr)
    elif fn == "eq":
        val = q_exp_small(_get(args, "z", complex), q, tr)
    elif fn == "Eq":
        val = q_exp_big(_get(args, "z", complex), q, tr)
    elif fn == "Aq":
        val = ramanujan_a(_get(args, "z", complex), q, tr)
    elif fn == "calE":
        val = cal_e(_get(args, "x", complex), _get(args, "t", complex), q, tr)
    elif fn == "phi":
        upper = _parse_complex_list(args.upper or "")
        lower = _parse_complex_list(args.lower or "")
        val = phi(upper, lower, q, _get(args, "z", complex), tr)
    elif fn == "psi":
        upper = _parse_complex_list(args.upper or "")
        lower = _parse_complex_list(args.lower or "")
        val = psi_bilateral(upper, lower, q, _get(args, "z", complex), tr)
    elif fn == "m":
        upper = _parse_complex_list(args.upper or "")
        lower = _parse_complex_list(args.lower or "")
        val = m_weighted(upper, lower, q, _get(args, "ell"), _get(args, "z", complex), tr)
    elif fn in ("bessel1", "bessel2", "bessel3"):
        val = jackson_bessel(int(fn[-1]), _get(args, "nu", complex),
                             _get(args, "z", complex), q, tr)
    elif fn in ("I1", "I2"):
        val = modified_bessel_i(int(fn[-1]), _get(args, "nu", complex),
                                _get(args, "z", complex), q, tr)
    elif fn == "H":
        val = qhermite(_get(args, "n", int), _get(args, "x", complex), q)
    elif fn == "h":
        val = qhermite_inv(_get(args, "n", int), _get(args, "x", complex), q)
    elif fn == "L":
        val = qlaguerre(_get(args, "n", int), _get(args, "alpha", complex),
                        _get(args, "x", complex), q)
    elif fn == "S":
        val = stieltjes_wigert(_get(args, "n", int), _get(args, "x", complex), q)
    elif fn == "p":
        upper = _parse_complex_list(args.upper or "")
        lower = _parse_complex_list(args.lower or "")
        val = confluent_poly(_get(args, "n", int), upper, lower,
                             _get(args, "x", complex), q)
    else:
        raise UsageError(f"unknown function {fn!r}")
    print(_fmt_value(complex(val)))
    return 0


def _cmd_verify(args) -> int:
    tol = args.tol if args.tol else float(os.environ.get("QKIT_TOL", 0.0))
    groups = [args.group] if args.group else list(identities.GROUPS)
    reports = []
    for group in groups:
        reports.extend(identities.run_suite(group, args.samples, args.seed,
                                            tol_override=tol, threads=args.threads))
    n_pass = sum(r.passed for r in reports)
    n_fail = sum(r.status in ("fail", "error") for r in reports)
    n_skip = len(reports) - n_pass - n_fail
    wall = sum(r.wall_ms for r in reports)

    if args.format == "json":
        text = identities.reports_to_json(reports)
    elif args.format == "csv":
        text = identities.reports_to_csv(reports)
    else:
        lines = []
        for r in reports:
            mark = "ok " if r.passed else ("FAIL" if r.status in ("fail", "error") else "skip")
            why = f" ({r.reason})" if r.reason else ""
            lines.append(f"[{mark}] {r.id:34s} rel_err={r.rel_err:.3e} {r.status}{why}")
        lines.append(f"# {n_pass} pass, {n_fail} fail, {n_skip} skipped")
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    print(f"verify: {n_pass} pass, {n_fail} fail, {n_skip} skipped, {wall:.0f} ms total",
          file=sys.stderr)
    return 0 if n_pass == len(reports) else 1


def _cmd_asymp(args) -> int:
    fam = asymptotics.FAMILIES.get(args.family)
    if fam is None:
        raise UsageError(f"unknown family {args.family!r}; choices: "
                         + ", ".join(sorted(asymptotics.FAMILIES)))
    params = dict(fam.canonical)
    for name in fam.canonical:
        val = getattr(args, name, None)
        if val is not None:
            params[name] = val
    n_range = (args.nmin if args.nmin else fam.n_range[0],
               args.nmax if args.nmax else fam.n_range[1])
    rep = asymptotics.asymp_rate(args.family, params, n_range)
    print(f"family={rep.family_id} fitted_rate={rep.fitted_rate:.6g} "
          f"band=[{rep.band[0]:.6g}, {rep.band[1]:.6g}] status={rep.status}")
    print("errors:", " ".join(f"{e:.3e}" for e in rep.errors))
    return 0 if rep.passed else 1


def _cmd_oracle(args) -> int:
    try:
        qrat = Fraction(args.q)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {args.q!r}: {exc}") from None
    if not 0 < qrat < 1:
        raise UsageError(f"--q must be a rational strictly inside (0,1), not {args.q}")
    if args.order < 1:
        raise UsageError(f"--order must be >= 1, not {args.order}")
    from .errors import UnsupportedIdentityError

    try:
        result = exactq.verify_exact(args.identity, args.order, qrat)
    except UnsupportedIdentityError as exc:
        raise UsageError(str(exc)) from None
    if result["equal"]:
        print(f"equal to order {args.order}")
        return 0
    print(f"MISMATCH at coefficient {result['first_mismatch']}")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qkit",
                                     description="q-series toolkit: evaluate, verify, rate-check")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a named function")
    p_eval.add_argument("function")
    p_eval.add_argument("--q", type=float, required=True)
    for flag in ("--z", "--x", "--t", "--nu", "--alpha", "--upper", "--lower"):
        p_eval.add_argument(flag, type=str)
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--ell", type=float)
    p_eval.add_argument("--tol", type=float, default=0.0)
    p_eval.add_argument("--max-terms", type=int, default=100000, dest="max_terms")
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run an identity verification suite")
    p_verify.add_argument("--group", choices=identities.GROUPS)
    p_verify.add_argument("--samples", type=int, default=3)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=0.0)
    p_verify.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    p_verify.add_argument("--out")
    p_verify.add_argument("--threads", type=int, default=max(1, os.cpu_count() or 1))
    p_verify.set_defaults(func=_cmd_verify)

    p_asymp = sub.add_parser("asymp", help="fit an asymptotic decay rate")
    p_asymp.add_argument("--family", required=True)
    p_asymp.add_argument("--nmin", type=int)
    p_asymp.add_argument("--nmax", type=int)
    for flag in ("--q", "--z", "--x", "--xi", "--w", "--nu", "--alpha", "--a", "--b"):
        p_asymp.add_argument(flag, type=float)
    p_asymp.set_defaults(func=_cmd_asymp)

    p_oracle = sub.add_parser("oracle", help="exact rational-coefficient verification")
    p_oracle.add_argument("--identity", required=True)
    p_oracle.add_argument("--order", type=int, default=20)
    p_oracle.add_argument("--q", required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except QKitError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
