"""The four benchmark workloads, built from a seed.

A workload is a list of points.  The float workloads evaluate the points
that qkit's own test suite certifies: each registry group at the seed its
suite test uses, the asymptotic families at their canonical parameters and
the orthogonality entries at criterion 8's q and alpha.  The benchmark must
run only points that pass, and draws from other seeds hit known defects:
gaussian_line's window probe overflows on fourier_h_kernel_int_2 for about
6% of draws, and qsquare_contour_rep, contour_qinvhermite and Phi11Second
away from its canonical q miss their tolerance on a few percent.  So on the
float workloads the seed sets only the order in which the points run; on
exact_oracle it picks the two rational bases.

A point is one unit of user-visible work (one identity point, one inner
product, one (id, base) oracle check, one asymptotic rate fit) whose
outcome the benchmark checks.  Every call into qkit goes through a module
attribute (``identities.evaluate_identity``, ``core.qpoch_inf``, ...), never
through a name bound here, so that the tracer sees it.

qkit is imported only inside ``setup`` so that the set-up probe can time
the import itself.
"""

from __future__ import annotations

import cmath
import importlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

# Binary64 machine epsilon: the floor for a residual when computing a margin.
_EPS = 2.0 ** -52

EXACT_ORDER = 20

# Thresholds of acceptance criterion 8 (tests/test_acceptance.py), kept here
# so that the benchmark's check does not move if the test is edited.
HERMITE_DIAG_REL = 1e-8
HERMITE_OFFDIAG_ABS = 1e-9
SW_REL = 1e-6
LAGUERRE_REL = 1e-5
ORTHO_TOL = 1e-12


@dataclass
class Outcome:
    """Checked result of one point.

    status is pass | fail | skipped_budget | skipped_domain | error.
    margin is log10(tolerance / error) for a float check, None otherwise.
    record is the deterministic, JSON-able result used for the digest.
    report is the qkit ResidualReport of a registry point, if any.
    """

    status: str
    margin: float | None
    record: object
    report: object = None


@dataclass(frozen=True)
class Point:
    label: str
    run: object  # () -> Outcome


def _margin(tol: float, err: float) -> float:
    return math.log10(tol / max(err, _EPS))


# --- registry points (fourier_suite, catalog_suite) ---------------------------

_STATUS = {"pass": "pass", "fail": "fail",
           "skipped(budget)": "skipped_budget", "skipped(domain)": "skipped_domain"}


# The seed that each group's suite test in tests/ samples its points with.
SUITE_SEEDS = {"PRELIM": 42, "CONTOUR": 777, "MELLIN": 101, "SERIES": 99, "FOURIER": 55}


def _shuffled(points, seed, name):
    random.Random(f"{seed}:{name}:order").shuffle(points)
    return points


def _registry_point(mods, rec):
    identities = mods.identities

    def run():
        params = identities.sample_params(rec.id, SUITE_SEEDS[rec.group], 0)
        rep = identities.evaluate_identity(rec.id, params)
        status = _STATUS.get(rep.status, "error")
        margin = _margin(rec.tol(), rep.rel_err) if status == "pass" else None
        return Outcome(status, margin, identities.report_to_dict(rep), rep)

    return Point(rec.id, run)


def _registry_points(mods, groups):
    return [_registry_point(mods, rec)
            for rec in mods.identities.all_identities() if rec.group in groups]


def _asymp_point(mods, fid):
    asymptotics = mods.asymptotics
    params = dict(asymptotics.FAMILIES[fid].canonical)

    def run():
        rep = asymptotics.asymp_rate(fid, params)
        return Outcome("pass" if rep.passed else "fail", None,
                       {"family": fid, "params": params, "rate": rep.fitted_rate,
                        "status": rep.status})

    return Point(f"asymp:{fid}", run)


# --- orthogonality ---------------------------------------------------------------

def _poch(a, q, n=None):
    """Real (a;q)_n, or (a;q)_inf when n is None, as a plain product.

    The closed forms use this rather than qkit, so that a defect in qkit's
    products cannot cancel out of the check.
    """
    out, term, k = 1.0, a, 0
    while (k < n) if n is not None else abs(term) > 1e-18:
        out *= 1.0 - term
        term *= q
        k += 1
    return out


def _orthogonality_points(mods, seed):
    core, polys, quad = mods.core, mods.polys, mods.quad
    qv, al = 0.5, 0.5
    q = core.QParam(qv)
    tr = core.Truncation(tol=ORTHO_TOL)

    def point(label, integral, expected, tol, diag):
        # a diagonal entry is compared relatively; an off-diagonal entry must
        # vanish relative to the scale the criterion names
        def run():
            val = integral()
            err = abs(val - expected) / abs(expected) if diag else abs(val) / abs(expected)
            return Outcome("pass" if err <= tol else "fail", _margin(tol, err),
                           {"point": label, "q": qv, "alpha": al, "value": val,
                            "expected": expected})

        return Point(label, run)

    # q-Hermite Gram matrix on [0, pi], m <= n <= 6
    def hermite(m, n):
        def f(th):
            e2 = cmath.exp(2j * th)
            w = (core.qpoch_inf(e2, q, tr) * core.qpoch_inf(e2.conjugate(), q, tr)).real
            x = math.cos(th)
            return polys.qhermite(m, x, q).real * polys.qhermite(n, x, q).real * w

        def integral():
            return quad.finite_interval(f, 0.0, math.pi, tr).real / (2 * math.pi)

        if m == n:
            return point(f"hermite({m},{n})", integral, _poch(qv, qv, n) / _poch(qv, qv),
                         HERMITE_DIAG_REL, True)
        return point(f"hermite({m},{n})", integral, 1.0, HERMITE_OFFDIAG_ABS, False)

    # Stieltjes-Wigert norms n <= 5 and the (0, 1) entry against the n = 1 norm
    ln_q = math.log(qv)
    c2 = -1.0 / (2.0 * ln_q)

    def sw(m, n):
        def f(x):
            u = math.log(x) - 0.5 * ln_q
            return ((polys.stieltjes_wigert(m, x, q) * polys.stieltjes_wigert(n, x, q)).real
                    * math.exp(-c2 * u * u))

        norm = math.sqrt(math.pi) * qv ** (-n) / (math.sqrt(c2) * _poch(qv, qv, n))
        return point(f"sw({m},{n})", lambda: quad.halfline_log(f, tr).real, norm, SW_REL, m == n)

    # q-Laguerre norms n <= 4 and the (0, 2) entry against the n = 2 norm
    pref = -math.pi / math.sin(math.pi * al) * _poch(qv ** (-al), qv) / _poch(qv, qv)

    def lag(m, n):
        def f(x):
            return ((polys.qlaguerre(m, al, x, q) * polys.qlaguerre(n, al, x, q)).real
                    * x ** al / core.qpoch_inf(-x, q, tr).real)

        norm = pref * _poch(qv ** (al + 1), qv, n) / (qv ** n * _poch(qv, qv, n))
        return point(f"laguerre({m},{n})", lambda: quad.halfline_log(f, tr).real, norm,
                     LAGUERRE_REL, m == n)

    return _shuffled([hermite(m, n) for m in range(7) for n in range(m, 7)]
                     + [sw(n, n) for n in range(6)] + [sw(0, 1)]
                     + [lag(n, n) for n in range(5)] + [lag(0, 2)], seed, "orthogonality")


# --- exact oracle ---------------------------------------------------------------

def exact_bases(seed):
    """Two distinct rational bases in (0, 1) with denominators 2..7."""
    pool = sorted({Fraction(p, d) for d in range(2, 8) for p in range(1, d)})
    return random.Random(f"{seed}:exact").sample(pool, 2)


def _exact_points(mods, seed):
    exactq = mods.exactq

    def oracle(ident, base):
        def run():
            res = exactq.verify_exact(ident, EXACT_ORDER, base)
            return Outcome("pass" if res["equal"] else "fail", None,
                           {"id": ident, "base": str(base), **res})

        return Point(f"{ident}@{base}", run)

    return [oracle(ident, base) for base in exact_bases(seed)
            for ident in exactq.exact_identity_ids()]


# --- the workload table ---------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple
    build: object  # (modules namespace, seed) -> list[Point]

    def setup(self):
        """Import what the workload calls; load the identity registry if it uses it."""
        mods = SimpleNamespace(**{n: importlib.import_module(f"qkit.{n}") for n in self.modules})
        if "identities" in self.modules:
            mods.identities.all_identities()
        return mods


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fourier_suite", ("identities",),
                 lambda mods, seed: _shuffled(_registry_points(mods, ("FOURIER",)),
                                              seed, "fourier_suite")),
        Workload("orthogonality", ("core", "polys", "quad"), _orthogonality_points),
        Workload("exact_oracle", ("exactq",), _exact_points),
        Workload("catalog_suite", ("identities", "asymptotics"),
                 lambda mods, seed: _shuffled(
                     _registry_points(mods, ("PRELIM", "CONTOUR", "MELLIN", "SERIES"))
                     + [_asymp_point(mods, fid) for fid in sorted(mods.asymptotics.FAMILIES)],
                     seed, "catalog_suite")),
    )
}
