"""Shared shorthand and samplers for the identity registry."""

from __future__ import annotations

import cmath
import math

from ..core import _certified_sum, geometric_tail, qpoch_finite, qpoch_inf, qpoch_multi
from ..identities import IdentityRecord, register

TWO_PI = 2.0 * math.pi


def qp(a, q, tr):
    return qpoch_inf(a, q, tr)


def qpn(a, q, n):
    return qpoch_finite(a, q, n)


def qpm(avals, q, tr):
    return qpoch_multi(avals, q, None, tr)


def qfac(q, n):
    return qpoch_finite(q.q, q, n)


def exp_i(x):
    return cmath.exp(1j * x)


def exp_bound(x):
    """exp(x) for a majorant: inf past the double range, never an OverflowError."""
    return math.exp(x) if x < 709.0 else math.inf


def majorized_sum(values, major, ratio, tr, context):
    """Sum the terms t_n of an iterable, given |t_j| <= m_j with m_n = major(n).

    ratio(n) bounds m_(j+1)/m_j for every j >= n, so the tail after t_n is at
    most geometric_tail(major(n), ratio(n)).  Neither may read a term.
    """
    terms = ((t, geometric_tail(major(n), ratio(n))) for n, t in enumerate(values))
    return _certified_sum(terms, tr, context)


def runif(rng, a, b):
    return a + (b - a) * rng.random()


def rint(rng, a, b):
    return rng.randint(a, b)


def cring(rng, rmin, rmax):
    """Complex number with modulus in [rmin, rmax] and random phase."""
    r = runif(rng, rmin, rmax)
    return r * cmath.exp(2j * math.pi * rng.random())


def qdraw(rng, lo=0.2, hi=0.8):
    return round(runif(rng, lo, hi), 6)


def resample(rng, draw, ok, tries=200):
    """Draw until a predicate holds (domain-safe samplers only emit valid points)."""
    for _ in range(tries):
        params = draw(rng)
        if ok(params):
            return params
    raise RuntimeError("sampler could not satisfy its constraints")


def ident(id, group, anchor, lhs, rhs, sampler, default_tol=0.0, corrected=False):
    register(IdentityRecord(id, group, anchor, lhs, rhs, sampler, default_tol, corrected))
