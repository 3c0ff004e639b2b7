"""The exact oracle's term walker against the term-by-term construction it replaced."""

import math
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import assume, given, settings, strategies as st

from qkit import DomainError
from qkit.exactq import (FPS, _shifted, _walk, airy_series, exact_identity_ids, phi11_series,
                         qpoch_series, verify_exact)


def _recip(x):
    return x.reciprocal() if isinstance(x, FPS) else 1 / x


def _ref_walk(alphas, betas, q, e, z, order, inner=None, n=None):
    """The walk summed term by term: each term's Pochhammer symbols built afresh.

    Term k is t^p(k) times its coefficient, p(k) = zj k + e qj binom(k,2), with
    every (a;q)_k a ``qpoch_series`` product and every lower symbol inverted by
    ``FPS.reciprocal``, as the oracle built its series before the walker.
    """
    (zc, zj), (qc, qj) = z, q
    out = [Fraction(0)] * (order + 1)
    if n is None and not (zj or e * qj):
        raise DomainError("no power gain")
    for k in count() if n is None else range(n + 1):
        p = zj * k + e * qj * (k * (k - 1) // 2)
        if p < 0:
            raise DomainError("negative power")
        if p > order:
            break
        m = order - p
        term = (-zc) ** k * Fraction(qc) ** (e * (k * (k - 1) // 2))
        den = qpoch_series(q, q, k, m)
        for a in alphas:
            term = term * qpoch_series(a, q, k, m)
        for b in betas:
            den = den * qpoch_series(b, q, k, m)
        if n is not None:
            den = den * qpoch_series(q, q, n - k, m)
        term = term * _recip(den)
        if inner is not None:
            term = term * inner(k, m)
        coeffs = term.coeffs if isinstance(term, FPS) else [term] + [0] * m
        for i, c in enumerate(coeffs):
            out[p + i] += c
    return out


def _canonical(s):
    """The series as reduced Fractions, after checking its integer representation."""
    assert s.den > 0
    assert math.gcd(s.den, *s.num) == 1
    return s.coeffs


def _outcome(build):
    try:
        return build()
    except DomainError:
        return "DomainError"


_small = st.fractions(min_value=-3, max_value=3, max_denominator=7)
# past 1 a lower factor 1 - b q^k with no t can be negative; it vanishes at b = q^(-k),
# where the reference divides by zero, so the draws stay off that lattice
_lower_c = st.fractions(min_value=-3, max_value=4, max_denominator=7)
_bases = st.one_of(
    st.fractions(min_value=Fraction(1, 7), max_value=Fraction(6, 7), max_denominator=7)
    .map(lambda q: (q, 0)),
    st.sampled_from([(1, 1), (1, 2)]),
)


@st.composite
def _walks(draw):
    q = draw(_bases)
    alphas = draw(st.lists(st.tuples(_small, st.integers(0, 2)), max_size=2))
    if draw(st.booleans()):
        alphas.append(q)  # an upper q cancels (q;q)_k
    # q <= 6/7 and (7/6)^16 > 4 put every lattice point q^(-m) <= 4 in the set
    lattice = {Fraction(q[0]) ** -m for m in range(16)}
    betas = draw(st.lists(st.tuples(_lower_c.filter(lambda c: c not in lattice),
                                    st.integers(0, 2)), max_size=2))
    e = draw(st.integers(0, 2))
    # x q^s: at s = -1 the argument of a series in the base has a negative power, as
    # laguerre_shift_series's x q^(alpha - beta) does
    xc = draw(_small.filter(bool))
    xj, s = draw(st.integers(0, 1)), draw(st.integers(-1, 2))
    z = (xc * Fraction(q[0]) ** s, xj + s * q[1])
    order = draw(st.integers(0, 16))
    n = draw(st.one_of(st.none(), st.integers(0, 4)))
    inner = draw(st.sampled_from([
        None,
        lambda k, m: Fraction(k + 1, 3),
        lambda k, m: FPS([Fraction(k + 1, i + 2) for i in range(m + 1)]),
    ]))
    return alphas, betas, q, e, z, order, inner, n


class TestWalkAgainstTermByTerm:
    @settings(max_examples=300, deadline=None)
    @given(_walks())
    def test_matches_the_term_by_term_sum(self, walk):
        alphas, betas, q, e, z, order, inner, n = walk
        got = _outcome(lambda: _canonical(_walk(alphas, betas, q, e, z, order, inner, n)))
        assert got == _outcome(lambda: _ref_walk(alphas, betas, q, e, z, order, inner, n))

    def test_negative_power_raises(self):
        # x q^(-2) with q the variable: term 1 has power -1
        with pytest.raises(DomainError):
            _walk((), (), (1, 1), 1, (Fraction(2, 3), -1), 8)
        with pytest.raises(DomainError):
            _walk((), ((Fraction(1, 2), 1),), (1, 2), 2, (1, -2), 8, n=3)

    def test_walk_that_gains_no_power_raises(self):
        with pytest.raises(DomainError):
            _walk((), (), (Fraction(1, 2), 0), 2, (Fraction(1, 3), 0), 8)

    def test_lower_pole_raises(self):
        with pytest.raises(DomainError):
            _walk((), ((2, 0),), (Fraction(1, 2), 0), 0, (1, 1), 8)

    def test_upper_zero_terminates(self):
        # (q^-2;q)_k vanishes from k = 3 on: the walk is a polynomial of degree 2
        q = Fraction(1, 3)
        got = _walk(((q**-2, 0),), (), (q, 0), 1, (-1, 1), 6).coeffs
        assert got[3:] == [0, 0, 0, 0]
        assert got == _ref_walk(((q**-2, 0),), (), (q, 0), 1, (-1, 1), 6)


_shift_bases = st.integers(min_value=2, max_value=9).flatmap(
    lambda d: st.integers(min_value=1, max_value=d - 1).map(lambda p: Fraction(p, d)))


class TestShiftedInner:
    """Each per-degree inner series, built once and shifted, against a fresh walk."""

    @settings(max_examples=100, deadline=None)
    @given(_shift_bases, _small.filter(bool), st.integers(1, 2), st.integers(0, 8),
           st.integers(0, 16))
    def test_argument_shift(self, q, c, s, k, m):
        # A_q(c r^k t) with r = q^s, as airy_mult (s = 1) and airy_two_param (s = 2) shift it
        Q, r = (q, 0), q**s
        got = _shifted(airy_series((c, 1), Q, 16), r)(k, m)
        assert _canonical(got) == airy_series((c * r**k, 1), Q, m).coeffs

    @settings(max_examples=100, deadline=None)
    @given(_shift_bases, _small.filter(bool), st.integers(0, 8), st.integers(0, 16))
    def test_euler_product_shift(self, p, c, k, m):
        # (-c p^(2k) t^2; p^4)_inf, as series_cal_e_theta shifts Euler's product with q = p^4:
        # coefficient t^(2j) gains p^(2kj), the t-dilation by p^k
        q2 = (p**4, 0)
        got = _shifted(qpoch_series((-c, 2), q2, None, 32), p)(k, 2 * m)
        assert _canonical(got) == qpoch_series((-c * p ** (2 * k), 2), q2, None, 2 * m).coeffs

    @settings(max_examples=100, deadline=None)
    @given(_shift_bases, _small, _small, _small.filter(bool), st.integers(0, 8),
           st.integers(0, 16))
    def test_lower_parameter_shift(self, q, a, b, w, k, m):
        # 1phi1(a; b q^k; q, w q^k t) from its k = 0 series, as confluent_arg_shift builds it
        lattice = {q**-i for i in range(40)}
        assume(b not in lattice)
        Q = (q, 0)
        got = _shifted(phi11_series((a, 0), (b, 0), (w, 1), Q, 16), q, b)(k, m)
        assert _canonical(got) == phi11_series((a, 0), (b * q**k, 0), (w * q**k, 1), Q, m).coeffs


@pytest.mark.parametrize("order", [1, 2, 3])
def test_every_identity_at_the_smallest_orders(order):
    # an infinite walk ends once its power passes the order: at order 1 a walk whose
    # powers grow as binom(k,2) reaches that only after order + 2 terms
    for ident in exact_identity_ids():
        assert verify_exact(ident, order, Fraction(1, 2))["equal"], ident
