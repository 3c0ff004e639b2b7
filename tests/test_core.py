import cmath
import collections
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qkit.core
from qkit import (
    DEFAULT_TRUNCATION,
    DomainError,
    PoleError,
    QParam,
    Truncation,
    partial_theta,
    qbinom,
    qgamma,
    qpoch_finite,
    qpoch_inf,
    qpoch_multi,
    theta2,
    theta3,
    theta4,
)
from qkit.core import _certified_sum, ensure_finite, geometric_tail
from qkit.errors import NumericOverflowError, TruncationError

TR = Truncation(tol=1e-14)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestQParam:
    def test_validation(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(DomainError):
                QParam(bad)

    def test_power_overflow_is_numeric_overflow_error(self):
        q = QParam(0.05)
        for e in (-400.5, -400.5 + 1j):  # e ln q > 709 on the real and the complex branch
            with pytest.raises(NumericOverflowError):
                q.power(e)
        with pytest.raises(NumericOverflowError):
            qgamma(-400.5, q)

    def test_cached_fields(self):
        q = QParam(0.37)
        assert q.ln_q == math.log(0.37)
        assert q.tau.imag > 0
        # q = exp(i pi tau)
        assert abs(cmath.exp(1j * math.pi * q.tau) - 0.37) < 1e-15


class TestTruncation:
    def test_bounds(self):
        with pytest.raises(DomainError):
            Truncation(tol=1e-16)
        with pytest.raises(DomainError):
            Truncation(max_terms=4)


def test_ensure_finite():
    for value in (1.5, 2 - 3j, 7, 0.0):
        assert ensure_finite(value) == value
    for value in (math.inf, math.nan, complex(1.0, math.inf), complex(math.nan, 0.0)):
        with pytest.raises(NumericOverflowError):
            ensure_finite(value, "test")


class TestCertifiedSum:
    def test_finite_generator_gives_exact_sum(self):
        terms = [(1.0, math.inf), (0.5, math.inf), (0.25, math.inf)]
        assert _certified_sum(terms, TR, "finite") == 1.75

    def test_infinite_tail_never_stops(self):
        # terms that vanish numerically but carry no tail bound run into the budget
        terms = ((0.0, math.inf) for _ in range(100))
        with pytest.raises(TruncationError):
            _certified_sum(terms, Truncation(max_terms=50), "uncertified")

    def test_budget_exhaustion_reports_achieved_bound(self):
        terms = ((0.9**k, geometric_tail(0.9**k, 0.9)) for k in itertools.count())
        with pytest.raises(TruncationError) as info:
            _certified_sum(terms, Truncation(max_terms=20), "slow")
        assert info.value.achieved_bound == pytest.approx(0.9**19 * 9.0)

    def test_geometric_tail(self):
        assert geometric_tail(2.0, 0.5) == 2.0
        for r in (1.0, 1.5, math.inf, math.nan):
            assert geometric_tail(1.0, r) == math.inf


class TestQPochhammer:
    def test_zero_argument(self):
        assert qpoch_finite(0, QParam(0.5), 7) == 1

    def test_two_factor_product(self):
        q = QParam(0.5)
        assert abs(qpoch_finite(0.5, q, 2) - 0.375) < 1e-15

    def test_negative_index_both_formulas(self):
        q = QParam(0.5)
        a, m = 0.3, 2
        direct = 1.0 / ((1 - 0.3 / 0.25) * (1 - 0.3 / 0.5))
        val = qpoch_finite(a, q, -m)
        alt = (-q.q / a) ** m * q.q ** (m * (m - 1) / 2) / qpoch_finite(q.q / a, q, m)
        assert rel(val, direct) < 1e-13
        assert rel(val, alt) < 1e-13

    def test_negative_index_pole(self):
        # (a;q)_(-3) = 1/(a q^(-3);q)_3 has the factor 1 - a q^(-2), which rounds to a few ulps
        # rather than 0 at most drawn q
        q = QParam(0.5)
        with pytest.raises(PoleError):
            qpoch_finite(q.q**2, q, -3)
        rng = random.Random("negative-index-pole")
        for _ in range(200):
            q = QParam(rng.uniform(0.2, 0.8))
            with pytest.raises(PoleError):
                qpoch_finite(q.q**2, q, -3)

    def test_infinite_vs_long_product(self):
        q = QParam(0.5)
        val = qpoch_inf(0.5, q, Truncation(tol=1e-12))
        longp = 1.0
        for k in range(200):
            longp *= 1 - 0.5 * 0.5**k
        assert rel(val, longp) < 1e-12

    def test_qq_infinite_positive(self):
        q = QParam(0.5)
        val = qpoch_inf(q.q, q, TR)
        longp = 1.0
        for k in range(1, 200):
            longp *= 1 - 0.5**k
        assert val.real > 0
        assert rel(val, longp) < 1e-12

    def test_multi(self):
        q = QParam(0.5)
        assert qpoch_multi([0, 0], q, 3) == 1
        a = 0.3 + 0.2j
        assert qpoch_multi([a], q, 5) == qpoch_finite(a, q, 5)
        two = qpoch_multi([0.2, 0.3], q, None, TR)
        assert rel(two, qpoch_inf(0.2, q, TR) * qpoch_inf(0.3, q, TR)) < 1e-14

    def test_splitting_property(self):
        # (a;q)_{m+n} = (a;q)_m (a q^m;q)_n over sampled complex a
        rng = random.Random(7)
        for _ in range(40):
            q = QParam(rng.uniform(0.2, 0.9))
            a = cmath.rect(rng.uniform(0.1, 2.0), rng.uniform(0, 2 * math.pi))
            m, n = rng.randint(-6, 8), rng.randint(-6, 8)
            try:
                whole = qpoch_finite(a, q, m + n)
                split = qpoch_finite(a, q, m) * qpoch_finite(a * q.power(m), q, n)
            except PoleError:
                continue
            assert rel(whole, split) < 1e-12

    def test_finite_infinite_splice(self):
        rng = random.Random(11)
        for _ in range(30):
            q = QParam(rng.uniform(0.2, 0.8))
            a = cmath.rect(rng.uniform(0.1, 1.5), rng.uniform(0, 2 * math.pi))
            n = rng.randint(0, 30)
            lhs = qpoch_finite(a, q, n) * qpoch_inf(a * q.power(n), q, TR)
            assert rel(lhs, qpoch_inf(a, q, TR)) < 1e-12


def _qpoch_inf_mp(a, qv):
    """(a;q)_inf to 40 digits: factors while |a q^k| > 1/2, then exp(-sum_n w^n / (n (1 - q^n)))."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a, q = mp.mpc(a), mp.mpf(qv)
        prod = mp.mpf(1)
        while abs(a) > 0.5:
            prod *= 1 - a
            a *= q
        log_tail, wn, qn, n = 0, a, q, 1
        while abs(wn) > 1e-45:
            log_tail += wn / (n * (1 - qn))
            n, wn, qn = n + 1, wn * a, qn * q
        return prod * mp.exp(-log_tail)


def _leading_product(a, qv):
    """The factors 1 - a q^k with |a q^k| > (1-q)/8, multiplied in floats as qpoch_inf does; and the rest w.

    The float product is kept as prod 2^e, rescaled by exact powers of two,
    so a partial product beyond the double range keeps its digits; the
    product is returned as an mpmath number.
    """
    mp = pytest.importorskip("mpmath")
    s = (1.0 - qv) / 8.0
    prod, e, w, n = 1.0 + 0.0j, 0, complex(a), 0
    while abs(w) > s:
        prod *= 1.0 - w
        f = math.frexp(max(abs(prod.real), abs(prod.imag)))[1]
        prod, e = complex(math.ldexp(prod.real, -f), math.ldexp(prod.imag, -f)), e + f
        w *= qv
        n += 1
    return mp.mpc(prod) * mp.mpf(2) ** e, w, n


def _check_against_mp(a, qv, tr):
    """qpoch_inf(a) is within 16 u of the 40-digit value, beyond the error of its leading product.

    The leading factors are multiplied as in any product algorithm, so near
    a zero factor their rounding is amplified; the reference is that float
    leading product times the exact rest (w;q)_inf.  Returns the outcome.
    """
    mp = pytest.importorskip("mpmath")
    exact = _qpoch_inf_mp(a, qv)
    lead, w, n = _leading_product(a, qv)
    try:
        val = qpoch_inf(a, QParam(qv), tr)
    except TruncationError as exc:
        assert n > tr.max_terms and exc.achieved_bound > 0, (a, qv, tr)
        return "budget"
    except NumericOverflowError:
        assert abs(exact) > sys.float_info.max, (a, qv)
        return "overflow"
    assert n <= tr.max_terms, (a, qv, tr)
    with mp.workdps(40):
        reference = lead * _qpoch_inf_mp(w, qv)
        # 16 u relative, and 16 subnormal steps for a product that underflows
        allowed = abs(reference - exact) + 16 * 2.0**-52 * abs(exact) + 16 * 2.0**-1074
        assert abs(val - exact) <= allowed, (a, qv, tr)
    return "value"


class TestQpochInfEulerTail:
    """Leading factors times Euler's series for the rest, accurate to the double floor whatever tr.tol."""

    def test_matches_40_digit_product_whatever_the_tol(self):
        rng = random.Random(2026)
        outcomes = collections.Counter()
        for qv in (0.05, 0.3, 0.5, 0.9, 0.99):
            for max_terms in (8, 100, 10000):
                for _ in range(40):
                    mag = 10 ** rng.uniform(-20, 4)
                    tr = Truncation(tol=10 ** rng.uniform(-15, -4), max_terms=max_terms)
                    for a in (mag, -mag, cmath.rect(mag, rng.uniform(-math.pi, math.pi))):
                        outcomes[_check_against_mp(a, qv, tr)] += 1
        assert outcomes["value"] > 1500 and outcomes["budget"] and outcomes["overflow"], outcomes

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.05, 0.99), st.floats(-20.0, 4.0), st.floats(-math.pi, math.pi))
    def test_property_matches_40_digit_product(self, qv, log_mag, phase):
        _check_against_mp(cmath.rect(10**log_mag, phase), qv, DEFAULT_TRUNCATION)

    def test_finite_product_past_an_overflowing_partial_product(self):
        # the partial products of 1 - 1000 q^k pass 1e308 before falling to 1.46e283
        assert _check_against_mp(1000.0, 0.96875, DEFAULT_TRUNCATION) == "value"
        assert _check_against_mp(1e4, 0.99, DEFAULT_TRUNCATION) == "overflow"

    def test_edges(self):
        for qv, max_terms in itertools.product((0.05, 0.3, 0.5, 0.9, 0.99), (8, 100, 10000)):
            q, tr = QParam(qv), Truncation(max_terms=max_terms)
            assert qpoch_inf(5e-324, q, tr) == 1 and qpoch_inf(-5e-324, q, tr) == 1
            for a in (math.inf, -math.inf, math.nan, complex(math.inf, math.nan), complex(math.nan, 1.0)):
                with pytest.raises(TruncationError):
                    qpoch_inf(a, q, tr)
        with pytest.raises(TruncationError) as info:
            qpoch_inf(0.99, QParam(0.99), Truncation(max_terms=8))
        assert info.value.achieved_bound > 1

    def test_qq_product_is_multiplied_out_once(self, monkeypatch):
        calls = []

        def counting(a, q, tr):
            calls.append(a)
            return kernel(a, q, tr)

        kernel = qkit.core._qpoch_inf
        monkeypatch.setattr(qkit.core, "_qpoch_inf", counting)
        qkit.core._qfac_inf.cache_clear()
        q = QParam(0.123457)
        first = qpoch_inf(q.q, q, Truncation(tol=3e-14))
        assert len(calls) == 1 and first == kernel(complex(q.q), q, TR)
        # the tolerance is not part of the key: products do not read it
        assert qpoch_inf(q.q, q, Truncation(tol=1e-5)) == first and len(calls) == 1
        # a failure is raised afresh each time, never stored
        q, tr = QParam(0.99), Truncation(max_terms=8)
        for attempt in (2, 3):
            with pytest.raises(TruncationError):
                qpoch_inf(q.q, q, tr)
            assert len(calls) == attempt


class TestQBinom:
    def test_edges(self):
        q = QParam(0.5)
        assert qbinom(5, 0, q) == 1
        assert qbinom(5, 7, q) == 0
        assert qbinom(5, -1, q) == 0

    def test_one_plus_q(self):
        assert abs(qbinom(2, 1, QParam(0.5)) - 1.5) < 1e-15

    def test_pascal_recurrence(self):
        q = QParam(0.3)
        for n in range(1, 10):
            for k in range(0, n + 1):
                lhs = qbinom(n, k, q)
                rhs = qbinom(n - 1, k - 1, q) + q.power(k) * qbinom(n - 1, k, q)
                assert rel(lhs, rhs) < 1e-13


class TestQGamma:
    def test_small_integers(self):
        q = QParam(0.5)
        assert rel(qgamma(1, q, TR), 1.0) < 1e-13
        assert rel(qgamma(2, q, TR), 1.0) < 1e-13
        assert rel(qgamma(3, q, TR), 1.5) < 1e-13

    def test_functional_equation(self):
        # Gamma_q(x+1) = (1-q^x)/(1-q) Gamma_q(x)
        q = QParam(0.4)
        for x in (0.7, 1.3, 2.6 + 0.4j):
            lhs = qgamma(x + 1, q, TR)
            rhs = (1 - q.power(x)) / (1 - q.q) * qgamma(x, q, TR)
            assert rel(lhs, rhs) < 1e-12

    def test_pole(self):
        with pytest.raises(PoleError):
            qgamma(0, QParam(0.5), TR)
        with pytest.raises(PoleError):
            qgamma(-2, QParam(0.5), TR)


class TestTheta:
    def test_zero_argument_rejected(self):
        with pytest.raises(DomainError):
            theta4(0, QParam(0.5), TR)

    def test_vanishing_at_z_equals_q(self):
        assert theta4(0.5, QParam(0.5), TR) == 0

    def test_triple_product_cross_route(self):
        rng = random.Random(3)
        done = 0
        while done < 50:
            q = QParam(rng.choice([0.1, 0.5, 0.9]))
            # phase margin keeps the value scale healthy for large q (the
            # function is exponentially small near its positive-axis zeros)
            phase_min = 0.1 if q.q <= 0.55 else 1.3
            phase = rng.choice([-1, 1]) * rng.uniform(phase_min, math.pi)
            z = cmath.rect(rng.uniform(0.3, 2.5), phase)
            if any(abs(z / q.q ** (2 * k + 1) - 1.0) < 0.08 for k in range(-9, 10)):
                continue
            done += 1
            s = theta4(z, q, TR, route="series")
            p = theta4(z, q, TR, route="product")
            assert rel(s, p) < 1e-11

    def test_real_bilateral_sums(self):
        q = QParam(0.5)
        direct = sum(0.5 ** (n * n) * (-1.0) ** n for n in range(-40, 41))
        assert rel(theta4(1.0, q, TR), direct) < 1e-13
        q3 = QParam(0.3)
        direct = sum(0.3 ** (n * n) for n in range(-40, 41))
        assert rel(theta4(-1.0, q3, TR), direct) < 1e-13

    def test_theta3_periodicity(self):
        q = QParam(0.5)
        v = 0.13 + 0.21j
        assert rel(theta3(v + 1, q, TR), theta3(v, q, TR)) < 1e-12

    def test_theta3_quasiperiodicity(self):
        q = QParam(0.5)
        v = 0.13 + 0.21j
        for n in (1, 2, 3):
            lhs = theta3(v + n * q.tau, q, TR)
            rhs = q.power(-n * n) * cmath.exp(-2 * n * math.pi * v * 1j) * theta3(v, q, TR)
            assert rel(lhs, rhs) < 1e-10

    def test_zeros(self):
        q = QParam(0.5)
        assert abs(theta3(0.5 + q.tau / 2, q, TR)) < 1e-14
        assert abs(theta2(0.5, q, TR)) < 1e-14

    def test_theta2_series_route(self):
        q = QParam(0.4)
        v = 0.2 + 0.1j
        assert rel(theta2(v, q, TR), theta2(v, q, TR, route="series")) < 1e-12

    def test_modular_transform(self):
        rng = random.Random(5)
        for _ in range(5):
            q = QParam(rng.uniform(0.3, 0.7))
            v = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
            tau2 = -1 / q.tau
            q2 = QParam(abs(cmath.exp(1j * math.pi * tau2)))
            lhs = theta3(v / q.tau, q2, TR)
            rhs = cmath.sqrt(q.tau / 1j) * cmath.exp(1j * math.pi * v * v / q.tau) * theta3(v, q, TR)
            assert rel(lhs, rhs) < 1e-9


class TestPartialTheta:
    def test_values(self):
        q = QParam(0.5)
        assert partial_theta(0, q, TR) == 1
        for v in (1.0, -1.0):
            direct = sum(0.5 ** (n * n) * v**n for n in range(60))
            assert rel(partial_theta(v, q, TR), direct) < 1e-13


def _partial_theta_mp(qv, v):
    """(sum_(n>=0) q^(n^2) v^n, sum_(n>=0) q^(n^2) |v|^n) to 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        qm, vm, r = mp.mpf(qv), mp.mpc(v), mp.mpf(abs(v))
        exact, mass, prev, n = mp.mpc(0), mp.mpf(0), mp.mpf(0), 0
        while True:
            weight = qm ** (n * n)
            exact += weight * vm**n
            mag = weight * r**n
            mass += mag
            if mag < prev and mag < 1e-35 * mass:  # past the peak, terms fall superexponentially
                return complex(exact), float(mass)
            prev, n = mag, n + 1


class TestThetaNearQOne:
    # the theta tests above stop at q = 0.9; near q -> 1 a wing sums tens of
    # terms, and their rounding is bounded by the mass sum q^(n^2) |z|^n
    FLOOR = Truncation(tol=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.05, 0.97), st.floats(0.2, 5.0), st.floats(-math.pi, math.pi))
    def test_theta4_series_matches_product(self, qv, r, phase):
        q = QParam(qv)
        z = cmath.rect(r, phase)
        mass = theta4(-r, q, self.FLOOR).real  # sum_n q^(n^2) r^n
        s = theta4(z, q, self.FLOOR, route="series")
        p = theta4(z, q, self.FLOOR, route="product")
        assert abs(s - p) <= 1e-14 * mass

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 0.97), st.floats(0.2, 5.0), st.floats(-math.pi, math.pi))
    def test_theta4_series_matches_30_digit_sum(self, qv, r, phase):
        # the wings n >= 0 and n <= -1 are partial theta sums at -z and -1/z
        z = cmath.rect(r, phase)
        pos, pos_mass = _partial_theta_mp(qv, -z)
        neg, neg_mass = _partial_theta_mp(qv, -1 / z)
        s = theta4(z, QParam(qv), self.FLOOR, route="series")
        assert abs(s - (pos + neg - 1)) <= 1e-14 * (pos_mass + neg_mass - 1)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 0.97), st.floats(0.2, 5.0), st.floats(-math.pi, math.pi))
    def test_partial_theta_matches_30_digit_sum(self, qv, r, phase):
        v = cmath.rect(r, phase)
        exact, mass = _partial_theta_mp(qv, v)
        assert abs(partial_theta(v, QParam(qv), self.FLOOR) - exact) <= 1e-14 * mass

    @pytest.mark.parametrize("qv", [0.999, 0.9999, 0.99995])
    def test_default_truncation_very_close_to_one(self, qv, monkeypatch):
        # at the default Truncation a wing at |z| = 1 is certified once its
        # tail is under 1e-29 of the peak term 1, a few terms past
        # q^(n^2) = 1e-30: some 1,200 terms at q = 0.99995.  The upper
        # parameter q must cancel (q;q)_k in the ratio bound too; left in,
        # it holds the bound at inf up to n ~ ln 2 / (1 - q), which runs
        # past max_terms at q = 0.9999
        q = QParam(qv)
        cap = math.sqrt(math.log(1e32) / -math.log(qv))  # q^(cap^2) = 1e-32
        walked = []
        walker = qkit.core._m_terms

        def counted(*args):  # the terms each walk yields
            slot = len(walked)
            walked.append(0)
            for pair in walker(*args):
                walked[slot] += 1
                yield pair

        monkeypatch.setattr(qkit.core, "_m_terms", counted)
        z = cmath.exp(1j)
        pos, pos_mass = _partial_theta_mp(qv, -z)
        neg, neg_mass = _partial_theta_mp(qv, -1 / z)
        assert abs(theta4(z, q, route="series") - (pos + neg - 1)) <= 1e-14 * (pos_mass + neg_mass)
        assert len(walked) == 2 and max(walked) <= cap
        walked.clear()
        exact, mass = _partial_theta_mp(qv, 1.0)
        value = partial_theta(1.0, q)
        assert len(walked) == 1 and walked[0] <= cap
        # the tail is cut at the default tol of the sum; the rounding of n
        # positive terms, each a product of up to n ratios, grows with n
        err = abs(value - exact)
        assert err <= DEFAULT_TRUNCATION.tol * abs(exact) + walked[0] * 2.0**-53 * mass
