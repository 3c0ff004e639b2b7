import cmath
import math
import random
from fractions import Fraction

import pytest

import qkit.polys

from qkit import (
    DomainError,
    QParam,
    Truncation,
    confluent_poly,
    qhermite,
    qhermite_inv,
    qhermite_inv_exp,
    qhermite_sum,
    qlaguerre,
    qpoch_finite,
    qpoch_inf,
    qpoch_multi,
    stieltjes_wigert,
    weight,
)
from qkit.errors import NumericOverflowError, PoleError
from qkit.exactq import qbinom_row, qfac_r, qhermite_inv_r, qlaguerre_r, qpoch_r

TR = Truncation(tol=1e-14)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def qfac(q, n):
    return qpoch_finite(q.q, q, n)


class TestQHermite:
    def test_low_degrees(self):
        q = QParam(0.5)
        assert qhermite(0, 0.3, q) == 1
        assert qhermite(1, 0.37, q) == 2 * 0.37
        assert abs(qhermite(2, 0.0, q) + 0.5) < 1e-15  # -(1-q)

    def test_recurrence_vs_sum(self):
        q = QParam(0.5)
        x = math.cos(1.1)
        assert rel(qhermite(8, x, q), qhermite_sum(8, x, q)) < 1e-12

    def test_row_sums_are_special_values(self):
        # the three quadratic binomial row sums are polynomial special values
        q = QParam(0.4)
        for n in range(0, 12):
            alt = sum((qfac(q, n) / (qfac(q, k) * qfac(q, n - k))) * (-1) ** k
                      for k in range(n + 1))
            h0 = qhermite(n, 0.0, q)
            if n % 2:
                assert abs(alt) < 1e-12 and abs(h0) < 1e-14
            else:
                assert rel(abs(alt), abs(h0)) < 1e-12
            # half-power sum is a quarter-power special value of H_n
            half = sum(q.power(k / 2.0) / (qfac(q, k) * qfac(q, n - k)) for k in range(n + 1))
            xval = (q.power(0.25) + q.power(-0.25)) / 2
            assert rel(half, q.power(n / 4.0) * qhermite(n, xval, q) / qfac(q, n)) < 1e-11
            # the shifted alternating sum is the odd-base Hermite value at zero;
            # odd rows vanish up to cancellation noise at the coefficient scale
            shifted = sum((-1) ** k * q.power(k * (k - n)) / (qfac(q, k) * qfac(q, n - k))
                          for k in range(n + 1))
            hinv0 = qhermite_inv(n, 0.0, q)
            noise = 1e-13 * abs(q.power(-n * n / 4.0))
            assert abs(shifted - hinv0 / qfac(q, n)) <= noise + 1e-11 * abs(shifted)


class TestQInvHermite:
    def test_low_degrees(self):
        q = QParam(0.5)
        assert qhermite_inv(0, 0.4, q) == 1
        xi = 0.3
        assert rel(qhermite_inv(1, math.sinh(xi), q), 2 * math.sinh(xi)) < 1e-14

    def test_exponential_form_consistency(self):
        q = QParam(0.5)
        xi = -0.42
        a = qhermite_inv(5, math.sinh(xi), q)
        b = qhermite_inv_exp(5, math.exp(xi), q)
        assert rel(a, b) < 1e-13

    def test_sinh_polynomial_single_valued(self):
        # both exponential roots of sinh give the same polynomial value
        q = QParam(0.5)
        u = 0.7
        a = qhermite_inv_exp(6, math.exp(u), q)
        b = qhermite_inv_exp(6, -math.exp(-u), q)
        assert rel(a, b) < 1e-12

    def test_relation_to_stieltjes_wigert(self):
        q = QParam(0.5)
        for n, xi in ((6, 0.4), (15, -0.3), (11, 0.1)):
            lhs = qhermite_inv(n, math.sinh(xi), q)
            rhs = (math.exp(n * xi) * qfac(q, n)
                   * stieltjes_wigert(n, math.exp(-2 * xi) * q.power(-n), q))
            assert rel(lhs, rhs) < 1e-12

    def test_matches_exact_rational_values(self):
        # against the Fraction sum of exactq at rational q and e^(xi); the error is bounded
        # by sum |t_k| (measured worst 1.9e-15 of it), and relative where the terms barely
        # cancel (measured worst 1.1e-14)
        for q in (Fraction(1, 2), Fraction(3, 5), Fraction(1, 3), Fraction(4, 5)):
            for e in (Fraction(3, 2), Fraction(2, 3), Fraction(-5, 4), Fraction(7, 10)):
                for n in range(16):
                    exact = qhermite_inv_r(n, e, q)
                    absum = sum(b * q ** (k * k) / q ** (k * n) * abs(e) ** (n - 2 * k)
                                for k, b in enumerate(qbinom_row(n, q)))
                    err = abs(qhermite_inv_exp(n, float(e), QParam(float(q))) - float(exact))
                    assert err <= 1e-14 * float(absum), (n, e, q, err)
                    if absum < 10 * abs(exact):
                        assert err <= 1e-13 * abs(float(exact)), (n, e, q, err)

    def test_overflow_is_numeric_overflow_error(self):
        # e^(-20 xi) = 1e400 is a term of h_20 at e^xi = 1e-20, and e^(20 xi) one at 1e20
        for e_xi in (1e-20, 1e20, -1e-20j):
            with pytest.raises(NumericOverflowError):
                qhermite_inv_exp(20, e_xi, QParam(0.5))

    def test_terms_are_running_products(self, monkeypatch):
        """A value costs O(n): no q-binomial is rebuilt from q-shifted factorials."""
        calls = []

        def counting(*args):
            calls.append(args)
            return qpoch_finite(*args)

        monkeypatch.setattr(qkit.polys, "qpoch_finite", counting)
        qhermite_inv_exp(12, 1.3 - 0.2j, QParam(0.5))
        assert calls == []


class TestQLaguerre:
    def test_low_degrees(self):
        q = QParam(0.5)
        assert qlaguerre(0, 0.3, 0.9, q) == 1
        alpha, x = 0.3, 0.9
        expected = (1 - q.power(alpha + 1)) / (1 - q.q) - q.power(alpha + 1) * x / (1 - q.q)
        assert rel(qlaguerre(1, alpha, x, q), expected) < 1e-14

    def test_connection_between_orders(self):
        q = QParam(0.5)
        n, al, be, x = 5, 0.3, 0.8, 0.7
        lhs = q.power(-al * n) * qlaguerre(n, al, x, q)
        rhs = sum(
            qpoch_finite(q.power(al - be), q, n - k) / qfac(q, n - k)
            * q.power(-al * (n - k)) * q.power(-be * k) * qlaguerre(k, be, x, q)
            for k in range(n + 1))
        assert rel(lhs, rhs) < 1e-11

    def test_matches_exact_rational_values(self):
        # against the Fraction sum of exactq; measured worst error 5.9e-16 of sum |t_k|
        for q in (Fraction(1, 2), Fraction(3, 5), Fraction(1, 3)):
            for alpha in (0, 1, 2):
                for x in (Fraction(3, 2), Fraction(-2, 3)):
                    for n in range(13):
                        pref = qpoch_r(q ** (alpha + 1), q, n)
                        absum = sum(abs(pref * q ** (alpha * k + k * k) * x ** k
                                        / (qfac_r(q, k) * qfac_r(q, n - k)
                                           * qpoch_r(q ** (alpha + 1), q, k)))
                                    for k in range(n + 1))
                        exact = qlaguerre_r(n, alpha, x, q)
                        err = abs(qlaguerre(n, alpha, float(x), QParam(float(q))) - float(exact))
                        assert err <= 1e-14 * float(absum), (n, alpha, x, q, err)

    def test_lower_parameter_pole(self):
        # alpha = -2 makes (q^(alpha+1);q)_k vanish at k = 2; at q other than 1/2 the factor
        # 1 - q^(-1) q rounds to a few ulps rather than 0
        with pytest.raises(PoleError):
            qlaguerre(3, -2, 1.0, QParam(0.5))
        rng = random.Random("qlaguerre-pole")
        for _ in range(200):
            with pytest.raises(PoleError):
                qlaguerre(3, -2, 1.0, QParam(rng.uniform(0.2, 0.8)))


class TestStieltjesWigert:
    def test_low_degrees(self):
        q = QParam(0.5)
        assert stieltjes_wigert(0, 0.7, q) == 1
        assert abs(stieltjes_wigert(1, 2.0, q)) < 1e-15
        assert rel(stieltjes_wigert(1, 0.3, q), (1 - 0.5 * 0.3) / 0.5) < 1e-14

    def test_two_display_forms(self):
        # against the (q^(-n);q)_k display form
        # (1/(q;q)_n) sum_k (q^(-n);q)_k q^(k(k+1)/2) (x q^n)^k / (q;q)_k in 30-digit mpmath
        mpmath = pytest.importorskip("mpmath")
        q = QParam(0.5)
        x = 0.3 + 0.2j
        with mpmath.workdps(30):
            mq, mx = mpmath.mpf(q.q), mpmath.mpc(x)
            for n in range(0, 9):
                shifted = sum(mpmath.qp(mq ** -n, mq, k) * mq ** (k * (k + 1) / 2)
                              * (mx * mq ** n) ** k / mpmath.qp(mq, mq, k)
                              for k in range(n + 1)) / mpmath.qp(mq, mq, n)
                assert rel(stieltjes_wigert(n, x, q), complex(shifted)) < 1e-12

    def test_symmetry(self):
        q = QParam(0.4)
        for n, t in ((7, 0.6 + 0.2j), (20, 0.9), (13, -0.4 + 0.1j)):
            lhs = q.power(n * n) * (-t) ** n * stieltjes_wigert(n, q.power(-2 * n) / t, q)
            rhs = stieltjes_wigert(n, t, q)
            assert rel(lhs, rhs) < 1e-12


class TestConfluentFamily:
    def test_degree_zero(self):
        assert confluent_poly(0, [0.3], [0.2], 0.7, QParam(0.5)) == 1

    def test_reduces_to_stieltjes_wigert(self):
        q = QParam(0.5)
        for n in (2, 4, 6):
            a = confluent_poly(n, [], [], 0.8, q)
            b = stieltjes_wigert(n, 0.8, q)
            assert rel(a, b) < 1e-13

    def test_matches_exact_rational_values(self):
        # the defining sum in Fractions; measured worst error 6.3e-16 of sum |t_k|
        for q in (Fraction(1, 2), Fraction(3, 5), Fraction(1, 3)):
            for alphas, betas in (([], []), ([Fraction(1, 3)], [Fraction(-1, 2)]),
                                  ([Fraction(2), Fraction(-3, 4)], [Fraction(1, 5)])):
                for x in (Fraction(3, 2), Fraction(-2, 3)):
                    for n in range(13):
                        terms = []
                        for k in range(n + 1):
                            t = q ** (k * k) * (-x) ** k / (qfac_r(q, k) * qfac_r(q, n - k))
                            for a in alphas:
                                t *= qpoch_r(a, q, k)
                            for b in betas:
                                t /= qpoch_r(b, q, k)
                            terms.append(t)
                        value = confluent_poly(n, [float(a) for a in alphas],
                                               [float(b) for b in betas], float(x),
                                               QParam(float(q)))
                        err = abs(value - float(sum(terms)))
                        assert err <= 1e-14 * float(sum(map(abs, terms))), (n, alphas, x, q)

    def test_lower_parameter_pole(self):
        # the lower parameter 2 = q^(-1) makes (2;q)_k vanish at k = 2
        with pytest.raises(PoleError):
            confluent_poly(3, [], [2.0], 1.0, QParam(0.5))

    def test_pole_only_below_the_degree(self):
        # b = q^(-m) zeroes (b;q)_k for k > m, so it is a pole of p_n exactly when m < n,
        # also as the second of two lower parameters; at q = 1/2 each q^(-m) is exact, at
        # the 200 drawn q it is a double
        rng = random.Random("confluent-pole")
        for qv in [0.5] + [rng.uniform(0.2, 0.8) for _ in range(200)]:
            q = QParam(qv)
            for n in range(6):
                for m in range(8):
                    b = qv ** -m
                    for betas in ([b], [0.3 - 0.2j, b]):
                        if m < n:
                            with pytest.raises(PoleError):
                                confluent_poly(n, [0.4], betas, 0.7, q)
                        else:
                            assert cmath.isfinite(confluent_poly(n, [0.4], betas, 0.7, q))

    def test_upper_lattice_point_ends_the_sum(self):
        # an upper q^(-m') ends the sum at term m' before a lower q^(-n'), m' <= n' < n, is
        # reached; past m' the double 1 - q^(-m') q^(m') and 1 - q^(-n') q^(n') round to a
        # few ulps, so a sum run to n divides one by the other.  The reference sums terms
        # 0..m' at the exact powers, 40 digits; measured worst error 4.7e-16 of sum |t_k|
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random("confluent-upper-end")
        for i in range(200):
            qv = rng.uniform(0.2, 0.8)
            if i == 0:
                n, mu, nu = 5, 1, 3
            else:
                n = rng.randint(1, 6)
                mu = rng.randint(0, n - 1)
                nu = rng.randint(mu, n - 1)
            got = confluent_poly(n, [qv**-mu], [qv**-nu], 0.7, QParam(qv))
            with mpmath.workdps(40):
                mq = mpmath.mpf(qv)
                terms = [mq ** (k * k) * mpmath.mpf(-0.7) ** k
                         * mpmath.qp(mq**-mu, mq, k) / mpmath.qp(mq**-nu, mq, k)
                         / (mpmath.qp(mq, mq, k) * mpmath.qp(mq, mq, n - k))
                         for k in range(mu + 1)]
                ref, mass = complex(mpmath.fsum(terms)), float(mpmath.fsum(map(abs, terms)))
            assert abs(got - ref) <= 1e-14 * mass, (qv, n, mu, nu, got, ref)


class TestGeneratingFunctions:
    def test_qhermite_generating_function(self):
        q = QParam(0.5)
        th, t = 1.1, 0.25
        lhs = sum(qhermite(n, math.cos(th), q) * t**n / qfac(q, n) for n in range(80))
        rhs = 1 / (qpoch_inf(t * cmath.exp(1j * th), q, TR)
                   * qpoch_inf(t * cmath.exp(-1j * th), q, TR))
        assert rel(lhs, rhs) < 1e-10

    def test_qinvhermite_generating_function(self):
        q = QParam(0.5)
        xi, t = 0.3, 0.2
        lhs = qpoch_inf(-t * math.exp(xi), q, TR) * qpoch_inf(t * math.exp(-xi), q, TR)
        rhs = sum(q.power(n * (n - 1) / 2) * t**n * qhermite_inv(n, math.sinh(xi), q)
                  / qfac(q, n) for n in range(60))
        assert rel(lhs, rhs) < 1e-10

    def test_poisson_kernel(self):
        q = QParam(0.5)
        t, xi, eta = 0.3, 0.2, -0.1
        lhs = sum(qhermite_inv(n, math.sinh(xi), q) * qhermite_inv(n, math.sinh(eta), q)
                  * q.power(n * (n - 1) / 2) / qfac(q, n) * t**n for n in range(40))
        num = qpoch_multi([-t * math.exp(xi + eta), -t * math.exp(-xi - eta),
                           t * math.exp(xi - eta), t * math.exp(eta - xi)], q, None, TR)
        rhs = num / qpoch_inf(t * t / q.q, q, TR)
        assert rel(lhs, rhs) < 1e-9


class TestWeights:
    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            weight("hermite", 0.0, QParam(0.5), TR)

    def test_qhermite_weight(self):
        q = QParam(0.5)
        val = weight("qhermite", 0.0, q, TR)
        direct = (qpoch_inf(-1.0, q, TR) ** 2).real  # e^(2 i pi/2) = -1 at x = 0
        assert rel(val, direct) < 1e-12
        with pytest.raises(DomainError):
            weight("qhermite", 1.2, q, TR)

    def test_sw_weight(self):
        q = QParam(0.5)
        assert abs(weight("sw_lognormal", math.sqrt(q.q), q, TR) - 1.0) < 1e-14
        with pytest.raises(DomainError):
            weight("sw_lognormal", -0.1, q, TR)

    def test_laguerre_weight_vanishes_at_origin(self):
        q = QParam(0.5)
        assert weight("laguerre", 1e-9, q, TR, alpha=0.7) < 1e-6

    def test_w2_is_normalized_density(self):
        from qkit.quad import real_line

        q = QParam(0.5)
        def f(x):
            return weight("ismail_masson_w2", x, q, TR)

        total = real_line(f, Truncation(tol=1e-11))
        assert abs(total.real - 1.0) < 1e-9
