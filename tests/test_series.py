import cmath
import math
import random
import types

import pytest

from qkit import (
    ConvergenceError,
    DomainError,
    PoleError,
    QParam,
    Truncation,
    cal_e,
    jackson_bessel,
    m_weighted,
    modified_bessel_i,
    phi,
    psi_bilateral,
    q_exp_big,
    q_exp_small,
    qpoch_finite,
    qpoch_inf,
    qpoch_multi,
    partial_theta,
    ramanujan_a,
    theta2,
    theta3,
    theta4,
)
import qkit.core
import qkit.series
from qkit.errors import NumericOverflowError, QKitError
from qkit.series import (
    _poch_gauss_ladder,
    bessel1_normalized,
    bessel2_normalized,
    bessel2_normalized_gauss,
    bessel2_normalized_native,
    bessel3_normalized,
    bessel3_normalized_gauss,
    confluent_phi_weighted,
    m_expansion,
    m_weighted_bilateral,
    poch_gauss,
    ramanujan_a_shifted,
)

TR = Truncation(tol=1e-14)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestPhi:
    def test_chu_vandermonde(self):
        q = QParam(0.5)
        n, a, c = 4, 0.3 + 0.1j, 0.7
        lhs = phi([q.power(-n), a], [c], q, q.q, TR)
        rhs = qpoch_finite(c / a, q, n) * a**n / qpoch_finite(c, q, n)
        assert rel(lhs, rhs) < 1e-11

    def test_empty_at_zero(self):
        assert phi([], [], QParam(0.5), 0.0, TR) == 1

    def test_divergence_guard(self):
        with pytest.raises(ConvergenceError):
            phi([0.3, 0.4], [0.5], QParam(0.5), 1.2, TR)
        with pytest.raises(DomainError):
            phi([0.3, 0.4, 0.5], [0.6], QParam(0.5), 0.2, TR)

    def test_lower_pole_detected(self):
        q = QParam(0.5)
        with pytest.raises(PoleError):
            phi([0.3], [q.power(-2)], q, 0.2, TR)
        # given as a double, q^(-2) makes 1 - b q^2 round to a few ulps rather than 0 at
        # most q, so every walker must recognise the pole by value; the native J^(2) at
        # nu = -3 has the lower parameter q^(nu+1) = q^(-2)
        rng = random.Random("lower-pole")
        for _ in range(200):
            q = QParam(rng.uniform(0.2, 0.8))
            b = q.q**-2
            for call in (lambda: phi([0.3], [b], q, 0.2, TR),
                         lambda: m_weighted([0.3], [b], q, 0.5, 0.7, TR),
                         lambda: m_expansion([0.3], [b], q, 0.5, 0.7, lambda k: 1.0,
                                             lambda k: 1.0, TR),
                         lambda: m_weighted_bilateral([0.3], [b], q, 0.5, 0.7, TR),
                         lambda: bessel2_normalized_native(-3, 0.7, q, TR)):
                with pytest.raises(PoleError):
                    call()

    def test_pole_only_below_the_end(self):
        # an upper parameter q^(-m) ends the series at k = m, and a lower q^(-n) zeroes
        # (b;q)_k for k > n: a pole of the terminating series exactly when n < m
        rng = random.Random("phi-lattice")
        for _ in range(200):
            q = QParam(rng.uniform(0.2, 0.8))
            for m in range(5):
                for n in range(7):
                    args = ([q.q**-m, 0.3], [q.q**-n], q, 0.5, TR)
                    if n < m:
                        with pytest.raises(PoleError):
                            phi(*args)
                    else:
                        assert cmath.isfinite(phi(*args))

    def test_slow_geometric_tail_is_certified(self):
        # q-binomial theorem: 1phi0(a; -; q, z) = (az;q)_inf/(z;q)_inf; at z = 0.99 the
        # terms shrink by only ~0.99 per step, so stopping on one small term under-sums
        q = QParam(0.5)
        exact = qpoch_inf(0.495, q) / qpoch_inf(0.99, q)
        assert rel(phi((0.5,), (), q, 0.99), exact) < 1e-12

    def test_heine_chain(self):
        rng = random.Random(19)
        hits = 0
        while hits < 30:
            q = QParam(rng.uniform(0.3, 0.7))
            a = cmath.rect(rng.uniform(0.1, 0.6), rng.uniform(0, 2 * math.pi))
            b = cmath.rect(rng.uniform(0.1, 0.6), rng.uniform(0, 2 * math.pi))
            c = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0, 2 * math.pi))
            z = cmath.rect(rng.uniform(0.1, 0.5), rng.uniform(0, 2 * math.pi))
            if not (abs(b) < 0.9 and abs(c / b) < 0.9 and abs(a * b * z / c) < 0.9
                    and abs(a * z) < 0.9 and abs(b * z) < 0.9):
                continue
            hits += 1
            base = phi([a, b], [c], q, z, TR)
            h1 = (qpoch_multi([b, a * z], q, None, TR) / qpoch_multi([c, z], q, None, TR)
                  * phi([c / b, z], [a * z], q, b, TR))
            h2 = (qpoch_multi([c / b, b * z], q, None, TR) / qpoch_multi([c, z], q, None, TR)
                  * phi([a * b * z / c, b], [b * z], q, c / b, TR))
            h3 = (qpoch_inf(a * b * z / c, q, TR) / qpoch_inf(z, q, TR)
                  * phi([c / a, c / b], [c], q, a * b * z / c, TR))
            t4 = (qpoch_inf(a * z, q, TR) / qpoch_inf(z, q, TR)
                  * phi([a, c / b], [c, a * z], q, b * z, TR))
            for other in (h1, h2, h3, t4):
                assert rel(base, other) < 1e-10


class TestPsi:
    def test_ramanujan_sum_sampled(self):
        rng = random.Random(23)
        hits = 0
        while hits < 30:
            q = QParam(rng.uniform(0.2, 0.7))
            a = rng.uniform(1.5, 4.0)
            b = cmath.rect(rng.uniform(0.05, 0.4), rng.uniform(0, 2 * math.pi))
            z = cmath.rect(rng.uniform(0.3, 0.85), rng.uniform(0, 2 * math.pi))
            if not abs(b / a) < abs(z) < 1:
                continue
            if any(abs(a * z - q.q ** (-k)) < 0.05 for k in range(4)):
                continue
            hits += 1
            lhs = psi_bilateral([a], [b], q, z, TR)
            rhs = (qpoch_multi([q.q, b / a, a * z, q.q / (a * z)], q, None, TR)
                   / qpoch_multi([b, q.q / a, z, b / (a * z)], q, None, TR))
            assert rel(lhs, rhs) < 1e-10

    def test_ramanujan_spec_point_is_zero(self):
        # a z = 1 makes both sides vanish
        q = QParam(0.4)
        lhs = psi_bilateral([2.0], [0.3], q, 0.5, TR)
        rhs = (qpoch_multi([q.q, 0.15, 1.0, q.q], q, None, TR)
               / qpoch_multi([0.3, 0.2, 0.5, 0.3], q, None, TR))
        assert abs(lhs - rhs) < 1e-12

    def test_reduces_to_unilateral_at_b_equals_q(self):
        q = QParam(0.4)
        lhs = psi_bilateral([2.5], [q.q], q, 0.5, TR)
        rhs = phi([2.5], [], q, 0.5, TR)
        assert rel(lhs, rhs) < 1e-13

    def test_annulus_enforced(self):
        q = QParam(0.4)
        with pytest.raises(ConvergenceError):
            psi_bilateral([2.0], [0.3], q, 0.05, TR)
        with pytest.raises(ConvergenceError):
            psi_bilateral([2.0], [0.3], q, 1.1, TR)

    def test_unequal_parameter_lists(self):
        with pytest.raises(DomainError):
            psi_bilateral([2.0, 3.0], [0.3], QParam(0.4), 0.5, TR)

    @pytest.mark.parametrize("j", [1, 2])
    def test_upper_parameter_pole_of_the_negative_wing(self, j):
        # (a;q)_k at a = q^j has the factor 1 - a q^(-j) for every k <= -j; |z| = 0.5
        # lies inside the annulus (0.1, 1), and the weighted sum converges for any z.  At
        # j = 2 the reflected factor 1 - (q/a) q rounds to a few ulps rather than 0 at some
        # of the drawn q
        rng = random.Random(f"psi-pole:{j}")
        for _ in range(20):
            qv = rng.uniform(0.2, 0.8)
            a = qv**j
            with pytest.raises(PoleError):
                psi_bilateral([a], [0.1 * a], QParam(qv), 0.5j, TR)
            with pytest.raises(PoleError):
                psi_bilateral([2.0, a], [0.3, 0.1 * a], QParam(qv), 0.5, TR)
            with pytest.raises(PoleError):
                m_weighted_bilateral([a], [0.1 * a], QParam(qv), 0.5, 0.7, TR)


class TestWeightedSeries:
    def test_zero_argument(self):
        assert m_weighted([0.3], [0.2], QParam(0.5), 0.7, 0.0, TR) == 1

    def test_reduces_to_ramanujan(self):
        q = QParam(0.5)
        z = 0.37 + 0.2j
        assert rel(m_weighted([], [], q, 1.0, z, TR), ramanujan_a(z, q, TR)) < 1e-12

    def test_weight_positivity_enforced(self):
        with pytest.raises(DomainError):
            m_weighted([], [], QParam(0.5), 0.0, 0.2, TR)

    def test_bilateral_domain(self):
        # ell > 0, and an alpha 0 has no reflection (q/alpha;q)_j for the wing k < 0
        for alphas, ell in (([2.0], 0.0), ([2.0], -0.5), ([2.0, 0.0], 0.5)):
            with pytest.raises(DomainError):
                m_weighted_bilateral(alphas, [0.3], QParam(0.5), ell, 0.7, TR)


class TestOneWeightedWalker:
    # every q^(k^2)-weighted sum takes its terms from core._m_terms, the
    # walker with the one tail bound for that shape
    CALLS = {
        "theta2": lambda q: theta2(0.2 + 0.1j, q, TR, route="series"),
        "theta3": lambda q: theta3(0.2 + 0.1j, q, TR, route="series"),
        "theta4": lambda q: theta4(0.7 - 0.4j, q, TR, route="series"),
        "partial_theta": lambda q: partial_theta(1.5 - 0.5j, q, TR),
        "phi": lambda q: phi([0.3, 0.2j], [0.6], q, 0.4, TR),
        "psi_bilateral": lambda q: psi_bilateral([0.8], [0.3], q, 0.6, TR),
        "m_weighted": lambda q: m_weighted([0.3], [0.2], q, 0.5, 1.2, TR),
        "m_weighted_bilateral": lambda q: m_weighted_bilateral((0.3,), (0.2,), q, 0.5, 1.2, TR),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_sums_through_m_terms(self, name, monkeypatch):
        calls = []
        walker = qkit.core._m_terms

        def counted(*args):
            calls.append(args)
            return walker(*args)

        monkeypatch.setattr(qkit.core, "_m_terms", counted)
        monkeypatch.setattr(qkit.series, "_m_terms", counted)
        self.CALLS[name](QParam(0.5))
        assert calls


class TestQExponentials:
    def test_values_at_zero(self):
        q = QParam(0.5)
        assert q_exp_small(0, q, TR) == 1
        assert q_exp_big(0, q, TR) == 1
        assert ramanujan_a(0, q, TR) == 1

    def test_reciprocal_pair(self):
        q = QParam(0.5)
        z = 0.4 + 0.1j
        assert abs(q_exp_big(z, q, TR) * q_exp_small(-z, q, TR) - 1) < 1e-14

    def test_eq_pole(self):
        q = QParam(0.5)
        with pytest.raises(PoleError):
            q_exp_small(q.power(-2), q, TR)

    def test_ramanujan_at_minus_one(self):
        q = QParam(0.2)
        direct = sum(0.2 ** (n * n) / qpoch_finite(0.2, q, n).real for n in range(80))
        assert rel(ramanujan_a(-1, q, TR), direct) < 1e-13

    def test_shifted_helper_matches_naive(self):
        q = QParam(0.5)
        for shift in (-3.0, 0.0, 2.5):
            z = 0.4 + 0.2j
            stable = ramanujan_a_shifted(z, shift, q, TR)
            naive = q.power(shift * shift) * ramanujan_a(q.power(2 * shift) * z, q, TR)
            assert rel(stable, naive) < 1e-12

    def test_poch_gauss_matches_naive(self):
        q = QParam(0.55)
        for w, b in ((0.3 + 0.2j, -4.0), (-0.4, 3.0), (0.7, -20.0)):
            stable = poch_gauss(w, b, q, TR)
            naive = q.power(b * b / 2.0) * qpoch_inf(w * q.power(b), q, TR)
            assert rel(stable, naive) < 1e-12


def _value_or_class(f, *args):
    try:
        return f(*args)
    except (QKitError, ArithmeticError, ValueError) as exc:
        return type(exc)


class TestPochGaussLadder:
    """The ladder walks poch_gauss(w, beta + k), k = 0, 1, 2, ..., from one tail product."""

    def _assert_ladder_matches(self, w, beta, q, tr, steps=60):
        ladder = _poch_gauss_ladder(w, beta, q, tr)
        for k in range(steps):
            direct = _value_or_class(poch_gauss, w, beta + k, q, tr)
            walked = _value_or_class(next, ladder)
            if isinstance(direct, type) or isinstance(walked, type):
                # the ladder stops at its first failure; the direct call fails the same way
                assert walked == direct, (w, beta, k, q.q)
                return
            if abs(direct) < 1e-280:  # below the normal double range
                assert abs(walked) < 1e-270, (w, beta, k, q.q)
            else:
                assert rel(walked, direct) < 1e-12, (w, beta, k, q.q)

    def test_matches_direct_calls(self):
        rng = random.Random(4242)
        for _ in range(150):
            q = QParam(rng.uniform(0.02, 0.95))
            w = cmath.rect(10 ** rng.uniform(-6, 6), rng.uniform(-math.pi, math.pi))
            beta = rng.uniform(-30.0, 10.0)
            self._assert_ladder_matches(w, beta, q, Truncation(tol=1e-13))

    def test_vanishing_factor_and_regrowth(self):
        q = QParam(0.5)
        # 1 - w q^(beta+2) = 1 - 4 * 0.5^2 = 0 exactly: the values k <= 2 vanish, the later
        # ones do not
        ladder = _poch_gauss_ladder(4.0, 0.0, q, TR)
        assert [next(ladder) for _ in range(3)] == [0, 0, 0]
        for k in range(3, 20):
            assert rel(next(ladder), poch_gauss(4.0, k, q, TR)) < 1e-12
        # q^(beta^2/2) underflows at k = 0 but the value grows back to about 1 at k = 30
        q = QParam(0.05)
        ladder = _poch_gauss_ladder(1e-30, -30.0, q, TR)
        values = [next(ladder) for _ in range(31)]
        assert values[0] == 0 and rel(values[30], qpoch_inf(1e-30, q, TR)) < 1e-13
        self._assert_ladder_matches(1e-30, -30.0, q, TR)

    def test_overflow_is_numeric_overflow_error(self):
        w, beta, q = 449732.499041943 + 129668.65673271654j, 5.588164397319055, QParam(0.95)
        with pytest.raises(NumericOverflowError):
            poch_gauss(w, beta, q)
        with pytest.raises(NumericOverflowError):
            next(_poch_gauss_ladder(w, beta, q, TR))
        with pytest.raises(NumericOverflowError):  # q^beta itself leaves the double range
            poch_gauss(1e-300, -300.0, QParam(0.05))

    def test_damped_series_build_one_tail(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return qpoch_inf(*args)

        monkeypatch.setattr(qkit.series, "qpoch_inf", counting)
        q = QParam(0.6)
        confluent_phi_weighted(0.3 + 0.1j, 2.5, 0.4 - 0.2j, -3.5, q, TR)
        assert len(calls) <= 2
        calls.clear()
        bessel3_normalized_gauss(0.4, 0.5 + 0.3j, -2.0, q, TR)
        assert len(calls) <= 2
        calls.clear()
        bessel3_normalized(0.4, 0.5 + 0.3j, q, TR)
        assert len(calls) <= 2
        # the walker builds a ladder, and with it a tail product, only for a nonzero lower
        # product; bessel2_normalized_gauss calls qpoch_inf once, for its (q;q)_inf
        for call, expected in (
            (lambda: confluent_phi_weighted(0.3 + 0.1j, 0.0, 0.4 - 0.2j, -3.5, q, TR), 0),
            (lambda: ramanujan_a_shifted(0.4 - 0.2j, -3.5, q, TR), 0),
            (lambda: bessel2_normalized_gauss(0.4, 0.5 + 0.3j, -2.0, q, TR), 1),
        ):
            calls.clear()
            call()
            assert len(calls) == expected, calls


class TestCalE:
    def test_unit_at_t_zero(self):
        assert cal_e(0.3, 0.0, QParam(0.5), TR) == 1

    def test_cross_route_grid(self):
        q = QParam(0.5)
        for theta in (0.4, 1.1, 2.2):
            for t in (0.15, 0.3 + 0.2j, -0.4):
                x = math.cos(theta)
                a = cal_e(x, t, q, TR, route="hermite")
                b = cal_e(x, t, q, TR, route="shifted")
                assert rel(a, b) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            cal_e(0.3, 1.2, QParam(0.5), TR)

    def test_shifted_route_work_is_linear(self, monkeypatch):
        """Each term of the shifted route costs O(1): no per-term rebuild of the products."""
        terms, logs = [], []
        kernel = qkit.series._certified_sum

        def counting_sum(gen, tr, context):
            def counted():
                for pair in gen:
                    terms.append(pair)
                    yield pair

            return kernel(counted(), tr, context)

        def counting_log(*args):
            logs.append(args)
            return cmath.log(*args)

        monkeypatch.setattr(qkit.series, "_certified_sum", counting_sum)
        monkeypatch.setattr(qkit.series, "cmath",
                            types.SimpleNamespace(**{**vars(cmath), "log": counting_log}))
        cal_e(0.3, 0.5j, QParam(0.45), TR, route="shifted")
        assert len(terms) >= 10 and len(logs) <= len(terms)


class TestBessel:
    def test_value_at_zero(self):
        q = QParam(0.5)
        for kind in (1, 2, 3):
            assert jackson_bessel(kind, 0.7, 0, q, TR) == 0
            assert jackson_bessel(kind, 0, 0, q, TR) == 1

    def test_kind1_kind2_relation(self):
        q = QParam(0.5)
        nu, z = 0.7, 0.9
        lhs = jackson_bessel(1, nu, z, q, TR) * qpoch_inf(-z * z / 4, q, TR)
        rhs = jackson_bessel(2, nu, z, q, TR)
        assert rel(lhs, rhs) < 1e-11

    def test_kind1_continuation_beyond_disk(self):
        q = QParam(0.5)
        nu, z = 0.7, 2.5
        lhs = jackson_bessel(1, nu, z, q, TR)
        rhs = jackson_bessel(2, nu, z, q, TR) / qpoch_inf(-z * z / 4, q, TR)
        assert rel(lhs, rhs) < 1e-12

    def test_kind1_series_outside_its_disk(self):
        # sum_k (-u)^k / [(q;q)_k (q^(nu+1);q)_k] has term ratio -> -u, so it diverges at |u| >= 1
        with pytest.raises(ConvergenceError):
            bessel1_normalized(0.7, 1.5, QParam(0.5), TR)

    def test_kind2_cross_route(self):
        # the defining series against the expansion in q^(n(n+1)/2 + nu n)
        q = QParam(0.4)
        nu, z = 1.2, 1.1
        a = jackson_bessel(2, nu, z, q, TR)
        b = (z / 2) ** nu * bessel2_normalized(nu, z * z / 4, q, TR)
        assert rel(a, b) < 1e-11

    def test_normalized_helpers_consistent(self):
        q = QParam(0.5)
        nu, z = 0.8, 1.1
        u = z * z / 4
        a = bessel2_normalized(nu, u, q, TR)
        b = bessel2_normalized_native(nu, u, q, TR)
        assert rel(a, b) < 1e-12

    def test_modified_definition(self):
        q = QParam(0.5)
        lhs = modified_bessel_i(2, 0.5, 0.8, q, TR)
        rhs = cmath.exp(-1j * math.pi * 0.25) * jackson_bessel(2, 0.5, 0.8j, q, TR)
        assert lhs == rhs

    def test_modified_zero(self):
        assert modified_bessel_i(2, 0.5, 0, QParam(0.5), TR) == 0

    def test_modified_phi_representation(self):
        q = QParam(0.5)
        z, nu = 0.6, 0.5
        lhs = modified_bessel_i(2, nu, 2 * z, q, TR)
        rhs = z**nu / qpoch_inf(q.q, q, TR) * phi([z * z], [0], q, q.power(nu + 1), TR)
        assert rel(lhs, rhs) < 1e-10
