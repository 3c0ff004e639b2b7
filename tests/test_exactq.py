import importlib.util
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qkit import DomainError, QParam, Truncation, UnsupportedIdentityError
from qkit import exactq
from qkit.exactq import FPS, exact_identity_ids, qpoch_series, verify_exact
from qkit.identities import evaluate_identity, get_identity


class TestFPS:
    def test_geometric_reciprocal(self):
        one_minus_z = FPS([1, -1, 0, 0, 0])
        inv = one_minus_z.reciprocal()
        assert inv.coeffs == [Fraction(1)] * 5

    def test_difference_of_squares(self):
        a = FPS([1, -1, 0])
        b = FPS([1, 1, 0])
        assert (a * b).coeffs == [Fraction(1), Fraction(0), Fraction(-1)]

    def test_mul_commutes_and_associates(self):
        rng = random.Random(13)
        for _ in range(20):
            def rand_fps():
                return FPS([Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(9)])

            a, b, c = rand_fps(), rand_fps(), rand_fps()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_reciprocal_needs_unit(self):
        with pytest.raises(DomainError):
            FPS([0, 1, 2]).reciprocal()

    def test_mismatched_orders_truncate(self):
        a = FPS([1, 2, 3, 4])
        b = FPS([1, 1])
        assert (a + b).order == 1
        assert (a * b).order == 1


# --- FPS against a plain list-of-Fraction reference ------------------------------

def _ref_mul(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]


def _ref_reciprocal(a):
    out = [1 / a[0]]
    for m in range(1, len(a)):
        out.append(-sum((a[k] * out[m - k] for k in range(1, m + 1)), Fraction(0)) / a[0])
    return out


def _ref_first_mismatch(a, b):
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


def _canonical(s):
    """The series as reduced Fractions, after checking its integer representation."""
    assert s.den > 0
    assert math.gcd(s.den, *s.num) == 1
    return s.coeffs


_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
_lists = st.lists(_rationals, min_size=1, max_size=9)
# a zero constant term is common enough to reach reciprocal's DomainError
_coeffs = st.one_of(_lists, _lists.map(lambda c: [Fraction(0)] + c[1:]))


class TestFPSAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(_coeffs, _coeffs, _rationals)
    def test_ring_operations(self, a, b, f):
        x, y = FPS(a), FPS(b)
        n = min(len(a), len(b))
        assert _canonical(x) == a
        assert _canonical(x + y) == [a[i] + b[i] for i in range(n)]
        assert _canonical(x - y) == [a[i] - b[i] for i in range(n)]
        assert _canonical(-x) == [-c for c in a]
        assert _canonical(x + f) == [a[0] + f] + a[1:]
        assert _canonical(f - x) == [f - a[0]] + [-c for c in a[1:]]
        assert _canonical(x * f) == [c * f for c in a]
        assert _canonical(f * x) == [c * f for c in a]
        assert _canonical(x * y) == _ref_mul(a, b)

    @settings(max_examples=150, deadline=None)
    @given(_coeffs, st.integers(min_value=0, max_value=11))
    def test_shift_and_reciprocal(self, a, k):
        x = FPS(a)
        assert _canonical(x.shift(k)) == ([Fraction(0)] * k + a)[: len(a)]
        if a[0] == 0:
            with pytest.raises(DomainError):
                x.reciprocal()
        else:
            assert _canonical(x.reciprocal()) == _ref_reciprocal(a)

    @settings(max_examples=150, deadline=None)
    @given(_coeffs, _coeffs, st.integers(min_value=0, max_value=8))
    def test_first_mismatch_and_equality(self, a, b, k):
        # b shares a prefix of a, so equal prefixes are drawn as often as unequal ones
        b = a[:k] + b
        x, y = FPS(a), FPS(b)
        expected = _ref_first_mismatch(a, b)
        assert x.first_mismatch(y) == expected
        assert (x == y) is (expected is None)


def _load_exact_sides():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "exact_sides.py")
    spec = importlib.util.spec_from_file_location("exact_sides", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# tools/exact_sides.py digests of both sides at order 20, base 5/7, as the all-Fraction
# arithmetic built them: one id per convention (scalar rows, argument variable, base
# variable, root of the base), and every handler that sums a scalar family's rows as
# the per-degree sums built them
PINNED_SIDES = {
    "qbinom_alternating": "6cc0dc1c67e72c6a56e833a6229f26040f6af61db1907eab909f3ae9d7e54c60",
    "qbinom_qinvhermite_zero": "a443fb80fd59202f521b440b883bf3214501dab6e66c2bf86c3974f4eafbf2f4",
    "qbinom_half_base": "6d9fd1f7d9cbb0f34ec9ff8e3a0d2efb5c6fbfe3ca6a8896c7233702b23a0087",
    "qhermite_genfun": "b79c26fdb4e45a422ea1e99a587626399e578e1808e0285bb5b65d1254ce0545",
    "qinvhermite_genfun": "60e4a11bd82a182cf6220e2173abac2c7f01ab1cf4226605348d4eb8de56df4b",
    "poisson_kernel_qinvhermite":
        "a7dc33a46b947343101c9eb3f95c87860505223c6e1f660cc859dddb30029e01",
    "qlaguerre_genfun": "e82d90b7708165f4b47ce9fea05aae8f1a864ece94eef49d54e83306d53afd27",
    "series_cal_e_theta": "33272009c0f81fc36b945c134c79c20289d2c6cdb2a9b92a4528bd3ae3d64c0d",
    "sw_genfun": "e3aac8053375c881906107a247a0188ffc5e432639a6feff47bc641442d2cbdf",
    "bessel_laguerre_genfun": "0d96e590de7856a1dd7bcdc2bafd47ea0ab099790e051249d454a4e8152b02e0",
    "laguerre_shift_series": "e6a4f3500620b4847a4b04b74e2ccc06a71db91afdfc40a68e80a626313d47d1",
    "bessel3_laguerre_b": "b41a8296b9a7fc86639ddcf430e15961e909b3ca1bd428de1f6110e4c8ec4774",
    # as the rational-scalar walk built them, each inner series walked afresh per degree
    "airy_mult": "c37d94304e83db86c7b39cf676c1b0d4e3aa824bf0546188747574d5160bdf63",
    "airy_unit_expansion": "a8c4c3500e66c8fdf7509a38a601816ccf784cf5fa7e75916c78c191847a433c",
    "airy_two_param": "0c6ef72ee3f2824ebce3c269130cb93160c57f96c8349577e3c9dc45465cdec6",
    "sw_from_aq": "8379e709a54bc46ed435a27b13511eba005642af579d1d1637c1b7d427c09630",
    "confluent_airy_series": "9203ebda95379f118b0a70429e802057faf77b46508d47f0f8947b82e5c3f628",
    "confluent_arg_shift": "bc49f0e818b7ec19afaea5b31cb29a742734524d015769745a800e42956b7c8c",
    "confluent_bessel_sqrt": "24a51b120eee90a46aff72d0687fea689e258b32c76048133d6ad6945740d889",
    "laguerre_phi11_series": "4b335777d1ffb47898e7791f03985d7d3548912722c2dc152d37b049c5f09cd2",
    "laguerre_unit_series": "716f48473cebaed208e930b82cd30bc0fbf55bdefc851883f4e5a203a1729d5c",
    "confluent_param_shift": "f5a2db2d512c3bf3cafb0d7a8e78ecbe92aa9c50fd422c601aa4e79ca09f25c7",
}


@pytest.mark.parametrize("ident", sorted(PINNED_SIDES))
def test_pinned_sides(ident):
    tool = _load_exact_sides()
    assert tool.digest(*tool.sides(exactq, ident, 20, Fraction(5, 7))) == PINNED_SIDES[ident]


# --- the scalar families' rows against their defining per-degree sums -------------

_bases = st.integers(min_value=2, max_value=9).flatmap(
    lambda d: st.integers(min_value=1, max_value=d - 1).map(lambda p: Fraction(p, d)))
_signed = st.fractions(min_value=-3, max_value=3, max_denominator=7)
_degrees = st.integers(min_value=0, max_value=24)


def _ref_qfac(q, n):
    return math.prod((1 - q**i for i in range(1, n + 1)), start=Fraction(1))


class TestScalarRows:
    @settings(max_examples=100, deadline=None)
    @given(_bases, _degrees)
    def test_qbinom_and_qpoch_rows(self, q, n):
        assert exactq._qbinom_rows(q, n) == [exactq.qbinom_row(m, q) for m in range(n + 1)]
        assert exactq._qpoch_rows(q, q, n) == [exactq.qfac_r(q, m) for m in range(n + 1)]
        assert exactq._qinv_rows(q, n) == [1 / exactq.qfac_r(q, m) for m in range(n + 1)]

    @settings(max_examples=100, deadline=None)
    @given(_bases, _signed.filter(bool), _degrees)
    def test_qhermite_rows(self, q, rho, n):
        # at x = (rho + 1/rho)/2 the q-Hermite polynomial is sum_k [n,k]_q rho^(n-2k)
        x = (rho + 1 / rho) / 2
        ref = [sum(b * rho ** (m - 2 * k) for k, b in enumerate(exactq.qbinom_row(m, q)))
               for m in range(n + 1)]
        assert exactq._qhermite_rows(x, q, n) == ref

    @settings(max_examples=100, deadline=None)
    @given(_bases, _signed.filter(bool), _degrees)
    def test_qhermite_inv_rows(self, q, e_xi, n):
        ref = [exactq.qhermite_inv_r(m, e_xi, q) for m in range(n + 1)]
        assert exactq._qhermite_inv_rows(e_xi, q, n) == ref

    @settings(max_examples=100, deadline=None)
    @given(_bases, _signed, _degrees)
    def test_sw_rows(self, q, x, n):
        ref = [sum((q ** (k * k) * (-x) ** k / (_ref_qfac(q, k) * _ref_qfac(q, m - k))
                    for k in range(m + 1)), Fraction(0)) for m in range(n + 1)]
        assert exactq._sw_rows(x, q, n) == ref

    @settings(max_examples=100, deadline=None)
    @given(_bases, st.integers(min_value=0, max_value=3), _signed, _degrees)
    def test_qlaguerre_rows(self, q, alpha, x, n):
        ref = [exactq.qlaguerre_r(m, alpha, x, q) for m in range(n + 1)]
        assert exactq._qlaguerre_rows(alpha, x, q, n) == ref


class TestQPochSeries:
    def test_infinite_product_coefficients(self):
        # (z;q)_inf has coefficients (-1)^n q^(n(n-1)/2)/(q;q)_n
        q = Fraction(1, 2)
        got = qpoch_series((1, 1), (q, 0), None, 6)
        for n in range(7):
            qfac = Fraction(1)
            for k in range(1, n + 1):
                qfac *= 1 - q**k
            expected = Fraction(-1) ** n * q ** (n * (n - 1) // 2) / qfac
            assert got.coeffs[n] == expected

    def test_finite_matches_product(self):
        q = Fraction(1, 3)
        a = Fraction(2, 5)
        fin = qpoch_series((a, 1), (q, 0), 3, 5)
        direct = FPS.const(1, 5)
        for k in range(3):
            direct = direct * (FPS.const(1, 5) - FPS.monomial(a * q**k, 1, 5))
        assert fin == direct


class TestVerifyExact:
    def test_alternating_binomial_row(self):
        r = verify_exact("qbinom1", 40, Fraction(1, 3))
        assert r["equal"] and r["first_mismatch"] is None

    def test_all_supported_at_two_bases(self):
        for qrat in (Fraction(1, 3), Fraction(1, 2)):
            for ident in exact_identity_ids():
                r = verify_exact(ident, 20, qrat)
                assert r["equal"], (ident, qrat, r)

    def test_rational_sets_a_free_parameter(self):
        # identities whose series runs in the base take x or z from the rational;
        # the unit expansions bessel_unit_series and laguerre_unit_series take it
        # too, but both their sides are free of it, as airy_unit_expansion's are of q
        free = ["bessel3_arg_conn", "bessel3_laguerre_a", "bessel3_laguerre_b",
                "bessel3_order_conn", "bessel3_product_series", "bessel_airy_pair_a",
                "bessel_airy_pair_b", "bessel_laguerre_inverse", "bessel_mult",
                "bessel_order_shift", "bessel_poch_series", "confluent_bessel_series",
                "confluent_param_shift", "laguerre_from_sw", "laguerre_ratio_series",
                "laguerre_shift_series", "modified_bessel_phi11", "sw_from_laguerre"]
        for ident in free:
            handler, _note = exactq._EXACT_HANDLERS[ident]
            third = [s.coeffs for s in handler(12, Fraction(1, 3))]
            half = [s.coeffs for s in handler(12, Fraction(1, 2))]
            assert third != half, ident

    def test_short_side_is_a_mismatch(self, monkeypatch):
        ident = "sw_genfun"
        handler, note = exactq._EXACT_HANDLERS[ident]

        def short(order, q):
            lhs, rhs = handler(order, q)
            return lhs, FPS(rhs.coeffs[: order - 2])

        monkeypatch.setitem(exactq._EXACT_HANDLERS, ident, (short, note))
        r = verify_exact(ident, 12, Fraction(1, 2))
        assert r == {"equal": False, "first_mismatch": 10}

    def test_unsupported(self):
        with pytest.raises(UnsupportedIdentityError):
            verify_exact("nonexistent", 10, Fraction(1, 3))

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_exact("qbinom1", 10, Fraction(3, 2))
        with pytest.raises(DomainError):
            verify_exact("qbinom1", 0, Fraction(1, 2))


class TestFloatAgreement:
    def test_float_registry_matches_exact_verdict(self):
        # identities proved exactly must also pass in floating point
        shared = [i for i in exact_identity_ids()
                  if i not in ("qbinom_alternating", "qbinom_qinvhermite_zero",
                               "qbinom_half_base")]
        for ident_id in shared:
            try:
                rec = get_identity(ident_id)
            except Exception:
                continue
            rng = random.Random(f"xcheck:{ident_id}")
            rep = evaluate_identity(ident_id, rec.sampler(rng))
            assert rep.passed, (ident_id, rep.rel_err)
