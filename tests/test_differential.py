"""The float primitives against mpmath at 30 digits (skipped without mpmath)."""

import cmath
import math
import random

import pytest

from qkit import QParam, Truncation, qgamma, qpoch_inf, theta2, theta3, theta4
from qkit.identities import get_identity, sample_params
from qkit.series import (
    bessel1_normalized,
    bessel2_normalized_gauss,
    bessel2_normalized_native,
    bessel3_normalized_gauss,
    bessel3_normalized_native,
    cal_e_raw_shifted,
    confluent_phi_weighted,
    m_weighted,
    m_weighted_bilateral,
    phi,
    poch_gauss,
    psi_bilateral,
    ramanujan_a_shifted,
)

mp = pytest.importorskip("mpmath")

TR = Truncation(tol=1e-15)


@pytest.fixture(autouse=True)
def thirty_digits():
    with mp.workdps(30):
        yield


def rel(value, exact):
    return float(abs(value - exact) / abs(exact))


@pytest.mark.parametrize("qv", [0.1, 0.5, 0.9, 0.97])
def test_qpoch_inf_matches_mpmath(qv):
    q, mq = QParam(qv), mp.mpf(qv)
    for a in (0.3, -0.7, 0.99, -3.0, 0.4 + 0.5j, 2.5 - 1j, 20j):
        assert rel(qpoch_inf(a, q, TR), mp.qp(mp.mpc(a), mq)) < 1e-13, a


@pytest.mark.parametrize("qv", [0.3, 0.55, 0.9])
def test_poch_gauss_matches_mpmath(qv):
    q, mq = QParam(qv), mp.mpf(qv)
    for w in (0.3 + 0.2j, -0.4, 5 - 2j, 40j, -25.0):
        for beta in (-4.5, 0.7, 3.0):
            b = mp.mpf(beta)
            exact = mq ** (b * b / 2) * mp.qp(mp.mpc(w) * mq**b, mq)
            assert rel(poch_gauss(w, beta, q, TR), exact) < 1e-13, (w, beta)


@pytest.mark.parametrize("qv", [0.1, 0.5, 0.9, 0.97])
def test_qgamma_matches_mpmath(qv):
    q, mq = QParam(qv), mp.mpf(qv)
    for x in (0.5, 2.3, 7.25, 12.5, -1.5, -4.6, 3 + 1j, -2.7 + 0.4j, 0.1 - 2j):
        assert rel(qgamma(x, q, TR), mp.qgamma(mp.mpc(x), mq)) < 1e-13, x


# Direct sums of the Gaussian-damped series, term by term from their definitions.  Each
# returns (sum, sum of |term|); it runs past the Gaussian's peak at n = -shift before it
# stops on a term below 1e-40 of the largest.

def _direct(term, shift):
    total, absum, peak, n = 0, 0, 0, 0
    while True:
        t = term(n)
        total += t
        absum += abs(t)
        peak = max(peak, abs(t))
        if n > 2 * abs(shift) + 5 and abs(t) < mp.mpf(10) ** -40 * peak:
            return total, absum
        n += 1


def _ramanujan_a_shifted(z, shift, q):
    z, s, q = mp.mpc(z), mp.mpf(shift), mp.mpf(q)
    return _direct(lambda n: q ** ((n + s) ** 2) * (-z) ** n / mp.qp(q, q, n), shift)


def _cal_e_raw_shifted(x, t, shift, q):
    x, t, s, q = mp.mpc(x), mp.mpc(t), mp.mpf(shift), mp.mpf(q)
    h = [mp.mpc(1), 2 * x]  # H_n(x|q)

    def term(n):
        while len(h) <= n:
            k = len(h) - 1
            h.append(2 * x * h[k] - (1 - q**k) * h[k - 1])
        return q ** ((n + s) ** 2 / 4) * t**n * h[n] / mp.qp(q, q, n)

    return _direct(term, shift)


def _bessel2_normalized_gauss(nu, u, alpha, q):
    nu, u, a, q = mp.mpc(nu), mp.mpc(u), mp.mpf(alpha), mp.mpf(q)
    qq = mp.qp(q, q)
    total, absum = _direct(lambda n: mp.qp(-u, q, n) * (-1) ** n * q ** (n / 2 + nu * n)
                           * q ** ((a + n) ** 2 / 2) / mp.qp(q, q, n), alpha)
    return total / qq, absum / qq


def _bessel3_normalized_gauss(nu, z2, alpha, q):
    nu, z2, a, q = mp.mpc(nu), mp.mpc(z2), mp.mpf(alpha), mp.mpf(q)
    qq = mp.qp(q, q)
    total, absum = _direct(lambda n: (-z2 * mp.sqrt(q)) ** n * q ** ((a + n) ** 2 / 2)
                           * mp.qp(q ** (nu + 1 + a + n), q) / mp.qp(q, q, n), alpha)
    return total / qq, absum / qq


def _confluent_phi_weighted(a, b0, z0, beta, q):
    a, b0, z0, b, q = mp.mpc(a), mp.mpc(b0), mp.mpc(z0), mp.mpf(beta), mp.mpf(q)
    return _direct(lambda k: mp.qp(a, q, k) * (-z0) ** k * q ** ((b + k) ** 2 / 2)
                   * mp.qp(b0 * q ** (b + k), q) / mp.qp(q, q, k), beta)


def _cring(rng, lo, hi):
    return rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.random())


# (function, direct sum, sampler of (args..., q)) over the ranges the FOURIER samplers feed
# the damped series: shifts -30..12 (the Gaussian window), q and the other arguments as drawn
DAMPED = {
    "ramanujan_a_shifted": (
        ramanujan_a_shifted, _ramanujan_a_shifted,
        lambda r: (_cring(r, 0.01, 3.0), r.uniform(-30, 12), r.uniform(0.1, 0.7))),
    "cal_e_raw_shifted": (
        cal_e_raw_shifted, _cal_e_raw_shifted,
        lambda r: (_cring(r, 0.03, 0.95), _cring(r, 0.01, 3.0), r.uniform(-30, 12),
                   r.uniform(0.15, 0.65))),
    "bessel2_normalized_gauss": (
        bessel2_normalized_gauss, _bessel2_normalized_gauss,
        lambda r: (complex(r.uniform(0.2, 1.4), r.uniform(-1, 1)), _cring(r, 0.03, 1.6),
                   r.uniform(-30, 12), r.uniform(0.15, 0.62))),
    "bessel3_normalized_gauss": (
        bessel3_normalized_gauss, _bessel3_normalized_gauss,
        lambda r: (r.uniform(0.4, 1.0), _cring(r, 0.1, 0.5), r.uniform(-30, 12),
                   r.uniform(0.45, 0.6))),
    "confluent_phi_weighted": (
        confluent_phi_weighted, _confluent_phi_weighted,
        lambda r: (_cring(r, 0.1, 2.6), _cring(r, 0.03, 0.5), _cring(r, 0.1, 0.6),
                   r.uniform(-30, 12), r.uniform(0.38, 0.63))),
    # b0 = 0: the lower product is 1, and the walker takes the bare Gaussian, not the ladder
    "confluent_phi_weighted_b0_zero": (
        confluent_phi_weighted, _confluent_phi_weighted,
        lambda r: (_cring(r, 0.1, 2.6), 0.0, _cring(r, 0.1, 0.6),
                   r.uniform(-30, 12), r.uniform(0.38, 0.63))),
}

# Shifts so negative that the Gaussian weight q^(shift^2/c) underflows to 0 at n = 0, while
# the terms near n = -shift are of ordinary size: a weight carried by a multiplicative
# recurrence would stay 0.  Each entry is (args..., q) and c.
UNDERFLOW = {
    "ramanujan_a_shifted": ((0.4 - 0.3j, -30.0, 0.05), 1),
    "cal_e_raw_shifted": ((0.3 + 0.2j, 0.8 - 0.5j, -60.0, 0.05), 4),
    "bessel2_normalized_gauss": ((0.5, 0.4 + 0.3j, -40.0, 0.05), 2),
    "bessel3_normalized_gauss": ((0.7, 0.3 - 0.2j, -40.0, 0.05), 2),
    "confluent_phi_weighted": ((0.5 + 0.5j, 0.2 - 0.1j, 0.3 + 0.2j, -40.0, 0.05), 2),
}


def _case(name, args):
    """(args, value, S, sum |t_n|) of one damped series against its direct sum S."""
    f, direct, _ = DAMPED[name]
    *fargs, qv = args
    value = f(*fargs, QParam(qv), TR)
    return (args, value, *direct(*args))


@pytest.mark.parametrize("name", sorted(DAMPED))
def test_damped_series_match_direct_sums(name):
    rng = random.Random(sum(map(ord, name)))
    cases = [_case(name, DAMPED[name][2](rng)) for _ in range(8)]
    # a sum that cancels below its largest terms loses the digits they carry (ROADMAP item 2),
    # so _check_spread bounds the error by 1e-13 sum |t_n|, and by 1e-12 relative where the
    # terms barely cancel
    assert _check_spread(cases) >= 4, name  # the relative check is not left to a few points


@pytest.mark.parametrize("name", sorted(UNDERFLOW))
def test_damped_series_regrow_after_underflow(name):
    args, c = UNDERFLOW[name]
    shift, qv = args[-2:]
    assert math.exp(shift * shift / c * math.log(qv)) == 0
    _, value, exact, absum = _case(name, args)
    err, spread = rel(value, exact), float(absum / abs(exact))
    # the terms barely cancel, but the Gaussian exponents here exceed 2e3 in size and
    # exp keeps eps |exponent| of them (poch_gauss(0.2 - 0.1j, -40) at q = 0.05 is 4e-13
    # off), so the relative bound is the one that holds
    assert spread < 10.0, (name, args, spread)
    assert err < 1e-12, (name, args, err)


# --- theta functions and phi ---------------------------------------------------------

def _theta_absum(q, r, s):
    """sum over n in Z of q^((n+s)^2) r^(n+s): the sum of |term| of a theta series."""
    q, r, s = mp.mpf(q), mp.mpf(r), mp.mpf(s)
    total, n = mp.mpf(0), 0
    while True:
        wing = q ** ((n + s) ** 2) * r ** (n + s) + q ** ((n + 1 - s) ** 2) * r ** (-n - 1 + s)
        total += wing
        if n > 2 + abs(mp.log(r) / mp.log(q)) and wing < mp.mpf(10) ** -40 * total:
            return total
        n += 1


def _theta_cases(v, qv):
    """(qkit function, its argument, mpmath value, sum of |term|) for theta2, theta3, theta4.

    theta2/theta3(v) are jtheta(2/3, pi v, q); theta4(e^(2iu)) is jtheta(4, u, q), taken
    at u = v.
    """
    mq, mv = mp.mpf(qv), mp.mpc(v)
    r = math.exp(-2 * math.pi * v.imag)  # |e^(2 pi i v)|
    z = cmath.exp(2j * v)
    return [
        (theta2, v, mp.jtheta(2, mp.pi * mv, mq), _theta_absum(qv, r, 0.5)),
        (theta3, v, mp.jtheta(3, mp.pi * mv, mq), _theta_absum(qv, r, 0)),
        (theta4, z, mp.jtheta(4, mv, mq), _theta_absum(qv, abs(z), 0)),
    ]


@pytest.mark.parametrize("route", ["product", "series"])
def test_theta_matches_jtheta(route):
    rng = random.Random(f"theta:{route}")
    relative = 0
    for _ in range(40):
        qv = rng.uniform(0.05, 0.9)
        v = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        for f, arg, exact, absum in _theta_cases(v, qv):
            value = f(arg, QParam(qv), TR, route)
            err, spread = rel(value, exact), float(absum / abs(exact))
            if route == "product":
                # the factors do not cancel: measured worst 2e-14 relative
                assert err < 1e-13, (f.__name__, qv, v, err)
                continue
            # the series cancels near a zero of theta (ROADMAP item 2), so its error is
            # bounded by the sum of |term|: measured worst 4e-16 of it
            assert err < 1e-14 * spread, (f.__name__, qv, v, err, spread)
            if spread < 10.0:
                relative += 1
                assert err < 1e-12, (f.__name__, qv, v, err)
    assert route == "product" or relative >= 60  # 85 of the 120 cases are checked relative


def _phi21_absum(a, b, c, z, q):
    """sum_k |(a;q)_k (b;q)_k z^k / ((q;q)_k (c;q)_k)| as the term ratios run."""
    a, b, c, z, q = mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpc(z), mp.mpf(q)
    total, term, k = mp.mpf(0), mp.mpf(1), 0
    while True:
        total += term
        term *= abs((1 - a * q**k) * (1 - b * q**k) * z / ((1 - q ** (k + 1)) * (1 - c * q**k)))
        k += 1
        if k > 10 and term < mp.mpf(10) ** -40 * total:
            return total


def test_phi21_matches_qhyper():
    rng = random.Random("phi21")
    relative = 0
    for _ in range(40):
        qv = rng.uniform(0.05, 0.9)
        a, b, c = _cring(rng, 0.1, 2.0), _cring(rng, 0.1, 2.0), _cring(rng, 0.1, 0.9)
        z = _cring(rng, 0.05, 0.8)
        value = phi((a, b), (c,), QParam(qv), z, TR)
        exact = mp.qhyper([mp.mpc(a), mp.mpc(b)], [mp.mpc(c)], mp.mpf(qv), mp.mpc(z))
        err = rel(value, exact)
        spread = float(_phi21_absum(a, b, c, z, qv) / abs(exact))
        # as for the damped series: measured worst 1.2e-15 of sum |t_k|
        assert err < 1e-14 * spread, (qv, a, b, c, z, err, spread)
        if spread < 10.0:
            relative += 1
            assert err < 1e-12, (qv, a, b, c, z, err)
    assert relative >= 20  # 31 of the 40 points are checked relative


def _phi21_direct(a, b, c, z, q):
    """2phi1 and sum |t_k| by the term ratios, until the geometric tail is below 1e-33 of the sum."""
    a, b, c, z, q = mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpc(z), mp.mpf(q)
    total, absum, term, qk = mp.mpc(0), mp.mpf(0), mp.mpc(1), mp.mpf(1)
    # the ratio tends to z, so the tail after a term t is about |t| / (1 - |z|)
    stop = mp.mpf(10) ** -33 * (1 - abs(z))
    for k in range(100000):
        total += term
        absum += abs(term)
        term *= (1 - a * qk) * (1 - b * qk) * z / ((1 - qk * q) * (1 - c * qk))
        qk *= q
        if k > 10 and abs(term) < stop * absum:
            return total, absum
    raise AssertionError("direct 2phi1 sum did not converge")


def test_phi21_near_the_radius_of_convergence():
    # |z| in [0.9, 0.97], where the terms fall only like |z|^k; mpmath's qhyper raises
    # NoConvergence there, so the reference is the direct sum at 30 digits
    rng = random.Random("phi21-edge")
    cases = []
    for _ in range(10):
        qv = rng.uniform(0.05, 0.9)
        a, b, c = _cring(rng, 0.1, 2.0), _cring(rng, 0.1, 2.0), _cring(rng, 0.1, 0.9)
        z = _cring(rng, 0.9, 0.97)
        value = phi((a, b), (c,), QParam(qv), z, TR)
        exact, absum = _phi21_direct(a, b, c, z, qv)
        cases.append(((qv, a, b, c, z), value, exact, absum))
    assert _check_spread(cases) >= 3  # 3 of the 10 points are checked relative


def test_phi_near_a_lower_parameter_pole():
    # c = (1 - d) q^(-k) with |d| = |1 - c q^k| in [1e-4, 1e-2] for some k <= 5: as for
    # m_weighted near such a pole, the double rounding of 1 - c q^k reaches every term
    # from k + 1 on magnified by cond = |c q^k / (1 - c q^k)|, so the bound scales with
    # sum |t_k| times 1 + cond
    rng = random.Random("phi21-pole")
    cases = []
    with mp.workdps(40):
        for _ in range(10):
            qv = rng.uniform(0.05, 0.9)
            k = rng.randrange(6)
            d = cmath.rect(10 ** rng.uniform(-4, -2), rng.uniform(-math.pi, math.pi))
            c = (1 - d) / qv**k
            a, b = _cring(rng, 0.1, 2.0), _cring(rng, 0.1, 2.0)
            z = _cring(rng, 0.05, 0.8)
            value = phi((a, b), (c,), QParam(qv), z, TR)
            exact, absum = _phi21_direct(a, b, c, z, qv)
            pole = mp.mpc(c) * mp.mpf(qv) ** k
            cond = abs(pole) / abs(1 - pole)
            assert 50 < cond < 2e4
            cases.append(((qv, k, d, a, b, z), value, exact, absum * (1 + cond)))
    _check_spread(cases)  # every spread is at least 1 + cond > 50, so none counts as relative


def _phi_terms(upper, lower, q, z):
    """term(k) of r_phi_s in mpmath, the extra factor ((-1)^k q^(k(k-1)/2))^(1+s-r) included."""
    upper, lower = [mp.mpc(a) for a in upper], [mp.mpc(b) for b in lower]
    q, z = mp.mpf(q), mp.mpc(z)
    excess = 1 + len(lower) - len(upper)

    def term(k):
        t = ((-1) ** k * q ** (k * (k - 1) // 2)) ** excess * z ** k / mp.qp(q, q, k)
        for a in upper:
            t *= mp.qp(a, q, k)
        for b in lower:
            t /= mp.qp(b, q, k)
        return t

    return term


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (1, 2), (0, 1)])
def test_phi_with_extra_factor_matches_qhyper(shape):
    # excess 1 + s - r = 1 (1phi1, 2phi2) and 2 (1phi2, 0phi1): the weight at l = e/2 of
    # the shared term walker, at complex parameters and arguments past |z| = 1
    r, s = shape
    rng = random.Random(f"phi:{r}:{s}")
    cases = []
    for _ in range(10):
        qv = rng.uniform(0.05, 0.9)
        upper = [_cring(rng, 0.1, 2.0) for _ in range(r)]
        lower = [_cring(rng, 0.1, 0.9) for _ in range(s)]
        z = _cring(rng, 0.05, 3.0)
        value = phi(upper, lower, QParam(qv), z, TR)
        exact = mp.qhyper([mp.mpc(a) for a in upper], [mp.mpc(b) for b in lower],
                          mp.mpf(qv), mp.mpc(z))
        absum = _direct(_phi_terms(upper, lower, qv, z), 0)[1]
        cases.append(((qv, upper, lower, z), value, exact, absum))
    assert _check_spread(cases) >= 5


@pytest.mark.parametrize("shape", [(2, 0), (3, 1)])
def test_terminating_phi_with_more_upper_parameters(shape):
    # excess -1: l = -1/2 < 0, so every term up to the terminating one is summed;
    # mpmath's qhyper does not stop on a terminating series, so the reference is the
    # finite sum to k = n in mpmath.  Degrees up to 60 check that the weight q^(-k) of
    # each term ratio does not compound a rounding as k^2; q is drawn where the terms,
    # of size up to about q^(-n^2), stay inside the double range
    r, s = shape
    rng = random.Random(f"phi-terminating:{r}:{s}")
    cases = []
    for _ in range(10):
        n = rng.randrange(1, 61)
        qv = rng.uniform(max(0.2, 10.0 ** (-250 / n**2)), 0.9)
        q = QParam(qv)
        upper = [q.power(-n).real] + [_cring(rng, 0.1, 2.0) for _ in range(r - 1)]
        lower = [_cring(rng, 0.1, 0.9) for _ in range(s)]
        z = _cring(rng, 0.05, 1.0)
        value = phi(upper, lower, q, z, TR)
        term = _phi_terms(upper, lower, qv, z)
        terms = [term(k) for k in range(n + 1)]
        cases.append(((qv, n, upper, lower, z), value, mp.fsum(terms),
                      mp.fsum(abs(t) for t in terms)))
    assert _check_spread(cases) >= 5


def _psi_direct(upper, lower, q, z, ell=0):
    """sum_(n in Z) prod(a;q)_n q^(l n^2) z^n / prod(b;q)_n and sum |t_n|.

    Both wings are summed to 1e-40 of their peak term.
    """
    upper, lower = [mp.mpc(a) for a in upper], [mp.mpc(b) for b in lower]
    q, z, ell = mp.mpf(q), mp.mpc(z), mp.mpf(ell)

    def wing(ratio):
        total, absum, peak, t, n = 0, 0, 0, mp.mpc(1), 0
        while True:
            t *= ratio(n)
            total += t
            absum += abs(t)
            peak = max(peak, abs(t))
            if n > 5 and abs(t) < mp.mpf(10) ** -40 * peak:
                return total, absum
            n += 1

    # t_(n+1) / t_n = z q^(l(2n+1)) prod(1 - a q^n) / prod(1 - b q^n), and
    # t_(-n-1) / t_(-n) = q^(l(2n+1)) prod(1 - b q^(-n-1)) / (z prod(1 - a q^(-n-1)))
    pos = wing(lambda n: z * q ** (ell * (2 * n + 1)) * mp.fprod(1 - a * q ** n for a in upper)
               / mp.fprod(1 - b * q ** n for b in lower))
    neg = wing(lambda n: q ** (ell * (2 * n + 1)) * mp.fprod(1 - b * q ** (-n - 1) for b in lower)
               / (z * mp.fprod(1 - a * q ** (-n - 1) for a in upper)))
    return 1 + pos[0] + neg[0], 1 + pos[1] + neg[1]


@pytest.mark.parametrize("m", [1, 2])
def test_psi_bilateral_matches_direct_sum(m):
    # 1psi1 and 2psi2 inside the annulus |b_1...b_m / (a_1...a_m)| < |z| < 1, against both
    # wings summed in 40-digit mpmath.  Every third case puts a lower parameter at 0, which
    # raises the weight of the reflected wing k < 0 to q^(k(k-1)/2).  Past the first 10 cases
    # it draws more until 5 have been checked relative, so the relative count measures the
    # code, not the draws; the cap of 40 fails a sum that is rarely accurate relative
    rng = random.Random(f"psi:{m}")
    cases = []
    with mp.workdps(40):
        while len(cases) < 10 or _check_spread(cases) < 5:
            assert len(cases) < 40, f"fewer than 5 of {len(cases)} cases checked relative"
            qv = rng.uniform(0.1, 0.8)
            upper = [_cring(rng, 1.2, 3.0) for _ in range(m)]
            lower = [_cring(rng, 0.05, 0.6) for _ in range(m)]
            if len(cases) % 3 == 2:
                lower[-1] = 0
            z = _cring(rng, 0.3, 0.9)
            inner = math.prod(map(abs, lower)) / math.prod(map(abs, upper))
            if not inner < 0.8 * abs(z):
                continue
            value = psi_bilateral(upper, lower, QParam(qv), z, TR)
            exact, absum = _psi_direct(upper, lower, qv, z)
            cases.append(((qv, upper, lower, z), value, exact, absum))
    assert _check_spread(cases) >= 5


@pytest.mark.parametrize("j", [2, 3])
def test_psi_bilateral_with_a_wing_that_ends(j):
    # a lower parameter b = q^j zeroes 1/(b;q)_k for k <= -j, so the wing k < 0 ends at
    # k = 1 - j: its reflected walk has the upper parameter q/b = q^(1-j).  1psi1 and 2psi2,
    # against both wings in 40-digit mpmath with b = q^j to 40 digits, where the wing ends
    rng = random.Random(f"psi-end:{j}")
    cases = []
    with mp.workdps(40):
        for i in range(10):
            qv = rng.uniform(0.1, 0.8)
            m = 1 + i % 2
            upper = [_cring(rng, 1.2, 3.0) for _ in range(m)]
            lower = [_cring(rng, 0.05, 0.6) for _ in range(m - 1)]
            z = _cring(rng, 0.3, 0.9)
            value = psi_bilateral(upper, lower + [qv**j], QParam(qv), z, TR)
            exact, absum = _psi_direct(upper, lower + [mp.mpf(qv) ** j], qv, z)
            cases.append(((qv, upper, lower, z), value, exact, absum))
    assert _check_spread(cases) >= 4


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("edge", ["outer", "inner"])
def test_psi_bilateral_at_the_edges_of_its_annulus(m, edge):
    # |z| in [0.9, 0.97] below the outer radius 1, where the k >= 0 wing falls like |z|^k,
    # and |z| 3-10% above the inner radius |b_1...b_m / (a_1...a_m)|, where the k < 0
    # wing falls only like (inner / |z|)^k; against both wings in 40-digit mpmath
    rng = random.Random(f"psi-edge:{m}:{edge}")
    cases = []
    with mp.workdps(40):
        while len(cases) < 10:
            qv = rng.uniform(0.1, 0.8)
            upper = [_cring(rng, 1.2, 3.0) for _ in range(m)]
            lower = [_cring(rng, 0.05, 0.6) for _ in range(m)]
            inner = math.prod(map(abs, lower)) / math.prod(map(abs, upper))
            if edge == "outer":
                z = _cring(rng, 0.9, 0.97)
                if not inner < 0.8 * abs(z):
                    continue
            else:
                z = _cring(rng, 1.03 * inner, 1.10 * inner)
            value = psi_bilateral(upper, lower, QParam(qv), z, TR)
            exact, absum = _psi_direct(upper, lower, qv, z)
            cases.append(((qv, upper, lower, z), value, exact, absum))
    assert _check_spread(cases) >= 3


@pytest.mark.parametrize("ell", [0.25, 0.5, 1.3])
@pytest.mark.parametrize("betas", ["none", "b", "zero"])
def test_m_weighted_bilateral_matches_direct_sum(ell, betas):
    # sum_(k in Z) prod(alpha;q)_k q^(l k^2) (-z)^k / prod(beta;q)_k with one or two alphas
    # and no beta, one beta or a beta 0, against both wings summed in 40-digit mpmath
    rng = random.Random(f"m_weighted_bilateral:{ell}:{betas}")
    cases = []
    with mp.workdps(40):
        for _ in range(8):
            qv = rng.uniform(0.1, 0.8)
            alphas = [_cring(rng, 1.2, 3.0) for _ in range(rng.randrange(1, 3))]
            beta = {"none": [], "b": [_cring(rng, 0.05, 0.6)], "zero": [0]}[betas]
            z = _cring(rng, 0.3, 2.0)
            value = m_weighted_bilateral(alphas, beta, QParam(qv), ell, z, TR)
            exact, absum = _psi_direct(alphas, beta, qv, -z, ell)
            cases.append(((qv, alphas, beta, z), value, exact, absum))
    assert _check_spread(cases) >= 4


# --- m_weighted and the expansions over its coefficients ------------------------------

def _m_weighted(alphas, betas, q, ell, z):
    """Direct sum of prod(alpha;q)_k q^(l k^2) (-z)^k / ((q;q)_k prod(beta;q)_k), sum |t_k|."""
    alphas, betas = [mp.mpc(a) for a in alphas], [mp.mpc(b) for b in betas]
    q, ell, z = mp.mpf(q), mp.mpf(ell), mp.mpc(z)

    def term(k):
        t = q ** (ell * k * k) * (-z) ** k / mp.qp(q, q, k)
        for a in alphas:
            t *= mp.qp(a, q, k)
        for b in betas:
            t /= mp.qp(b, q, k)
        return t

    return _direct(term, 0)


def _check_spread(cases):
    """The bounds of the damped series on (value, exact, sum |t_k|) triples; the relative count."""
    relative = 0
    for label, value, exact, absum in cases:
        err, spread = rel(value, exact), float(absum / abs(exact))
        assert err < 1e-13 * spread, (label, err, spread)
        if spread < 10.0:
            relative += 1
            assert err < 1e-12, (label, err)
    return relative


@pytest.mark.parametrize("ell", [0.125, 0.25, 0.5])
@pytest.mark.parametrize("with_beta", [False, True])
def test_m_weighted_matches_direct_sum(ell, with_beta):
    # the doubled bases and weights of the registry's pure sides (fourier_h_kernel_int_1,
    # plancherel_6/_10, airy_base_shift), with one upper and an optional lower parameter
    rng = random.Random(f"m_weighted:{ell}:{with_beta}")
    cases = []
    for _ in range(8):
        q2 = rng.uniform(0.3, 0.7) ** 2
        alphas = [_cring(rng, 0.1, 1.5)]
        betas = [_cring(rng, 0.05, 0.9)] if with_beta else []
        z = _cring(rng, 0.1, 2.0)
        value = m_weighted(alphas, betas, QParam(q2), ell, z, TR)
        exact, absum = _m_weighted(alphas, betas, q2, ell, z)
        cases.append(((q2, alphas, betas, z), value, exact, absum))
    assert _check_spread(cases) >= 4


@pytest.mark.parametrize("ell", [0.25, 0.5])
def test_m_weighted_near_a_lower_parameter_pole(ell):
    # beta = (1 - d) q^(-k) with |d| = |1 - beta q^k| in [1e-4, 1e-2] for some k <= 5: the
    # terms from k + 1 on carry 1/(1 - beta q^k).  Its double rounding, about eps |beta q^k|,
    # reaches every such term magnified by cond = |beta q^k / (1 - beta q^k)| (about 1/|d|),
    # which no double evaluation avoids (measured: up to 1.3 eps cond), so the magnitude
    # the bound scales with is sum |t_k| times 1 + cond
    rng = random.Random(f"m_weighted-pole:{ell}")
    cases = []
    for _ in range(10):
        q2 = rng.uniform(0.3, 0.7) ** 2
        k = rng.randrange(6)
        d = cmath.rect(10 ** rng.uniform(-4, -2), rng.uniform(-math.pi, math.pi))
        beta = (1 - d) / q2**k
        alphas = [_cring(rng, 0.1, 1.5)]
        z = _cring(rng, 0.1, 2.0)
        value = m_weighted(alphas, [beta], QParam(q2), ell, z, TR)
        exact, absum = _m_weighted(alphas, [beta], q2, ell, z)
        pole = mp.mpc(beta) * mp.mpf(q2) ** k
        cond = abs(pole) / abs(1 - pole)
        assert 50 < cond < 2e4
        cases.append(((q2, k, d, alphas, z), value, exact, absum * (1 + cond)))
    _check_spread(cases)  # every spread is at least 1 + cond > 50, so none counts as relative


def _airy_mult_rhs(a, b, q):
    """Direct sum of (b;q)_k q^(k(k+1)/2) a^k A_q(a q^k)/(q;q)_k, each A_q summed directly."""
    a, b, q = mp.mpc(a), mp.mpc(b), mp.mpf(q)

    def airy(w):
        return _direct(lambda n: q ** (n * n) * (-w) ** n / mp.qp(q, q, n), 0)[0]

    return _direct(lambda k: mp.qp(b, q, k) * q ** (k * (k + 1) / 2) * a**k
                   * airy(a * q**k) / mp.qp(q, q, k), 0)


def test_airy_mult_expansion_matches_direct_sum():
    # m_expansion with A_q as the inner function, through the registry side itself
    rhs = get_identity("airy_mult").rhs
    cases = []
    for i in range(8):
        p = sample_params("airy_mult", 2024, i)
        exact, absum = _airy_mult_rhs(p["a"], p["b"], p["q"])
        cases.append((p, rhs(p, TR), exact, absum))
    assert _check_spread(cases) >= 4


# --- the native q-Bessel series ------------------------------------------------------

def _native_bessel(nu, u, q, power):
    """Direct sum of (q^(nu+1);q)_inf/(q;q)_inf sum_k q^power(k, nu) (-u)^k / ((q;q)_k (q^(nu+1);q)_k).

    Returns (sum, sum |t_k|).  The denominators are extended as the sum asks for k, since
    J^(1) at |u| near 1 needs well over a thousand terms.
    """
    nu, u, q = mp.mpc(nu), mp.mpc(u), mp.mpf(q)
    b = q ** (nu + 1)
    den = [mp.mpc(1)]  # (q;q)_k (q^(nu+1);q)_k

    def term(k):
        while len(den) <= k:
            j = len(den)
            den.append(den[-1] * (1 - q**j) * (1 - b * q ** (j - 1)))
        return q ** power(k, nu) * (-u) ** k / den[k]

    pref = mp.qp(b, q) / mp.qp(q, q)
    total, absum = _direct(term, 0)
    return pref * total, abs(pref) * absum


# (function, q^power(k, nu) of its defining series, sampler of (nu, u, q)) over the ranges the
# FOURIER and SERIES sides feed them: J^(1) inside the disk |u| < 1 with complex orders, the
# entire J^(2) and J^(3) at the orders nu + k and arguments |u| <= 2 of the SERIES expansions
NATIVE = {
    "bessel1_normalized": (
        bessel1_normalized, lambda k, nu: 0,
        lambda r: (complex(r.uniform(0.2, 1.5), r.uniform(-1, 1)), _cring(r, 0.02, 0.95),
                   r.uniform(0.3, 0.7))),
    "bessel2_normalized_native": (
        bessel2_normalized_native, lambda k, nu: k * (k + nu),
        lambda r: (r.uniform(0.2, 1.5) + r.randint(0, 12), _cring(r, 0.02, 2.0),
                   r.uniform(0.35, 0.7))),
    "bessel3_normalized_native": (
        bessel3_normalized_native, lambda k, nu: k * (k + 1) / 2,
        lambda r: (r.uniform(0.2, 1.5) + r.randint(0, 12), _cring(r, 0.02, 2.0),
                   r.uniform(0.35, 0.7))),
}


@pytest.mark.parametrize("name", sorted(NATIVE))
def test_native_bessel_match_direct_sums(name):
    f, power, draw = NATIVE[name]
    rng = random.Random(name)
    cases = []
    for _ in range(8):
        nu, u, qv = draw(rng)
        exact, absum = _native_bessel(nu, u, qv, power)
        cases.append(((nu, u, qv), f(nu, u, QParam(qv), TR), exact, absum))
    # measured worst 7.3e-16 of sum |t_k|; 5, 8 and 6 of the 8 points are checked relative
    assert _check_spread(cases) >= 4
