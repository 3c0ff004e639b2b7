"""Hypergeometric engines and named q-transcendental functions.

Implements the unilateral r_phi_s series (with the standard extra
(-1)^k q^(k choose 2) powers when the lower parameter list is longer),
the bilateral m_psi_m series, the q^(l k^2)-weighted series, the three
q-exponentials e_q, E_q and the two-variable cal-E, the Ramanujan
function A_q, Jackson's three q-Bessel functions and the modified I^(k).

The weighted series share two term generators, each with one tail bound:
``core._m_terms`` (weight q^(l k(k-1)): the q^(l k^2)-weighted series,
r_phi_s at l = (1+s-r)/2, J^(1) at l = 0, and the native J^(2) and J^(3);
the bilateral m_psi_m and weighted sums, like the theta series of
``core``, sum both wings as two of its walks through ``core._bilateral``,
and the shifted route of cal-E its even and odd terms as two walks at
l = 0 in base q^2, merged by ``core._merged`` as those wings are)
and ``_m_damped`` (Gaussian weight q^(l (n+s)^2), at l = 1/2 optionally
times (b0 q^(s+n);q)_inf: the shifted A_q, the damped J^(2) and J^(3) and
the product-weighted 1phi1 of :func:`confluent_phi_weighted`).
``_m_terms`` carries its weight in the term ratio, which keeps the terms
finite at large |z|; ``_m_damped`` takes each weight afresh, as one
exponential or from ``_poch_gauss_ladder``, since a running weight would
stay 0 after it underflows at a large negative shift s while the terms
near n = -s are of ordinary size.  e_q and the continued J^(1) divide by
``core._qpoch_inf_divisor``, which owns the pole rule of 1/(a;q)_inf.
"""

from __future__ import annotations

import cmath
import itertools
import math

from .core import (
    DEFAULT_TRUNCATION,
    QParam,
    Truncation,
    _bilateral,
    _certified_sum,
    _exp_bound,
    _m_terms,
    _merged,
    _qpoch_inf_divisor,
    ensure_finite,
    geometric_tail,
    qpoch_inf,
)
from .errors import ConvergenceError, DomainError, NumericOverflowError, TruncationError

__all__ = [
    "phi",
    "psi_bilateral",
    "m_weighted",
    "m_weighted_bilateral",
    "m_expansion",
    "q_exp_small",
    "q_exp_big",
    "ramanujan_a",
    "cal_e",
    "jackson_bessel",
    "modified_bessel_i",
]


def phi(upper, lower, q: QParam, z, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Evaluate the unilateral series r_phi_s.

    upper = (a_1..a_r), lower = (b_1..b_s), base q, argument z.  Term k is
    prod(a_i;q)_k / [(q;q)_k prod(b_j;q)_k] * ((-1)^k q^(k(k-1)/2))^(1+s-r) * z^k,
    the term of :func:`_m_terms` at l = (1+s-r)/2, which also ends a terminating
    series (an upper parameter q^(-m)) at k = m and raises at a lower parameter
    q^(-n) with n < m or without end.
    """
    excess = 1 + len(lower) - len(upper)
    # the extra factor ((-1)^k q^(k(k-1)/2))^e is the weight of _m_terms at l = e/2
    # times (-1)^(e k), which goes into its argument -z
    terms = _m_terms(tuple(map(complex, upper)), tuple(map(complex, lower)), q, excess / 2,
                     -(-1) ** excess * complex(z))
    return _certified_sum(terms, tr, "phi")


def psi_bilateral(upper, lower, q: QParam, z, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Evaluate the bilateral series m_psi_m, both wings through ``core._bilateral``.

    upper and lower hold equally many parameters, and z must lie strictly
    inside the convergence annulus |b_1...b_m/(a_1...a_m)| < |z| < 1.
    """
    upper = tuple(complex(a) for a in upper)
    lower = tuple(complex(b) for b in lower)
    z = complex(z)
    if len(upper) != len(lower):
        raise DomainError("bilateral series needs equally long parameter lists")
    upper_prod = math.prod(map(abs, upper))
    inner = math.prod(map(abs, lower)) / upper_prod if upper_prod else math.inf
    az = abs(z)
    if not inner < az < 1.0:
        raise ConvergenceError(
            f"|z| = {az:.6g} outside convergence annulus ({inner:.6g}, 1)"
        )
    return _certified_sum(_bilateral(upper, lower, q, 0.0, -z), tr, "psi_bilateral")


def _m_damped(alphas, q: QParam, ell: float, z, shift: float, b0=0,
              tr: Truncation = DEFAULT_TRUNCATION):
    """Yield (c_n, tail_n): the :func:`_m_terms` terms under the Gaussian weight q^(l (n+s)^2).

    The terms have no lower parameters of their own.  Each weight is one math.exp of its
    exponent, so it regrows after underflowing at a negative shift s.  A nonzero b0 multiplies
    term n by the lower product (b0 q^(s+n);q)_inf; its weight is then poch_gauss(b0, s + n) from
    ``_poch_gauss_ladder``, whose Gaussian is the one of l = 1/2.
    """
    qq, lw = q.q, ell * q.ln_q
    mz = -complex(z)
    az = abs(mz)
    c = sum(abs(a) for a in alphas) + qq
    ladder = None
    if b0:
        c += abs(b0) * _exp_bound(shift * q.ln_q)
        ladder = _poch_gauss_ladder(b0, shift, q, tr)
    term = 1.0 + 0.0j  # prod(alpha;q)_n (-z)^n / (q;q)_n
    qn = 1.0  # q^n
    # for every i >= n, with x = q^n:
    # |t_(i+1)/t_i| <= |z| q^(l(2n+2s+1)) prod(1 + |alpha| x) / ((1 - q x)(1 - |b0| q^s x)),
    # and prod(1 + |alpha| x) <= exp(x sum|alpha|) <= 1/(1 - x sum|alpha|) while
    # (1 - q x)(1 - |b0| q^s x) >= 1 - (q + |b0| q^s) x, so the product of the two
    # reciprocals is at most 1/(1 - c x), c = sum|alpha| + q + |b0| q^s.  The bound is taken
    # only where c x < 1, so there no lower factor 1 - b0 q^(s+i) of the ratio vanishes
    for n in itertools.count():
        piece = term * (next(ladder) if ladder else math.exp((n + shift) ** 2 * lw))
        cx = c * qn
        r = (az * _exp_bound(ell * (2 * n + 2 * shift + 1) * q.ln_q) / (1.0 - cx)
             if cx < 1.0 else math.inf)
        yield piece, geometric_tail(abs(piece), r)
        ratio = mz
        for a in alphas:
            ratio *= 1.0 - a * qn
        term *= ratio / (1.0 - qq * qn)
        qn *= qq


def _weighted_args(alphas, betas, q: QParam, ell, z):
    """The :func:`_m_terms` arguments of the series of :func:`m_weighted`, ell > 0.

    q^(l k^2) (-z)^k = q^(l k(k-1)) (-z q^l)^k.
    """
    if not ell > 0:
        raise DomainError(f"weight ell must be positive, got {ell}")
    ell = float(ell)
    return (tuple(complex(a) for a in alphas), tuple(complex(b) for b in betas), q,
            ell, complex(z) * q.power(ell).real)


def m_weighted(alphas, betas, q: QParam, ell, z, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Evaluate sum_k prod(alpha;q)_k q^(l k^2) (-z)^k / [(q;q)_k prod(beta;q)_k], l > 0."""
    return _certified_sum(_m_terms(*_weighted_args(alphas, betas, q, ell, z)), tr, "m_weighted")


def m_weighted_bilateral(alphas, betas, q: QParam, ell, z,
                         tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Evaluate sum_(k in Z) prod(alpha;q)_k q^(l k^2) (-z)^k / prod(beta;q)_k, l > 0.

    Both wings are summed and certified together by ``core._bilateral``; the alphas and z
    must be nonzero.
    """
    return _certified_sum(_bilateral(*_weighted_args(alphas, betas, q, ell, z)), tr,
                          "m_weighted_bilateral")


def m_expansion(alphas, betas, q: QParam, ell, z, inner, bound,
                tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """sum_k c_k F_k over the terms c_k of :func:`m_weighted`.

    inner(k) returns F_k, typically a q-function at an argument or order
    that moves with k.  bound(k) is a closed-form majorant of |F_j| for
    every j >= k; it must never be taken from a computed F_j, so that a
    term that happens to be small (a zero of F) cannot stop the sum.  The
    tail after term k is then at most bound(k) sum_(j>k) |c_j|.
    """
    terms = ((c * inner(k), bound(k) * tail)
             for k, (c, tail) in enumerate(_m_terms(*_weighted_args(alphas, betas, q, ell, z))))
    return _certified_sum(terms, tr, "m_expansion")


def q_exp_small(z, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """e_q(z) = 1/(z;q)_inf, meromorphic with poles at z = q^(-m).

    Computed as the reciprocal infinite product, which stays valid well
    beyond |z| < 1 (where the defining power series converges).
    """
    return 1.0 / _qpoch_inf_divisor(z, q, tr, "e_q")


def q_exp_big(z, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """E_q(z) = (-z;q)_inf, entire in z."""
    return qpoch_inf(-complex(z), q, tr)


def ramanujan_a(z, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Ramanujan function A_q(z) = sum_n q^(n^2) (-z)^n / (q;q)_n (entire)."""
    return ramanujan_a_shifted(z, 0.0, q, tr)


def cal_e(x, t, q: QParam, tr: Truncation = DEFAULT_TRUNCATION, route: str = "hermite") -> complex:
    """Two-variable q-exponential cal-E(x;t) for |t| < 1.

    route='hermite' sums q^(n^2/4) t^n H_n(x|q)/(q;q)_n and divides by
    (q t^2;q^2)_inf.  route='shifted' sums the equivalent form with the
    (t^2;q^2)_inf/(q t^2;q^2)_inf prefactor as two 2phi1 walks in base q^2;
    the two must agree and are cross-checked by the identity registry.
    """
    x = complex(x)
    t = complex(t)
    if abs(t) >= 1.0:
        raise DomainError(f"cal_e needs |t| < 1, got |t| = {abs(t)}")
    q2 = QParam(q.q * q.q)
    if route == "hermite":
        return ensure_finite(cal_e_raw(x, t, q, tr) / qpoch_inf(q.q * t * t, q2, tr), "cal_e")
    if route != "shifted":
        raise DomainError(f"unknown cal_e route {route!r}")
    if t == 0:
        return 1.0 + 0.0j
    qq, p = q.q, q2.q
    # Term n is q^(n^2/4) (-i t)^n Q_n/(q;q)_n with the shifted product pair
    # Q_n = prod_(e = e^(+-i theta)) (-i e q^((1-n)/2);q)_n, x = cos(theta).  With y = q^(m+1),
    # q^((m+2)^2/4) Q_(m+2) = -q^(m^2/4) Q_m ((1-y)^2 + 4x^2 y), so from t_0 = 1 and
    # t_1 = 2 x t q^(1/4)/(1-q), t_(m+2) = t_m t^2 (1 + r y)(1 + y/r) / ((1-y)(1-q y)), where
    # r + 1/r = 4x^2 - 2 (r = e^(2 i theta); the larger root is taken, without cancellation).
    # In base p = q^2 the even terms are 2phi1(-q r, -q/r; q; p, t^2) and the odd ones
    # t_1 2phi1(-p r, -p/r; q p; p, t^2): two walks, summed as one
    s = 4.0 * x * x - 2.0
    d = cmath.sqrt(s * s - 4.0)
    r = (s + d if abs(s + d) >= abs(s - d) else s - d) / 2.0
    t1 = 2.0 * x * t * q.power(0.25) / (1.0 - qq)
    at1 = abs(t1)
    even = _m_terms((-qq * r, -qq / r), (qq,), q2, 0.0, -t * t)
    odd = _m_terms((-p * r, -p / r), (qq * p,), q2, 0.0, -t * t)
    terms = _merged(even, ((t1 * c, at1 * tail) for c, tail in odd))
    pref = qpoch_inf(t * t, q2, tr) / qpoch_inf(q.q * t * t, q2, tr)
    return ensure_finite(pref * _certified_sum(terms, tr, "cal_e"), "cal_e")


def _principal_pow(base, expo) -> complex:
    """base**expo on the principal branch, |arg| < pi; 0**e = 0 for Re e > 0."""
    base = complex(base)
    expo = complex(expo)
    if base == 0:
        if expo.real > 0:
            return 0.0 + 0.0j
        if expo == 0:
            return 1.0 + 0.0j
        raise DomainError("0 raised to a power with nonpositive real part")
    return cmath.exp(expo * cmath.log(base))


def jackson_bessel(kind: int, nu, z, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Jackson q-Bessel function of the given kind (1, 2 or 3).

    Kind 1 uses its native series for |z| < 2 and the analytic
    continuation J2(z)/(-z^2/4;q)_inf otherwise; kinds 2 and 3 are
    entire.  Principal branch for (z/2)^nu.
    """
    nu = complex(nu)
    z = complex(z)
    if kind not in (1, 2, 3):
        raise DomainError(f"kind must be 1, 2 or 3, got {kind}")
    if z == 0:
        if nu == 0:
            return 1.0 + 0.0j
        if nu.real > 0:
            return 0.0 + 0.0j
        raise DomainError("q-Bessel at z = 0 needs Re nu >= 0")
    if kind == 1 and abs(z) >= 2.0:
        den = _qpoch_inf_divisor(-z * z / 4.0, q, tr, "kind-1 q-Bessel")
        return jackson_bessel(2, nu, z, q, tr) / den
    normalized = (bessel1_normalized, bessel2_normalized_native, bessel3_normalized_native)
    body = normalized[kind - 1](nu, z * z / 4.0, q, tr)
    return ensure_finite(_principal_pow(z / 2.0, nu) * body, "jackson_bessel")


def modified_bessel_i(kind: int, nu, z, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Modified q-Bessel I^(k)(z;q) = exp(-i pi nu/2) J^(k)(iz;q), k = 1 or 2."""
    if kind not in (1, 2):
        raise DomainError(f"modified kind must be 1 or 2, got {kind}")
    nu = complex(nu)
    return cmath.exp(-1j * math.pi * nu / 2.0) * jackson_bessel(kind, nu, 1j * complex(z), q, tr)


def ramanujan_a_shifted(z, shift, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Gaussian-damped Ramanujan function q^(shift^2) A_q(q^(2 shift) z).

    Computed as sum_n q^((n+shift)^2) (-z)^n/(q;q)_n, the damped series
    :func:`_m_damped` at l = 1, whose terms stay bounded by |z|^n for any
    real shift; the naive route overflows once the scaled argument
    q^(2 shift) z leaves the double range.
    """
    return _certified_sum(_m_damped((), q, 1.0, z, float(shift)), tr, "ramanujan_a_shifted")


def _leading_logs(w, beta: float, q: QParam, tr: Truncation):
    """(start, logs, wq) for the leading factors 1 - w q^(beta+j), |w q^(beta+j)| > 1/8.

    The J leading factors are those before |w q^(beta+j)| first drops to
    1/8 or below.  Factor start-1 is the last one that vanishes (start = 0
    if none does), logs holds log(1 - w q^(beta+j)) for start <= j < J,
    and wq = w q^(beta+J) starts the tail.
    """
    qq, max_terms = q.q, tr.max_terms
    start = 0
    logs = []
    j = 0
    wq = complex(w) * q.power(beta)  # w q^(beta+j)
    while abs(wq) > 0.125 and j < max_terms:
        factor = 1.0 - wq
        j += 1
        if abs(factor) < 1e-290:
            start = j
            logs.clear()
        else:
            logs.append(cmath.log(factor))
        wq *= qq
    if j >= max_terms:
        raise TruncationError("poch_gauss leading product did not shrink")
    return start, logs, wq


def poch_gauss(w, beta, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Gaussian-damped infinite product q^(beta^2/2) (w q^beta;q)_inf.

    The leading factors, those with |w q^(beta+j)| > 1/8, are accumulated
    as complex logarithms, summed from the last one back, together with the
    Gaussian exponent, so the value stays representable (and free of
    cancellation) even where the bare product overflows; a value beyond
    the double range raises NumericOverflowError.  It is the first value of
    ``_poch_gauss_ladder``, on which ``_m_damped`` walks
    poch_gauss(b0, s + n) for n = 0, 1, 2, ... as the weight of its lower
    product.
    """
    return next(_poch_gauss_ladder(w, float(beta), q, tr))


def _poch_gauss_ladder(w, beta: float, q: QParam, tr: Truncation):
    """Yield poch_gauss(w, beta + k) for k = 0, 1, 2, ... at O(1) cost per value.

    The J leading factors are logged once and the tail
    (w q^(beta+J);q)_inf is built once.  Value k < J is
    exp((beta+k)^2/2 ln q + sum_(k<=j<J) log(1 - w q^(beta+j))) times the
    tail, each suffix sum taken from the last logarithm back; a vanishing
    factor makes every value at or below it 0.  Beyond the threshold the
    tail loses one factor per step, T_(k+1) = T_k / (1 - w q^(beta+k))
    with a divisor of at least 7/8.  The exponent is taken afresh for each
    k, so a value that underflows does not zero the larger ones after it
    (beta < 0).
    """
    qq, ln_q = q.q, q.ln_q
    start, logs, wq = _leading_logs(w, beta, q, tr)
    for _ in range(start):
        yield 0.0 + 0.0j
    tail = qpoch_inf(wq, q, tr)
    # suffix[i] = sum of the last i+1 logs, so value k < J takes suffix[J-1-k]
    suffix = list(itertools.accumulate(reversed(logs)))
    lead = start + len(logs)
    for k in itertools.count(start):
        e = (beta + k) ** 2 / 2.0 * ln_q
        if k < lead:
            e += suffix[lead - 1 - k]
        elif k > lead:
            tail /= 1.0 - wq
            wq *= qq
        if e.real < -745.0:  # exp underflows
            yield 0.0 + 0.0j
            continue
        try:
            value = cmath.exp(e) * tail
        except OverflowError:
            raise NumericOverflowError(f"poch_gauss exponent {e.real:.1f} overflows") from None
        if not cmath.isfinite(value):
            raise NumericOverflowError(f"poch_gauss value {value!r} is not finite")
        yield value


def confluent_phi_weighted(a, b0, z0, beta, q: QParam,
                           tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """q^(beta^2/2) (b0 q^beta;q)_inf 1phi1(a; b0 q^beta; q, z0 q^(beta+1/2)).

    Distributing the infinite product over the series gives
    sum_k (a;q)_k (-z0)^k poch_gauss(b0, beta+k)/(q;q)_k, which stays
    bounded for any real beta and crosses the lower parameter's poles
    smoothly (the product zero cancels them).  It is :func:`_m_damped` at
    l = 1/2, shift beta and lower product b0; at b0 = 0 the product is 1
    and the weight is the bare Gaussian.
    """
    return _certified_sum(_m_damped((complex(a),), q, 0.5, z0, float(beta), b0, tr), tr,
                          "confluent_phi_weighted")


def cal_e_raw_shifted(x, t, shift, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Gaussian-damped bare q-Hermite sum q^(shift^2/4) * raw(x, t q^(shift/2)).

    Equals sum_n q^((n+shift)^2/4) t^n H_n(x|q)/(q;q)_n with bounded terms.
    """
    x2 = 2.0 * complex(x)
    t = complex(t)
    shift = float(shift)
    qq, ln_q = q.q, q.ln_q
    at = abs(t)
    rho = abs(x) + math.sqrt(abs(x) ** 2 + 1.0)

    # |H_(n+1)| <= 2|x| |H_n| + |H_(n-1)| gives |H_(n+j)| <= max(|H_n|, rho |H_(n-1)|) rho^j,
    # and the remaining ratio q^((2n+2 shift+1)/4) |t| / (1 - q^(n+1)) decreases in n
    def terms():
        hprev, hcur = 0.0 + 0.0j, 1.0 + 0.0j  # H_(n-1), H_n
        tn = 1.0 + 0.0j
        qfac = 1.0 + 0.0j
        qn = 1.0  # q^n
        for n in itertools.count():
            if n > 0:
                hprev, hcur = hcur, x2 * hcur - (1.0 - qn) * hprev
                tn *= t
                qn *= qq
                qfac *= 1.0 - qn
            weight = math.exp((n + shift) ** 2 / 4.0 * ln_q)
            major = weight * abs(tn) * max(abs(hcur), rho * abs(hprev)) / abs(qfac)
            r = rho * at * _exp_bound((2 * n + 2 * shift + 1) / 4.0 * ln_q) / (1.0 - qn * qq)
            yield weight * tn * hcur / qfac, geometric_tail(major, r)

    return _certified_sum(terms(), tr, "cal_e_raw_shifted")


def cal_e_raw(x, t, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Unnormalized two-variable q-exponential: the bare q-Hermite sum.

    Equals (q t^2;q^2)_inf * cal_e(x;t) and is entire in t, which makes it
    the right object inside transform integrands where t sweeps past the
    normalization's zeros.
    """
    return cal_e_raw_shifted(x, t, 0.0, q, tr)


def bessel1_normalized(nu, u, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """(2/z)^nu J1_nu(z;q) as a function of u = (z/2)^2, single-valued in u.

    Its series sum_k (-u)^k / [(q;q)_k (q^(nu+1);q)_k] is :func:`_m_terms` at l = 0.
    """
    b = q.power(complex(nu) + 1)
    body = _certified_sum(_m_terms((), (b,), q, 0.0, u), tr, "bessel1_normalized")
    return qpoch_inf(b, q, tr) / qpoch_inf(q.q, q, tr) * body


def bessel2_normalized(nu, u, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """(2/z)^nu J2_nu(z;q) as a function of u = (z/2)^2, entire in the order.

    Uses the expansion in q^(n(n+1)/2 + nu n), which has no
    (q^(nu+1);q)_inf prefactor and therefore stays meaningful when the
    order sweeps through negative integers (as it does inside transform
    integrands with complex-shifted orders).  It is the undamped case
    alpha = 0 of :func:`bessel2_normalized_gauss`.
    """
    return bessel2_normalized_gauss(nu, u, 0.0, q, tr)


def bessel2_normalized_native(nu, u, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """(2/z)^nu J2_nu(z;q) from the defining series, for orders away from poles.

    Its series sum_k q^(k^2) (-u q^nu)^k / [(q;q)_k (q^(nu+1);q)_k], with
    q^(k^2) = q^(k(k-1)) q^k, is :func:`_m_terms` at l = 1 and argument u q^(nu+1).
    """
    qnu = q.power(complex(nu))
    b = q.q * qnu
    body = _certified_sum(_m_terms((), (b,), q, 1.0, complex(u) * b), tr,
                          "bessel2_normalized_native")
    return qpoch_inf(b, q, tr) / qpoch_inf(q.q, q, tr) * body


def bessel2_normalized_gauss(nu, u, alpha, q: QParam,
                             tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Gaussian-damped normalized kind-2 function q^(alpha^2/2) N2(alpha+nu, u).

    Its series sum_n (-u;q)_n q^((alpha+n)^2/2) (-q^(nu+1/2))^n / (q;q)_n, divided by
    (q;q)_inf, is :func:`_m_damped` at l = 1/2 and shift alpha, so terms stay bounded for
    any real alpha.
    """
    z = q.power(complex(nu) + 0.5)
    body = _certified_sum(_m_damped((-complex(u),), q, 0.5, z, float(alpha)), tr,
                          "bessel2_normalized_gauss")
    return body / qpoch_inf(q.q, q, tr)


def bessel3_normalized_gauss(nu, z2, alpha, q: QParam,
                             tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Gaussian-damped kind-3 value q^(alpha^2/2) N3(alpha+nu, z2 q^alpha).

    Both the order and the argument carry the sweep variable; absorbing
    the weight term by term gives
    sum_n (-z2 q^(1/2))^n poch_gauss(q^(nu+1), alpha+n)/(q;q)_n, which is
    :func:`confluent_phi_weighted` with a = 0 divided by (q;q)_inf, with
    bounded terms whenever |z2| sqrt(q) < 1.
    """
    w = q.power(complex(nu) + 1)
    return (confluent_phi_weighted(0.0, w, complex(z2) * q.power(0.5), alpha, q, tr)
            / qpoch_inf(q.q, q, tr))


def bessel3_normalized(mu, u, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """(2/z)^mu J3_mu(z;q) as a function of u = (z/2)^2, entire in the order.

    Its series sum_n q^(n(n+1)/2) (-u)^n (q^(mu+n+1);q)_inf/(q;q)_n /(q;q)_inf
    is the undamped case alpha = 0 of :func:`bessel3_normalized_gauss`, since
    q^(n(n+1)/2) = q^(n/2) q^(n^2/2).
    """
    return bessel3_normalized_gauss(mu, u, 0.0, q, tr)


def bessel3_normalized_native(nu, u, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """(2/z)^nu J3_nu(z;q) from the defining series, for orders away from poles.

    Its series sum_k q^(k^2/2) (-u q^(1/2))^k / [(q;q)_k (q^(nu+1);q)_k], with
    q^(k^2/2) = q^(k(k-1)/2) q^(k/2), is :func:`_m_terms` at l = 1/2 and argument u q.
    """
    b = q.power(complex(nu) + 1)
    body = _certified_sum(_m_terms((), (b,), q, 0.5, complex(u) * q.q), tr,
                          "bessel3_normalized_native")
    return qpoch_inf(b, q, tr) / qpoch_inf(q.q, q, tr) * body
