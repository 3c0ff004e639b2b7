"""Foundational q-arithmetic.

q-shifted factorials (finite, infinite, negative index, multi-argument),
q-binomial coefficients, the q-gamma function, the four Jacobi theta
functions and the partial theta function.

Every series sums through :func:`_certified_sum`.  The q^(l k^2)-weighted
shape has one term walker with one tail bound, :func:`_m_terms`, and
:func:`_bilateral` sums a bilateral series of that shape as two of its
walks, the wing k < 0 reflected to one in j = -k.  The partial theta
function is the case l = 1 of :func:`_m_terms` with the upper parameter q,
the theta series routes that of :func:`_bilateral` without parameters, and
``series`` builds its weighted and bilateral series on both.

All functions take the base through a :class:`QParam` and control every
infinite sum/product through a :class:`Truncation`.  Complex values are
plain Python ``complex``; any non-finite result raises
:class:`~qkit.errors.NumericOverflowError` instead of propagating NaN.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field

from .errors import ConvergenceError, DomainError, NumericOverflowError, PoleError, TruncationError

__all__ = [
    "QParam",
    "Truncation",
    "DEFAULT_TRUNCATION",
    "ensure_finite",
    "qpoch_finite",
    "qpoch_inf",
    "qpoch_multi",
    "qbinom",
    "qgamma",
    "theta4",
    "theta3",
    "theta2",
    "partial_theta",
]


@dataclass(frozen=True)
class QParam:
    """Validated base q in (0,1) with cached log and theta modulus.

    The theta modulus tau is defined through q = exp(i*pi*tau); for real
    q in (0,1) it is purely imaginary with positive imaginary part.
    """

    q: float
    ln_q: float = field(init=False)
    tau: complex = field(init=False)

    def __post_init__(self):
        q = self.q
        if not (isinstance(q, (int, float)) and 0.0 < q < 1.0):
            raise DomainError(f"q must be a real number strictly inside (0,1), got {q!r}")
        object.__setattr__(self, "q", float(q))
        object.__setattr__(self, "ln_q", math.log(q))
        object.__setattr__(self, "tau", complex(0.0, -math.log(q) / math.pi))

    @property
    def log_inv(self) -> float:
        """ln(1/q) > 0, the natural decay scale of q-series."""
        return -self.ln_q

    def power(self, e) -> complex:
        """q**e for arbitrary complex exponent, via exp(e*ln q).

        Raises NumericOverflowError where the value leaves the double range.
        """
        try:
            if isinstance(e, (int, float)):
                return complex(math.exp(e * self.ln_q))
            return cmath.exp(e * self.ln_q)
        except OverflowError:
            raise NumericOverflowError(f"q^e overflows at q = {self.q}, e = {e}") from None


@dataclass(frozen=True)
class Truncation:
    """Tolerance and budget for every truncated sum/product.

    Series stop once a proven bound on their discarded tail falls below
    tol relative to the partial sum.  Infinite products do not read tol:
    they are accurate to the double floor (see :func:`qpoch_inf`), and
    max_terms caps only their leading factors.
    """

    tol: float = 1e-13
    max_terms: int = 10000

    def __post_init__(self):
        if self.tol < 1e-15:
            raise DomainError(f"tol must be >= 1e-15, got {self.tol}")
        if self.max_terms < 8:
            raise DomainError(f"max_terms must be >= 8, got {self.max_terms}")


DEFAULT_TRUNCATION = Truncation()


def ensure_finite(value: complex, context: str = "") -> complex:
    """Return value unchanged, raising NumericOverflowError if non-finite."""
    if not isinstance(value, (complex, float)) or cmath.isfinite(value):
        return value
    raise NumericOverflowError(f"non-finite value {value!r}" + (f" in {context}" if context else ""))


def geometric_tail(mag: float, r: float) -> float:
    """Bound mag*r/(1-r) on sum_{j>k} |t_j| when |t_j| <= m_j, m_k = mag and m_(j+1) <= r m_j.

    The majorant m_j may be |t_j| itself.  A ratio bound that is unknown
    (NaN) or not below 1 gives inf.
    """
    if not 0.0 <= r < 1.0:
        return math.inf
    return mag * r / (1.0 - r)


def _certified_sum(terms, tr: Truncation, context: str) -> complex:
    """Sum the (t_k, tail_k) pairs of a term generator, tail_k >= sum_{j>k} |t_j|.

    Stops once tail_k <= tr.tol * max(|S_k|, 1e-16 * peak, 1e-300), where
    peak is the largest |t_j| so far: a sum that cancels far below its
    terms is certified to double resolution of the largest term instead of
    chasing a relative target it cannot represent.  A generator that runs
    out (a terminating series) gives its exact sum.
    """
    terms = iter(terms)
    tol = tr.tol
    total = 0.0 + 0.0j
    peak = 0.0
    floor = tol * 1e-300  # tol * max(1e-16 * peak, 1e-300)
    for term, tail in itertools.islice(terms, tr.max_terms):
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
            floor = tol * max(1e-16 * peak, 1e-300)
        if tail <= tol * abs(total) or tail <= floor:
            return ensure_finite(total, context)
    if next(terms, None) is not None:
        raise TruncationError(
            f"{context} series tail bound {tail:.3e} still above tol {tr.tol:.3e} "
            f"after {tr.max_terms} terms",
            achieved_bound=tail,
        )
    return ensure_finite(total, context)


def _walk(alphas, betas, q: QParam, ell: float, z):
    """Yield (c_k, tail_k) for k = 0, 1, ...: the terms of a q^(l k^2)-weighted series and their tails.

    c_k = prod(alpha;q)_k q^(l k(k-1)) (-z)^k / [(q;q)_k prod(beta;q)_k] is built by its
    term ratio, whose weight q^(2 l k) is a power of the running q^k: a constant step
    factor would miss q^(2 l) by a rounding that compounds in c_k as k^2.  For l >= 0,
    tail_k >= sum_(j>k) |c_j|.  An upper parameter q cancels (q;q)_k, in the ratio and in
    its bound, which gives the theta series: left in, it would hold the bound at inf until
    2 q^(k+1) < 1.
    """
    qq = q.q
    if qq in alphas:
        alphas = list(alphas)
        alphas.remove(qq)
        q_low = 0.0
    else:
        q_low = qq  # the q of (q;q)_k
    mz = -complex(z)
    az = abs(mz)
    c = sum(abs(a) for a in (*alphas, *betas)) + q_low
    two_l = 2.0 * ell
    term = 1.0 + 0.0j
    qk = 1.0
    # for every i >= k:
    # |t_(i+1)/t_i| <= |z| q^(2lk) prod(1 + |alpha| q^k) / [(1 - q^(k+1)) prod(1 - |beta| q^k)]
    while True:
        cx = c * qk
        weight = qk ** two_l
        yield term, geometric_tail(abs(term), az * weight / (1.0 - cx) if cx < 1.0 else math.inf)
        ratio = mz * weight
        for a in alphas:
            ratio *= 1.0 - a * qk
        den = 1.0 - q_low * qk
        for b in betas:
            den *= 1.0 - b * qk
        if abs(den) < 1e-290:
            raise PoleError("lower parameter pole in weighted series")
        term *= ratio / den
        qk *= qq


def _m_terms(alphas, betas, q: QParam, ell: float, z):
    """The (c_k, tail_k) stream of :func:`_walk`, ended where :func:`_lattice_end` ends it.

    A series that ends at term m has tail_m = 0 and yields (0, 0) after it, so a finished
    wing of :func:`_bilateral` adds nothing; at l < 0 its tails before term m are inf.  A
    series without end raises ``DomainError`` at l < 0 and ``ConvergenceError`` at l = 0
    with |z| >= 1, where it diverges.
    """
    end = _lattice_end(alphas, betas, q)
    walk = _walk(alphas, betas, q, ell, z)
    if end is not None:
        head = itertools.islice(walk, end)
        if ell < 0:
            head = ((t, math.inf) for t, _ in head)
        last = ((t, 0.0) for t, _ in itertools.islice(walk, 1))
        return itertools.chain(head, last, itertools.repeat((0.0, 0.0)))
    if ell < 0:
        raise DomainError(f"divergent series: weight {ell} < 0 and no upper parameter q^(-m)")
    if ell == 0 and abs(z) >= 1.0:
        raise ConvergenceError(f"series needs |z| < 1, got |z| = {abs(z)}")
    return walk


def _as_exact_negative_qpower(a, q: QParam):
    """If a is (numerically) q^(-m) for an integer 0 <= m <= 500, return m, else None."""
    mag = abs(a)
    if not 1.0 - 1e-12 <= mag < math.inf:  # nan fails every comparison
        return None
    m = round(math.log(mag) / q.log_inv)
    if m > 500:
        return None
    if abs(a * q.power(m) - 1.0) < 1e-9:
        return m
    return None


def _lattice_end(upper, lower, q: QParam, end=None):
    """Return the last term of a series: end, or the least upper parameter q^(-m) below it.

    None means no end.  A lower parameter q^(-n) with n below the end is a pole of every
    term after term n and raises ``PoleError``.  Both are recognised by value, since a
    double q^(-m) makes 1 - a q^m round to a few ulps rather than to 0.
    """
    for a in upper:
        m = _as_exact_negative_qpower(a, q)
        if m is not None and (end is None or m < end):
            end = m
    for b in lower:
        n = _as_exact_negative_qpower(b, q)
        if n is not None and (end is None or n < end):
            raise PoleError(f"lower parameter equals q^(-{n}): a pole of every term after term {n}")
    return end


def _bilateral(upper, lower, q: QParam, ell: float, z):
    """Yield the (t, tail) stream of sum_(k in Z) prod(a;q)_k q^(l k(k-1)) (-z)^k / prod(b;q)_k.

    Both wings are :func:`_m_terms` walks.  The wing k >= 0 takes an extra upper parameter
    q, which cancels its (q;q)_k.  The wing k = -j <= -1 is reflected by
    (a;q)_(-j) = (-q/a)^j q^(j(j-1)/2) / (q/a;q)_j (Gasper & Rahman, section 1.2): upper
    q/b and q, lower q/a, weight l + d/2 and argument (-q)^d q^(2l) prod(b) / (prod(a) z),
    where d = #upper - #lower and a lower 0, (0;q)_k = 1, is left out; the walks end a
    wing at a lower q^(m+1) and raise at an upper q^(m+1) or l + d/2 < 0.  Each step extends
    the wing whose tail bound is larger, so the sum is certified as a whole without summing
    the faster wing far past need; the tail of the whole is the sum of the two wings' tails.
    """
    z = complex(z)
    lower = [b for b in lower if b != 0]
    if z == 0 or 0 in upper:
        raise DomainError("bilateral series needs z != 0 and nonzero upper parameters")
    d = len(upper) - len(lower)
    qq = q.q
    neg_z = (-qq) ** d * qq ** (2.0 * ell) * math.prod(lower) / (math.prod(upper) * z)
    pos = _m_terms((*upper, qq), lower, q, ell, z)
    neg = _m_terms((*(qq / b for b in lower), qq), [qq / a for a in upper], q, ell + d / 2, neg_z)
    next(neg)  # the k = 0 term, 1, is pos's
    p, pos_tail = next(pos)
    n, neg_tail = next(neg)
    yield p + n, pos_tail + neg_tail
    while True:
        if pos_tail >= neg_tail:
            p, pos_tail = next(pos)
            yield p, pos_tail + neg_tail
        else:
            n, neg_tail = next(neg)
            yield n, pos_tail + neg_tail


def qpoch_finite(a, q: QParam, n: int) -> complex:
    """q-shifted factorial (a;q)_n for any integer n.

    For n >= 0 this is the product prod_{k=0}^{n-1} (1 - a q^k); for
    n = -m it is 1/(a q^{-m};q)_m, i.e. prod_{j=1}^{m} 1/(1 - a q^{-j}).
    """
    if n == 0:
        return 1.0 + 0.0j
    a = complex(a)
    qq = q.q
    if n > 0:
        prod = 1.0 + 0.0j
        aq = a
        for _ in range(n):
            prod *= 1.0 - aq
            aq *= qq
        return ensure_finite(prod, "qpoch_finite")
    m = -n
    _lattice_end((), (a * q.power(n),), q, m)
    prod = 1.0 + 0.0j
    for j in range(1, m + 1):
        aq = a * q.power(-j)
        factor = 1.0 - aq
        if abs(factor) < 1e-290:
            raise PoleError(f"(a;q)_{n} has a zero factor 1 - a*q^(-{j}) (a = q^{j})")
        prod /= factor
    return ensure_finite(prod, "qpoch_finite")


def qpoch_inf(a, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Infinite q-shifted factorial (a;q)_inf = prod_{k>=0}(1 - a q^k), to the double floor.

    The leading factors 1 - a q^k are multiplied out while |a q^k| > s =
    (1-q)/8; at most tr.max_terms of them are allowed.  The rest, (w;q)_inf
    with w = a q^N and |w| <= s, is Euler's series
    sum_k (-1)^k q^(k(k-1)/2) w^k / (q;q)_k (Gasper & Rahman, (1.3.16)),
    cut at a degree fixed per q so that the dropped terms stay below 2^-56
    of |(w;q)_inf| and evaluated by Horner's rule.  tr.tol is not read: the
    truncation error is below the rounding of the result whatever the
    tolerance.

    (q;q)_inf itself, the normalisation of q-gamma and the q-Bessel
    functions, is computed once per (q, max_terms) and then looked up.
    """
    a = complex(a)
    if a == q.q:
        return _qfac_inf(q.q, tr.max_terms)
    return _qpoch_inf(a, q, tr)


@functools.lru_cache(maxsize=256)
def _qfac_inf(q: float, max_terms: int) -> complex:
    """(q;q)_inf by the product of :func:`qpoch_inf`; an exception is raised, not kept."""
    return _qpoch_inf(complex(q), QParam(q), Truncation(max_terms=max_terms))


@functools.lru_cache(maxsize=256)
def _euler_tail(q: float) -> tuple:
    """(s, (c_K, ..., c_0)): Euler's coefficients of (w;q)_inf for |w| <= s = (1-q)/8.

    c_k = (-1)^k q^(k(k-1)/2) / (q;q)_k, each rounded once from its exact
    value: with q = n/d, c_k = c_(k-1) (-n^(k-1) d) / (d^k - n^k) in
    integers.  For |w| <= s the term ratio |c_(k+1) w^(k+1)| / |c_k w^k|
    is at most q^k/8 and |(w;q)_inf| >= 1 - s/(1-q) = 7/8, so the terms
    after c_K w^K sum to at most (8/7)^2 |c_(K+1)| s^(K+1) relative to the
    product; K is the least degree that puts this below 2^-56.
    """
    s = (1.0 - q) / 8.0
    n, d = q.as_integer_ratio()
    num, den = 1, 1
    coeffs = [1.0]
    for k in itertools.count(1):
        num *= -(n ** (k - 1)) * d
        den *= d**k - n**k
        c = num / den
        if (64.0 / 49.0) * abs(c) * s**k <= 2.0**-56:
            return s, tuple(reversed(coeffs))
        coeffs.append(c)


def _qpoch_inf(a: complex, q: QParam, tr: Truncation) -> complex:
    qq = q.q
    s, coeffs = _euler_tail(qq)
    mag = abs(a)
    if not mag < math.inf:  # nan fails every comparison, so it is caught here
        raise TruncationError(f"(a;q)_inf of a non-finite a = {a!r}", achieved_bound=math.inf)
    a0 = a
    prod = 1.0 + 0.0j
    for _ in range(tr.max_terms):
        if mag <= s:
            break
        prod *= 1.0 - a
        a *= qq
        mag = abs(a)
    if mag > s:
        t = mag / (1.0 - qq)  # |(a;q)_inf - 1| <= exp(t) - 1
        raise TruncationError(
            f"(a;q)_inf still has a factor 1 - w, |w| = {mag:.3e} > {s:.3e}, "
            f"after {tr.max_terms} factors",
            achieved_bound=math.expm1(t) if t < 700.0 else math.inf,
        )
    tail = 0.0
    for c in coeffs:
        tail = tail * a + c
    val = prod * tail
    if cmath.isfinite(val):
        return val
    return _rescaled_product(a0, qq, s, tail)


def _rescaled_product(a: complex, qq: float, s: float, tail: complex) -> complex:
    """The leading product of :func:`_qpoch_inf` again, times tail, with a power of two carried apart.

    A partial product may overflow although the product is finite: it rises
    while |1 - a q^k| > 1, then falls.  Scaling by 2^e is exact, so the
    digits are those of the plain loop in a wider exponent range.
    """
    prod, e = 1.0 + 0.0j, 0
    while abs(a) > s:
        m, f = _split(1.0 - a)
        prod, g = _split(prod * m)
        e += f + g
        a *= qq
    val = prod * tail
    try:
        return complex(math.ldexp(val.real, e), math.ldexp(val.imag, e))
    except OverflowError:
        raise NumericOverflowError(f"(a;q)_inf overflows: {val!r} * 2^{e}") from None


def _split(z: complex) -> tuple:
    """(m, e) with z = m 2^e exactly and the larger part of m in [0.5, 1)."""
    e = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)), e


def qpoch_multi(avals, q: QParam, n=None, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Multi-argument Pochhammer (a_1,...,a_m;q)_n; n=None means infinity."""
    prod = 1.0 + 0.0j
    for a in avals:
        if n is None:
            prod *= qpoch_inf(a, q, tr)
        else:
            prod *= qpoch_finite(a, q, n)
    return ensure_finite(prod, "qpoch_multi")


def qbinom(n: int, k: int, q: QParam) -> complex:
    """Gaussian binomial coefficient [n choose k]_q; zero outside 0<=k<=n."""
    if n < 0:
        raise DomainError(f"qbinom requires n >= 0, got n = {n}")
    if k < 0 or k > n:
        return 0.0 + 0.0j
    num = qpoch_finite(q.q, q, n)
    den = qpoch_finite(q.q, q, k) * qpoch_finite(q.q, q, n - k)
    return num / den


def qgamma(x, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """q-gamma function (1-q)^(1-x) (q;q)_inf / (q^x;q)_inf.

    Poles at x = 0, -1, -2, ... where (q^x;q)_inf vanishes.
    """
    x = complex(x)
    qx = q.power(x)
    # (q^x;q)_inf vanishes iff q^x = q^{-m}: check the nearest candidate.
    if abs(qx) >= 1.0 - 1e-12:
        m = round(-x.real)
        if m >= 0 and abs(qx * q.power(m) - 1.0) < 1e-12:
            raise PoleError(f"q-gamma pole at x = {-m}")
    den = qpoch_inf(qx, q, tr)
    if abs(den) < 1e-280:
        raise PoleError(f"q-gamma pole: (q^x;q)_inf vanished at x = {x}")
    one_minus_q = 1.0 - q.q
    prefactor = cmath.exp((1.0 - x) * math.log(one_minus_q))
    return ensure_finite(prefactor * qpoch_inf(q.q, q, tr) / den, "qgamma")


def theta4(z, q: QParam, tr: Truncation = DEFAULT_TRUNCATION, route: str = "product") -> complex:
    """Theta function sum_{n in Z} q^(n^2) (-z)^n = (q^2, qz, q/z; q^2)_inf.

    route='series' sums the wings n >= 0 and n <= -1 together; the default
    'product' route uses the triple-product form.  z must be nonzero.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("theta4 needs z != 0 (Laurent series in z)")
    if route == "product":
        q2 = QParam(q.q * q.q)
        return qpoch_multi([q.q * q.q, q.q * z, q.q / z], q2, None, tr)
    if route != "series":
        raise DomainError(f"unknown theta4 route {route!r}")
    # q^(n^2) (-z)^n = q^(n(n-1)) (-q z)^n
    return _certified_sum(_bilateral((), (), q, 1.0, q.q * z), tr, "theta4")


def theta3(v, q: QParam, tr: Truncation = DEFAULT_TRUNCATION, route: str = "product") -> complex:
    """Theta_3(v|tau) = sum q^(k^2) e^(2k pi i v) with q = exp(i pi tau).

    Product form (q^2, -q e^(2 pi i v), -q e^(-2 pi i v); q^2)_inf.
    """
    w = cmath.exp(2j * math.pi * complex(v))
    if route == "product":
        q2 = QParam(q.q * q.q)
        return qpoch_multi([q.q * q.q, -q.q * w, -q.q / w], q2, None, tr)
    return theta4(-w, q, tr, route="series")


def theta2(v, q: QParam, tr: Truncation = DEFAULT_TRUNCATION, route: str = "product") -> complex:
    """Theta_2(v|tau) = sum q^((k+1/2)^2) e^((2k+1) pi i v).

    Product form 2 q^(1/4) cos(pi v) (q^2, -q^2 e^(2 pi i v), -q^2 e^(-2 pi i v); q^2)_inf.
    """
    v = complex(v)
    w = cmath.exp(2j * math.pi * v)
    if route == "product":
        q2 = QParam(q.q * q.q)
        pref = 2.0 * q.power(0.25) * cmath.cos(math.pi * v)
        return pref * qpoch_multi([q.q * q.q, -q.q * q.q * w, -q.q * q.q / w], q2, None, tr)
    # q^((k+1/2)^2) e^((2k+1) pi i v) = q^(1/4) e^(pi i v) q^(k^2) (q w)^k
    return q.power(0.25) * cmath.exp(1j * math.pi * v) * theta4(-q.q * w, q, tr, route="series")


def partial_theta(v, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """One-sided theta sum omega(v;q) = sum_{n>=0} q^(n^2) v^n (entire)."""
    return _certified_sum(_m_terms((q.q,), (), q, 1.0, -q.q * complex(v)), tr, "partial_theta")
