"""Foundational q-arithmetic.

q-shifted factorials (finite, infinite, negative index, multi-argument),
q-binomial coefficients, the q-gamma function, the four Jacobi theta
functions and the partial theta function.

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

from .errors import (
    DomainError,
    NumericOverflowError,
    PoleError,
    TruncationError,
)

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

# Factors this close to zero are treated as exact poles/zeros.
_POLE_EPS = 1e-290


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

    Infinite products certify their discarded tail with the bound
    (|z|/(1-q))*exp(|z|/(1-q)), skipping the check on the factors that
    |z| >= tol (1-q) shows must fail it (see :func:`qpoch_inf`); series
    stop once a proven bound on their discarded tail falls below tol
    relative to the partial sum.
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


def _product_tail_bound(a_mag: float, q: float) -> float:
    """Bound for |prod_{k>=0}(1 - a q^k) - 1| with |a| = a_mag.

    Exponential form t*exp(t) with t = a_mag/(1-q); valid for all a.
    """
    t = a_mag / (1.0 - q)
    if t > 700.0:
        return math.inf
    return t * math.exp(t)


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
    prod = 1.0 + 0.0j
    for j in range(1, m + 1):
        aq = a * q.power(-j)
        factor = 1.0 - aq
        if abs(factor) < _POLE_EPS:
            raise PoleError(
                f"(a;q)_{n} has a zero factor 1 - a*q^(-{j}) (a = q^{j}); division by zero"
            )
        prod /= factor
    return ensure_finite(prod, "qpoch_finite")


def qpoch_inf(a, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Infinite q-shifted factorial (a;q)_inf = prod_{k>=0}(1 - a q^k).

    The partial product is extended until the discarded tail is
    certified below tr.tol by the exponential product bound t*exp(t),
    t = |a q^k|/(1-q).  That bound is at least t, so every factor with
    |a| q^k >= tol (1-q) fails the check: the number of such factors comes
    from one logarithm, and all but the last of them are multiplied in
    without it.  That held-back factor, a slack of 1e-12 in the logarithm
    and one of 1e-15 per factor absorb the rounding of the logarithms and
    of the running power a q^k, so the factors and the stopping index are
    those of checking every factor.

    (q;q)_inf itself, the normalisation of q-gamma and the q-Bessel
    functions, is multiplied out once per (q, tol, max_terms) and then
    looked up: the product is deterministic, so the value is the same.
    """
    a = complex(a)
    if a == q.q:
        return _qfac_inf(q.q, tr.tol, tr.max_terms)
    return _qpoch_inf(a, q, tr)


@functools.lru_cache(maxsize=256)
def _qfac_inf(q: float, tol: float, max_terms: int) -> complex:
    """(q;q)_inf by the product of :func:`qpoch_inf`; an exception is raised, not kept."""
    return _qpoch_inf(complex(q), QParam(q), Truncation(tol, max_terms))


def _qpoch_inf(a: complex, q: QParam, tr: Truncation) -> complex:
    if a == 0:
        return 1.0 + 0.0j
    qq = q.q
    mag = abs(a)
    floor = tr.tol * (1.0 - qq)
    unchecked = 0
    if floor < mag < math.inf:  # an inf or nan a runs the checked loop to its budget
        room = math.log(mag) - math.log(floor) - 1e-12
        unchecked = min(int(room / (1e-15 - q.ln_q)), tr.max_terms)
    prod = 1.0 + 0.0j
    aq = a
    for _ in range(unchecked):
        prod *= 1.0 - aq
        aq *= qq
    for _ in range(tr.max_terms - unchecked):
        if _product_tail_bound(abs(aq), qq) < tr.tol:
            return ensure_finite(prod, "qpoch_inf")
        prod *= 1.0 - aq
        aq *= qq
    bound = _product_tail_bound(abs(aq), qq)
    raise TruncationError(
        f"(a;q)_inf tail bound {bound:.3e} still above tol {tr.tol:.3e} "
        f"after {tr.max_terms} factors",
        achieved_bound=bound,
    )


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
    # wing n <= -1 as q^((m+1)^2) (-1/z)^(m+1) = (-q/z) q^(m^2) (-q^2/z)^m, m >= 0
    return _theta_sum(1.0, -z, -q.q / z, -q.q * q.q / z, q, tr, "theta4")


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
    # wing k >= 0 as q^((k+1/2)^2) e^((2k+1) pi i v) = q^(1/4) e^(pi i v) q^(k^2) (q w)^k,
    # and wing k <= -1 likewise with w -> 1/w
    e = cmath.exp(1j * math.pi * v)
    return q.power(0.25) * _theta_sum(e, q.q * w, 1.0 / e, q.q / w, q, tr, "theta2")


def _theta_sum(c1, y1, c2, y2, q: QParam, tr: Truncation, context: str) -> complex:
    """sum_{n>=0} q^(n^2) (c1 y1^n + c2 y2^n), certified on the whole sum."""
    qq = q.q
    m1, m2 = abs(y1), abs(y2)

    # each wing: |q^((n+1)^2) y^(n+1)| / |q^(n^2) y^n| = q^(2n+1)|y|, decreasing in n
    def terms():
        t1, t2 = complex(c1), complex(c2)
        r = qq  # q^(2n+1)
        while True:
            yield t1 + t2, geometric_tail(abs(t1), r * m1) + geometric_tail(abs(t2), r * m2)
            t1 *= r * y1
            t2 *= r * y2
            r *= qq * qq

    return _certified_sum(terms(), tr, context)


def partial_theta(v, q: QParam, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """One-sided theta sum omega(v;q) = sum_{n>=0} q^(n^2) v^n (entire)."""
    return _theta_sum(1.0, complex(v), 0.0, 0.0, q, tr, "partial_theta")
