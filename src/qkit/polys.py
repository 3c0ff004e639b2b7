"""q-orthogonal polynomial families and their weight functions.

Continuous q-Hermite H_n, q^(-1)-Hermite h_n, q-Laguerre L_n^(alpha),
Stieltjes-Wigert S_n, the general confluent family p_n, and the
pointwise densities for the orthogonality relations in scope.

S_n and L_n^(alpha) are cases of the confluent family (Koekoek, Lesky &
Swarttouw, Hypergeometric Orthogonal Polynomials and Their q-Analogues,
Springer 2010, sections 14.21 and 14.27), so one body sums all three.
"""

from __future__ import annotations

import cmath
import math

from .core import (DEFAULT_TRUNCATION, QParam, Truncation, _lattice_end, ensure_finite, qbinom,
                   qpoch_finite, qpoch_inf)
from .errors import DomainError, NumericOverflowError, PoleError

__all__ = [
    "qhermite",
    "qhermite_sum",
    "qhermite_inv",
    "qhermite_inv_exp",
    "qlaguerre",
    "stieltjes_wigert",
    "confluent_poly",
    "weight",
]


def _powers(q: QParam, n: int) -> list:
    """[q^0, q^1, ..., q^n] by running products.

    Walked upward, so an underflow zeroes only powers that lie below the
    double range themselves.
    """
    pw = [1.0]
    for _ in range(n):
        pw.append(pw[-1] * q.q)
    return pw


def qhermite(n: int, x, q: QParam) -> complex:
    """Continuous q-Hermite polynomial H_n(x|q) by the three-term recurrence.

    H_0 = 1, H_1 = 2x, H_{n+1} = 2x H_n - (1 - q^n) H_{n-1}.
    """
    if n < 0:
        raise DomainError("polynomial degree must be >= 0")
    x = complex(x)
    if n == 0:
        return 1.0 + 0.0j
    x2 = 2.0 * x
    hprev = 1.0 + 0.0j
    hcur = x2
    qk = 1.0  # q^k
    for _ in range(n - 1):
        qk *= q.q
        hprev, hcur = hcur, x2 * hcur - (1.0 - qk) * hprev
    return ensure_finite(hcur, "qhermite")


def qhermite_sum(n: int, x, q: QParam) -> complex:
    """H_n(cos(theta)|q) by its explicit sum over e^(i(n-2k)theta) terms.

    Independent of the recurrence route; used as a cross-check.
    """
    if n < 0:
        raise DomainError("polynomial degree must be >= 0")
    theta = cmath.acos(complex(x))
    eip = cmath.exp(1j * theta)
    total = 0.0 + 0.0j
    for k in range(n + 1):
        total += qbinom(n, k, q) * eip ** (n - 2 * k)
    return ensure_finite(total, "qhermite_sum")


def qhermite_inv_exp(n: int, e_xi, q: QParam) -> complex:
    """q^(-1)-Hermite polynomial h_n(sinh(xi)|q) given e^(xi) directly.

    h_n(sinh xi|q) = sum_k [n k]_q (-1)^k q^(k(k-n)) e^((n-2k) xi).
    Taking the exponential parameter avoids branch ambiguity for the
    complex arguments that arise in modulus-transformation identities.
    Each term follows from the last by its ratio
    -(1 - q^(n-k)) q^(2k+1-n) e^(-2 xi) / (1 - q^(k+1)), so a value costs O(n).
    """
    if n < 0:
        raise DomainError("polynomial degree must be >= 0")
    e_xi = complex(e_xi)
    if e_xi == 0:
        raise DomainError("e^(xi) must be nonzero")
    if abs(e_xi) < 1.0:
        # sinh(xi) is unchanged by e^xi -> -e^(-xi); from the larger root the first term
        # overflows when the value does, where the smaller one would underflow to a silent 0
        e_xi = -1.0 / e_xi
    try:
        term = e_xi ** n  # [n k]_q (-1)^k q^(k(k-n)) e^((n-2k) xi)
    except OverflowError:
        raise NumericOverflowError(f"qhermite_inv_exp: e^(n xi) overflows at n = {n}") from None
    pw = _powers(q, n)
    step = -1.0 / (e_xi * e_xi)  # -e^(-2 xi)
    qstep = q.power(1 - n).real  # q^(2k+1-n) at current k
    q2 = q.q * q.q
    total = term
    for k in range(n):
        term *= step * qstep * (1.0 - pw[n - k]) / (1.0 - pw[k + 1])
        qstep *= q2
        total += term
    return ensure_finite(total, "qhermite_inv_exp")


def qhermite_inv(n: int, x, q: QParam) -> complex:
    """q^(-1)-Hermite polynomial h_n(x|q) with xi = arcsinh(x) (principal)."""
    x = complex(x)
    xi = cmath.asinh(x)
    return qhermite_inv_exp(n, cmath.exp(xi), q)


def qlaguerre(n: int, alpha, x, q: QParam) -> complex:
    """q-Laguerre polynomial L_n^(alpha)(x;q).

    (b;q)_n sum_k q^(alpha k + k^2) (-x)^k / [(q;q)_k (q;q)_{n-k} (b;q)_k]
    with b = q^(alpha+1), that is (b;q)_n times the confluent polynomial
    with the one lower parameter b at x q^alpha.
    """
    alpha = complex(alpha)
    qa = q.power(alpha)
    b = q.q * qa
    body = confluent_poly(n, (), (b,), complex(x) * qa, q)
    return ensure_finite(qpoch_finite(b, q, n) * body, "qlaguerre")


def stieltjes_wigert(n: int, x, q: QParam) -> complex:
    """Stieltjes-Wigert polynomial S_n(x;q).

    (1/(q;q)_n) sum_k [n k]_q q^(k^2) (-x)^k, the confluent polynomial
    with no parameters.
    """
    return confluent_poly(n, (), (), x, q)


def confluent_poly(n: int, alphas, betas, x, q: QParam) -> complex:
    """General confluent polynomial family p_n.

    p_n = sum_{k=0}^n prod(alpha;q)_k q^(k^2) (-x)^k /
    [(q;q)_k prod(beta;q)_k (q;q)_{n-k}].  With empty parameter lists
    this is the Stieltjes-Wigert polynomial.  Each term follows from the
    last by its ratio, so scaled arguments near the double-range edge stay
    representable.  ``core._lattice_end`` ends the sum at an upper parameter q^(-m')
    with m' < n, whose terms past m' vanish, and raises PoleError at a lower
    parameter q^(-m) with m below that end.
    """
    if n < 0:
        raise DomainError("polynomial degree must be >= 0")
    alphas = list(map(complex, alphas))
    betas = list(map(complex, betas))
    end = _lattice_end(alphas, betas, q, n)
    step = -complex(x)
    pw = _powers(q, n)
    # term_k = prod(alpha;q)_k q^(k^2) (-x)^k / [(q;q)_k prod(beta;q)_k]; the
    # 1/(q;q)_{n-k} factor is restored via the ratio (q;q)_n/(q;q)_{n-k}
    total = term = 1.0 + 0.0j  # the k = 0 term
    ratio_fac = 1.0  # (q;q)_n / (q;q)_{n-k}, so (q;q)_n after both loops
    for k in range(1, end + 1):
        qk1 = pw[k - 1]
        num = step * qk1 * pw[k]
        for a in alphas:
            num *= 1.0 - a * qk1
        den = 1.0 - pw[k]
        for b in betas:
            den *= 1.0 - b * qk1
        if abs(den) < 1e-290:
            raise PoleError(f"zero denominator factor at term {k} (lower parameter pole)")
        term *= num / den
        ratio_fac *= 1.0 - pw[n - k + 1]
        total += term * ratio_fac
    for k in range(end + 1, n + 1):
        ratio_fac *= 1.0 - pw[n - k + 1]
    return ensure_finite(total / ratio_fac, "confluent_poly")


def weight(kind: str, x: float, q: QParam, tr: Truncation = DEFAULT_TRUNCATION,
           alpha: float = 0.0) -> float:
    """Evaluate an orthogonality density at a point of its support.

    kind is one of 'qhermite', 'sw_lognormal', 'laguerre' and
    'ismail_masson_w2'; alpha is read by the laguerre kind only.  The two
    lognormal kinds take c^2 = -1/(2 ln q) (Stieltjes-Wigert) and
    c^2 = -(ln q)/2 (the w2 weight).
    """
    if kind == "qhermite":
        if not -1.0 < x < 1.0:
            raise DomainError(f"q-Hermite weight needs |x| < 1, got {x}")
        theta = math.acos(x)
        p = qpoch_inf(cmath.exp(2j * theta), q, tr)
        return (p * p.conjugate()).real / math.sqrt(1.0 - x * x)
    if kind == "sw_lognormal":
        if not x > 0.0:
            raise DomainError(f"Stieltjes-Wigert weight needs x > 0, got {x}")
        c2 = -1.0 / (2.0 * q.ln_q)
        u = math.log(x) - 0.5 * q.ln_q
        return math.exp(-c2 * u * u)
    if kind == "laguerre":
        if not x > 0.0:
            raise DomainError(f"q-Laguerre weight needs x > 0, got {x}")
        return x**alpha / qpoch_inf(-x, q, tr).real
    if kind != "ismail_masson_w2":
        raise DomainError(f"unknown weight kind {kind!r}")
    c2 = -0.5 * q.ln_q
    c = math.sqrt(c2)
    xi = math.asinh(x)
    return math.exp(-c2 / 4.0) / (c * math.sqrt(math.pi)) * math.exp(2.0 * xi * xi / q.ln_q)
