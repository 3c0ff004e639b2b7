"""Exact oracle: truncated formal power series over the rationals.

Identities are verified coefficient-by-coefficient to a requested order
with zero floating-point error.  Each supported identity fixes all but
one variable at exact rationals; the remaining variable is either the
identity's own argument (with the base q a rational number) or the base
itself (for identities whose constants are infinite products in q).
Bases entering through fractional powers are handled by working in a
rational root of q, with the identity's q a power of the working base.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, UnsupportedIdentityError

__all__ = ["FPS", "qpoch_series", "verify_exact", "exact_identity_ids"]


class FPS:
    """Dense truncated power series with Fraction coefficients c_0..c_N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [Fraction(c) for c in coeffs]

    @classmethod
    def zero(cls, order):
        return cls([0] * (order + 1))

    @classmethod
    def const(cls, value, order):
        c = [Fraction(0)] * (order + 1)
        c[0] = Fraction(value)
        return cls(c)

    @classmethod
    def monomial(cls, value, power, order):
        if power < 0:
            raise DomainError("negative powers are outside the series ring")
        c = [Fraction(0)] * (order + 1)
        if power <= order:
            c[power] = Fraction(value)
        return cls(c)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        if isinstance(other, FPS):
            n = min(self.order, other.order)
            return FPS([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])
        out = list(self.coeffs)
        out[0] += Fraction(other)
        return FPS(out)

    __radd__ = __add__

    def __neg__(self):
        return FPS([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, FPS) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + Fraction(other)

    def __mul__(self, other):
        if not isinstance(other, FPS):
            f = Fraction(other)
            return FPS([c * f for c in self.coeffs])
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return FPS(out)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by the k-th power of the variable."""
        if k == 0:
            return self
        return FPS([Fraction(0)] * k + self.coeffs[: max(self.order + 1 - k, 0)])

    def scale_var(self, factor):
        """Substitute variable -> factor * variable."""
        f = Fraction(factor)
        out = []
        p = Fraction(1)
        for c in self.coeffs:
            out.append(c * p)
            p *= f
        return FPS(out)

    def reciprocal(self):
        if self.coeffs[0] == 0:
            raise DomainError("reciprocal needs a nonzero constant term")
        n = self.order
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * n
        for m in range(1, n + 1):
            s = Fraction(0)
            for k in range(1, m + 1):
                if self.coeffs[k]:
                    s += self.coeffs[k] * out[m - k]
            out[m] = -inv0 * s
        return FPS(out)

    def first_mismatch(self, other):
        n = min(self.order, other.order)
        for i in range(n + 1):
            if self.coeffs[i] != other.coeffs[i]:
                return i
        return None

    def __eq__(self, other):
        return isinstance(other, FPS) and self.first_mismatch(other) is None

    def __repr__(self):
        return f"FPS({self.coeffs[: min(6, len(self.coeffs))]}...)"


# --- scalar q-arithmetic over Fractions -------------------------------------

def qfac_r(q: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= 1 - q**k
    return out


def qpoch_r(a: Fraction, q: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(n):
        out *= 1 - a * q**k
    return out


def qbinom_r(n: int, k: int, q: Fraction) -> Fraction:
    if k < 0 or k > n:
        return Fraction(0)
    return qfac_r(q, n) / (qfac_r(q, k) * qfac_r(q, n - k))


# --- series builders in the argument variable (rational base) ----------------

def qpoch_series(a_coeff, a_power: int, q: Fraction, n, order: int) -> FPS:
    """(a z^m; q)_n as an exact series; n=None means the infinite product.

    The infinite case uses the exponential-series expansion, which is
    exact to the truncation order for m >= 1.
    """
    a = Fraction(a_coeff)
    m = a_power
    if n is not None:
        out = FPS.const(1, order)
        for k in range(n):
            out = out * (FPS.const(1, order) - FPS.monomial(a * q**k, m, order))
        return out
    if m < 1:
        raise DomainError("infinite product needs the variable in its argument")
    out = FPS.zero(order)
    k = 0
    while k * m <= order:
        coeff = (-a) ** k * q ** (k * (k - 1) // 2) / qfac_r(q, k)
        out = out + FPS.monomial(coeff, k * m, order)
        k += 1
    return out


def qpoch_series_recip(a_coeff, a_power: int, q: Fraction, order: int) -> FPS:
    """1/(a z^m;q)_inf exactly: sum_k (a z^m)^k / (q;q)_k."""
    a = Fraction(a_coeff)
    m = a_power
    if m < 1:
        raise DomainError("reciprocal product needs the variable in its argument")
    out = FPS.zero(order)
    k = 0
    while k * m <= order:
        out = out + FPS.monomial(a**k / qfac_r(q, k), k * m, order)
        k += 1
    return out


def airy_series(c_coeff, c_power: int, q: Fraction, order: int) -> FPS:
    """A_q(c z^m) = sum_k q^(k^2) (-c z^m)^k/(q;q)_k exactly."""
    c = Fraction(c_coeff)
    m = c_power
    if m < 1:
        raise DomainError("Ramanujan series needs the variable in its argument")
    out = FPS.zero(order)
    k = 0
    while k * m <= order:
        out = out + FPS.monomial(q ** (k * k) * (-c) ** k / qfac_r(q, k), k * m, order)
        k += 1
    return out


# --- rational polynomial values ----------------------------------------------

def qhermite_r(n: int, x: Fraction, q: Fraction) -> Fraction:
    hprev, hcur = Fraction(1), 2 * Fraction(x)
    if n == 0:
        return hprev
    for k in range(1, n):
        hprev, hcur = hcur, 2 * x * hcur - (1 - q**k) * hprev
    return hcur


def qhermite_inv_r(n: int, e_xi: Fraction, q: Fraction) -> Fraction:
    """h_n at sinh(xi) with e^(xi) rational; q^(k(k-n)) stays rational."""
    total = Fraction(0)
    for k in range(n + 1):
        term = (qbinom_r(n, k, q) * (-1) ** k * q ** (k * k) / q ** (k * n)
                * e_xi ** (n - 2 * k) if n - 2 * k >= 0
                else qbinom_r(n, k, q) * (-1) ** k * q ** (k * k) / q ** (k * n)
                / e_xi ** (2 * k - n))
        total += term
    return total


def qlaguerre_r(n: int, alpha: int, x: Fraction, q: Fraction) -> Fraction:
    pref = qpoch_r(q ** (alpha + 1), q, n)
    total = Fraction(0)
    for k in range(n + 1):
        total += (q ** (alpha * k + k * k) * (-x) ** k
                  / (qfac_r(q, k) * qfac_r(q, n - k) * qpoch_r(q ** (alpha + 1), q, k)))
    return pref * total


def stieltjes_wigert_r(n: int, x: Fraction, q: Fraction) -> Fraction:
    total = Fraction(0)
    for k in range(n + 1):
        total += qbinom_r(n, k, q) * q ** (k * k) * (-x) ** k
    return total / qfac_r(q, n)


def qlaguerre_fps(n: int, alpha: int, x_fps: FPS, q: Fraction) -> FPS:
    """L_n^(alpha) with a series-valued argument."""
    order = x_fps.order
    pref = qpoch_r(q ** (alpha + 1), q, n)
    out = FPS.zero(order)
    xk = FPS.const(1, order)
    for k in range(n + 1):
        if k:
            xk = xk * x_fps
        coeff = (q ** (alpha * k + k * k) * (-1) ** k
                 / (qfac_r(q, k) * qfac_r(q, n - k) * qpoch_r(q ** (alpha + 1), q, k)))
        out = out + xk * coeff
    return out * pref


def stieltjes_wigert_fps(n: int, x_fps: FPS, q: Fraction) -> FPS:
    order = x_fps.order
    out = FPS.zero(order)
    xk = FPS.const(1, order)
    for k in range(n + 1):
        if k:
            xk = xk * x_fps
        out = out + xk * (qbinom_r(n, k, q) * q ** (k * k) * (-1) ** k)
    return out / qfac_r(q, n) if False else out * (1 / qfac_r(q, n))


# --- series builders in the base variable -------------------------------------

def pochq(c, j0: int, order: int, step: int = 1) -> FPS:
    """prod_{k>=0} (1 - c p^(j0 + step k)) as a series in the base p.

    Exact to the requested order: factors whose power exceeds it are 1 up
    to that order.  j0 = 0 contributes the rational constant (1 - c).
    """
    c = Fraction(c)
    out = FPS.const(1, order)
    j = j0
    while j <= order:
        out = out * (FPS.const(1, order) - FPS.monomial(c, j, order))
        j += step
    if j0 == 0:
        pass  # already included above via the j = 0 factor
    return out


def pochq_fin(c, j0: int, n: int, order: int, step: int = 1) -> FPS:
    """prod_{k=0}^{n-1}(1 - c p^(j0 + step k)) in the base variable."""
    c = Fraction(c)
    out = FPS.const(1, order)
    for k in range(n):
        j = j0 + step * k
        out = out * (FPS.const(1, order) - FPS.monomial(c, j, order))
    return out


# --- identity handlers ----------------------------------------------------------


def _check_scalar_family(pairs):
    for idx, (lhs, rhs) in enumerate(pairs):
        if lhs != rhs:
            return {"equal": False, "first_mismatch": idx}
    return {"equal": True, "first_mismatch": None}


def _h_qbinom1(order, q):
    pairs = []
    for n in range(order + 1):
        lhs = sum(qbinom_r(n, k, q) * (-1) ** k for k in range(n + 1))
        if n % 2:
            rhs = Fraction(0)
        else:
            rhs = qfac_r(q, n) / qfac_r(q * q, n // 2)
        pairs.append((lhs, rhs))
    return _check_scalar_family(pairs)


def _h_qbinom2(order, p):
    # working base p with q = p^4, so q^(n(n-s)) and q^(-s^2/4) are rational
    q = p**4
    pairs = []
    for s in range(order + 1):
        lhs = Fraction(0)
        for n in range(s + 1):
            lhs += (Fraction(-1) ** n * q**(n * n) / q ** (n * s)
                    / (qfac_r(q, n) * qfac_r(q, s - n)))
        if s % 2:
            rhs = Fraction(0)
        else:
            rhs = Fraction(-1) ** (s // 2) / p ** (s * s) / qfac_r(q * q, s // 2)
        pairs.append((lhs, rhs))
    return _check_scalar_family(pairs)


def _h_qbinom3(order, p):
    # working base p with q = p^2
    q = p * p
    pairs = []
    for n in range(order + 1):
        lhs = sum(p**k / (qfac_r(q, k) * qfac_r(q, n - k)) for k in range(n + 1))
        rhs = 1 / qfac_r(p, n)
        pairs.append((lhs, rhs))
    return _check_scalar_family(pairs)


def _h_triple_product(order, z):
    # base-variable mode: theta sum in q with the argument fixed rational
    if z == 0:
        raise UnsupportedIdentityError("triple product needs z != 0")
    lhs = FPS.zero(order)
    n = 0
    while n * n <= order:
        if n == 0:
            lhs = lhs + FPS.monomial(1, 0, order)
        else:
            lhs = lhs + FPS.monomial(z**n + z**-n, n * n, order)
        n += 1
    rhs = pochq(1, 2, order, step=2) * pochq(-z, 1, order, step=2) * pochq(
        -1 / z, 1, order, step=2)
    return lhs, rhs


def _h_qhermite_genfun(order, q):
    # variable t, x = 1 (theta = 0)
    lhs = FPS.zero(order)
    for n in range(order + 1):
        lhs = lhs + FPS.monomial(qhermite_r(n, Fraction(1), q) / qfac_r(q, n), n, order)
    rhs = qpoch_series_recip(1, 1, q, order)
    return lhs, rhs * rhs


def _h_qinvhermite_genfun(order, q):
    rho = Fraction(3, 2)  # e^xi
    lhs = qpoch_series(-rho, 1, q, None, order) * qpoch_series(1 / rho, 1, q, None, order)
    rhs = FPS.zero(order)
    for n in range(order + 1):
        rhs = rhs + FPS.monomial(
            q ** (n * (n - 1) // 2) * qhermite_inv_r(n, rho, q) / qfac_r(q, n), n, order)
    return lhs, rhs


def _h_poisson_kernel(order, q):
    rho, sig = Fraction(3, 2), Fraction(2, 3)  # e^xi, e^eta
    lhs = FPS.zero(order)
    for n in range(order + 1):
        lhs = lhs + FPS.monomial(
            qhermite_inv_r(n, rho, q) * qhermite_inv_r(n, sig, q)
            * q ** (n * (n - 1) // 2) / qfac_r(q, n), n, order)
    num = (qpoch_series(-rho * sig, 1, q, None, order)
           * qpoch_series(-1 / (rho * sig), 1, q, None, order)
           * qpoch_series(rho / sig, 1, q, None, order)
           * qpoch_series(sig / rho, 1, q, None, order))
    rhs = num * qpoch_series_recip(1 / q, 2, q, order)
    return lhs, rhs


def _h_qlaguerre_genfun(order, q):
    alpha = 1
    x = Fraction(2, 3)
    lhs = FPS.zero(order)
    for n in range(order + 1):
        lhs = lhs + FPS.monomial(qlaguerre_r(n, alpha, x, q) / q**n, n, order)
    phi_part = FPS.zero(order)
    for k in range(order + 1):
        coeff = (qpoch_r(-x, q, k) * q ** (k * (k - 1) // 2) * (-q) ** k / qfac_r(q, k))
        phi_part = phi_part + FPS.monomial(coeff, k, order)
    rhs = qpoch_series_recip(1 / q, 1, q, order) * phi_part
    return lhs, rhs


def _h_series_cal_e_theta(order, p):
    # working base p with q = p^4; theta = 0 so x = 1; variable t
    q = p**4
    lhs = FPS.zero(order)
    for n in range(order + 1):
        lhs = lhs + FPS.monomial(p ** (n * n) * qhermite_r(n, Fraction(1), q)
                                 / qfac_r(q, n), n, order)
    lhs = lhs * qpoch_series_recip(q, 2, q * q, order)
    rhs = FPS.zero(order)
    for k in range(order + 1):
        tail = qpoch_series(-(q ** (k + 1)), 2, q * q, None, order)
        rhs = rhs + tail.shift(k) * (p ** (k * k) * qpoch_r(-1, q, k) / qfac_r(q, k))
    rhs = rhs * qpoch_series_recip(q, 2, q * q, order)
    return lhs, rhs


def _h_airy_mult(order, q):
    b = Fraction(2, 3)
    lhs = airy_series(b, 1, q, order)
    rhs = FPS.zero(order)
    for k in range(order + 1):
        coeff = qpoch_r(b, q, k) * q ** (k * (k + 1) // 2) / qfac_r(q, k)
        rhs = rhs + (airy_series(q**k, 1, q, order) * coeff).shift(k)
    return lhs, rhs


def _h_airy_unit(order, q):
    lhs = FPS.const(1, order)
    rhs = FPS.zero(order)
    for k in range(order + 1):
        coeff = q ** (k * (k + 1) // 2) / qfac_r(q, k)
        rhs = rhs + (airy_series(q**k, 1, q, order) * coeff).shift(k)
    return lhs, rhs


def _h_airy_two_param(order, q):
    w = Fraction(1, 3)
    lhs = airy_series(1, 1, q, order)
    rhs = FPS.zero(order)
    for k in range(order + 1):
        coeff = q ** (k * k) * (-1) ** k * qpoch_r(w, q, k) / qfac_r(q, k)
        rhs = rhs + (airy_series(w * q ** (2 * k), 1, q, order) * coeff).shift(k)
    return lhs, rhs


def _h_airy_base_shift(order, q):
    q2 = q * q
    lhs = airy_series(1, 1, q, order) * qpoch_series_recip(q2, 1, q2, order)
    rhs = FPS.zero(order)
    for k in range(order + 1):
        base = FPS.monomial(q ** (k * k) * (-1) ** k / qfac_r(q2, k), k, order)
        finite = qpoch_series(q2, 1, q2, k, order)
        rhs = rhs + base * finite.reciprocal()
    return lhs, rhs


def _h_sw_aq_ratio(order, q):
    n = 3
    lhs = (stieltjes_wigert_fps(n, FPS.monomial(1, 1, order), q) * qfac_r(q, n)
           * qpoch_series_recip(-(q ** (n + 1)), 1, q, order))
    rhs = FPS.zero(order)
    for k in range(order + 1):
        base = FPS.monomial(q ** (k * k) * (-1) ** k / qfac_r(q, k), k, order)
        finite = qpoch_series(-(q ** (n + 1)), 1, q, k, order)
        rhs = rhs + base * finite.reciprocal()
    return lhs, rhs


def _h_sw_from_aq(order, q):
    n = 3
    lhs = stieltjes_wigert_fps(n, FPS.monomial(1, 1, order), q) * qfac_r(q, n)
    rhs = FPS.zero(order)
    for k in range(order + 1):
        coeff = q ** (n * k) * q ** (k * (k + 1) // 2) / qfac_r(q, k)
        rhs = rhs + (airy_series(q**k, 1, q, order) * coeff).shift(k)
    return lhs, rhs


def _h_sw_genfun(order, q):
    x = Fraction(2, 3)
    lhs = FPS.zero(order)
    for n in range(order + 1):
        lhs = lhs + FPS.monomial(stieltjes_wigert_r(n, x, q), n, order)
    rhs = airy_series(x, 1, q, order) * qpoch_series_recip(1, 1, q, order)
    return lhs, rhs


def _h_laguerre_conn(order, q):
    al, be, n = 2, 1, 4
    x = FPS.monomial(1, 1, order)
    lhs = qlaguerre_fps(n, al, x, q) * (Fraction(1) / q ** (al * n))
    rhs = FPS.zero(order)
    for k in range(n + 1):
        coeff = (qpoch_r(q ** (al - be), q, n - k) / qfac_r(q, n - k)
                 / q ** (al * (n - k)) / q ** (be * k))
        rhs = rhs + qlaguerre_fps(k, be, x, q) * coeff
    return lhs, rhs


def _h_laguerre_1(order, p):
    # base-variable mode: x rational, alpha and n integers
    x = Fraction(2, 3)
    al, n = 1, 2
    lhs = (pochq(1, al + n + 1, order) * qfac_series(n, order)
           * laguerre_in_base(n, al, x, order)
           * pochq(-x, al + n + 1, order).reciprocal())
    rhs = FPS.zero(order)
    k = 0
    while k * (k - 1) // 2 + k * (al + 1) <= order:
        coeff_power = k * (k - 1) // 2 + k * (al + 1)
        num = pochq_fin(-x, 0, k, order)
        den = (qfac_series(k, order) * pochq_fin(-x, al + n + 1, k, order))
        rhs = rhs + (num * den.reciprocal() * Fraction(-1) ** k).shift(coeff_power)
        k += 1
    return lhs, rhs


def qfac_series(n, order):
    """(p;p)_n as a base-variable series."""
    return pochq_fin(1, 1, n, order)


def laguerre_in_base(n: int, al: int, x, order: int) -> FPS:
    """L_n^(al)(x;q) as a series in the base, x rational, al integer."""
    x = Fraction(x)
    pref = pochq_fin(1, al + 1, n, order)
    total = FPS.zero(order)
    for k in range(n + 1):
        num = FPS.monomial((-x) ** k, al * k + k * k, order)
        den = (qfac_series(k, order) * qfac_series(n - k, order)
               * pochq_fin(1, al + 1, k, order))
        total = total + num * den.reciprocal()
    return pref * total


def sw_in_base(n: int, x, order: int, scale_power: int = 0) -> FPS:
    """S_n(x p^scale;q) as a series in the base, x rational."""
    x = Fraction(x)
    total = FPS.zero(order)
    for k in range(n + 1):
        coeff = (qfac_series(n, order)
                 * (qfac_series(k, order) * qfac_series(n - k, order)).reciprocal())
        total = total + (coeff * (-x) ** k).shift(k * k + scale_power * k)
    return total * qfac_series(n, order).reciprocal()


def airy_in_base(c, shift_power: int, order: int) -> FPS:
    """A_q(c p^shift) as a series in the base, c rational."""
    c = Fraction(c)
    total = FPS.zero(order)
    k = 0
    while k * k + shift_power * k <= order:
        piece = qfac_series(k, order).reciprocal() * (-c) ** k
        total = total + piece.shift(k * k + shift_power * k)
        k += 1
    return total


def _h_laguerre_2(order, p):
    x = Fraction(2, 3)
    al, n = 1, 2
    lhs = pochq_fin(1, al + 1, n, order) * qfac_series(n, order).reciprocal()
    rhs = FPS.zero(order)
    k = 0
    while k * (k - 1) // 2 + k * (al + 1) <= order:
        power = k * (k - 1) // 2 + k * (al + 1)
        coeff = (pochq_fin(1, n, k, order) * x**k
                 * (qfac_series(k, order) * pochq_fin(1, al + n + 1, k, order)).reciprocal())
        rhs = rhs + (coeff * laguerre_in_base(n, al + k, x, order)).shift(power)
        k += 1
    return lhs, rhs


def _h_laguerre_3(order, p):
    x = Fraction(2, 3)
    al, be, n = 1, 2, 2
    lhs = (pochq(1, al + n + 1, order) * pochq(1, be + n + 1, order).reciprocal()
           * laguerre_in_base(n, al, x, order))
    rhs = FPS.zero(order)
    k = 0
    while k * (k - 1) // 2 + k * (al + 1) <= order:
        power = k * (k - 1) // 2 + k * (al + 1)
        coeff = (pochq_fin(1, be - al, k, order) * Fraction(-1) ** k
                 * (qfac_series(k, order) * pochq_fin(1, be + n + 1, k, order)).reciprocal())
        # x q^(al-be): the shifted order be+k >= 2 keeps every power nonnegative
        rhs = rhs + (coeff * laguerre_in_base_scaled(n, be + k, x, al - be, order)).shift(power)
        k += 1
    return lhs, rhs


def laguerre_in_base_scaled(n: int, al: int, x, xshift: int, order: int) -> FPS:
    """L_n^(al)(x p^xshift; q) in the base variable; needs al + xshift >= -1."""
    x = Fraction(x)
    if al + xshift < -1:
        raise DomainError("scaled q-Laguerre would leave the series ring")
    pref = pochq_fin(1, al + 1, n, order)
    total = FPS.zero(order)
    for k in range(n + 1):
        num = FPS.monomial((-x) ** k, al * k + k * k + xshift * k, order)
        den = (qfac_series(k, order) * qfac_series(n - k, order)
               * pochq_fin(1, al + 1, k, order))
        total = total + num * den.reciprocal()
    return pref * total


def _h_laguerre_4(order, p):
    x = Fraction(2, 3)
    al, n = 1, 2
    lhs = laguerre_in_base(n, al, x, order)
    rhs = FPS.zero(order)
    k = 0
    while k * (k - 1) // 2 + k * (al + 1) <= order:
        power = k * (k - 1) // 2 + k * (al + 1)
        coeff = Fraction(-1) ** k * qfac_series(k, order).reciprocal()
        rhs = rhs + (coeff * sw_in_base(n, x, order, scale_power=k + al)).shift(power)
        k += 1
    rhs = rhs * pochq(1, al + n + 1, order).reciprocal()
    return lhs, rhs


def _h_laguerre_5(order, p):
    x = Fraction(2, 3)
    al, n = 1, 2
    lhs = sw_in_base(n, x, order, scale_power=al) * pochq(1, al + n + 1, order).reciprocal()
    rhs = FPS.zero(order)
    k = 0
    while k * k + k * al <= order:
        power = k * k + k * al
        coeff = (qfac_series(k, order) * pochq_fin(1, al + n + 1, k, order)).reciprocal()
        rhs = rhs + (coeff * laguerre_in_base(n, al + k, x, order)).shift(power)
        k += 1
    return lhs, rhs


def _h_specialvalue(order, p):
    z = Fraction(2, 3)
    nu = 1
    lhs = FPS.zero(order)
    n = 0
    while n * (n + nu) <= order:
        coeff = z ** (2 * n) * qfac_series(n, order).reciprocal()
        lhs = lhs + (coeff * pochq(1, nu + n + 1, order)).shift(n * (n + nu))
        n += 1
    rhs = FPS.zero(order)
    k = 0
    while k * (k - 1) // 2 + k * (nu + 1) <= order:
        power = k * (k - 1) // 2 + k * (nu + 1)
        coeff = pochq_fin(z * z, 0, k, order) * Fraction(-1) ** k \
            * qfac_series(k, order).reciprocal()
        rhs = rhs + coeff.shift(power)
        k += 1
    return lhs, rhs


def bessel2_body_in_base(mu: int, c, cshift: int, order: int) -> FPS:
    """(q^(mu+1);q)_inf * sum_n (-c p^cshift)^n q^(n(n+mu))/((q;q)_n (q^(mu+1);q)_n).

    Equals (q;q)_inf (2/z)^mu J2_mu(z;q) with (z/2)^2 = c p^cshift.
    """
    c = Fraction(c)
    out = FPS.zero(order)
    n = 0
    while n * (n + mu) + cshift * n <= order:
        coeff = ((-c) ** n
                 * (qfac_series(n, order)).reciprocal())
        piece = coeff * pochq(1, mu + n + 1, order)
        out = out + piece.shift(n * (n + mu) + cshift * n)
        n += 1
    return out


def _h_bessel_airy_a(order, p):
    z = Fraction(2, 3)
    nu = 1
    lhs = bessel2_body_in_base(nu, z * z, 0, order)
    rhs = FPS.zero(order)
    k = 0
    while k * (k + 1) // 2 + nu * k <= order:
        power = k * (k + 1) // 2 + nu * k
        coeff = Fraction(-1) ** k * qfac_series(k, order).reciprocal()
        rhs = rhs + (coeff * airy_in_base(z * z, nu + k, order)).shift(power)
        k += 1
    return lhs, rhs


def _h_bessel_airy_b(order, p):
    z = Fraction(2, 3)
    nu = 1
    lhs = airy_in_base(z * z, nu, order)
    rhs = FPS.zero(order)
    k = 0
    while k * k + nu * k <= order:
        power = k * k + nu * k
        coeff = qfac_series(k, order).reciprocal()
        rhs = rhs + (coeff * bessel2_body_in_base(k + nu, z * z, 0, order)).shift(power)
        k += 1
    return lhs, rhs


def _h_bessel_poch_series(order, p):
    z = Fraction(2, 3)
    nu = 1
    lhs = bessel2_body_in_base(nu, z * z / 4, 0, order)
    rhs = FPS.zero(order)
    k = 0
    while k * (k + 1) // 2 + nu * k <= order:
        power = k * (k + 1) // 2 + nu * k
        coeff = (pochq_fin(-z * z / 4, 0, k, order) * Fraction(-1) ** k
                 * qfac_series(k, order).reciprocal())
        rhs = rhs + coeff.shift(power)
        k += 1
    return lhs, rhs


def _h_bessel_unit_series(order, p):
    z = Fraction(2, 3)
    nu = 1
    lhs = pochq(1, nu + 1, order)
    rhs = FPS.zero(order)
    k = 0
    while k * (k + 1) // 2 + nu * k <= order:
        power = k * (k + 1) // 2 + nu * k
        coeff = qfac_series(k, order).reciprocal() * (z * z / 4) ** k
        rhs = rhs + (coeff * bessel2_body_in_base(k + nu, z * z / 4, 0, order)).shift(power)
        k += 1
    return lhs, rhs


def _h_confluent_airy(order, q):
    a = Fraction(1, 2)
    lhs_phi = FPS.zero(order)
    for n in range(order + 1):
        coeff = qpoch_r(a, q, n) * q ** (n * (n - 1) // 2) / qfac_r(q, n)
        finite = qpoch_series(1, 1, q, n, order)  # (z;q)_n in the denominator
        lhs_phi = lhs_phi + (finite.reciprocal() * coeff).shift(n)
    lhs = qpoch_series(1, 1, q, None, order) * lhs_phi
    rhs = FPS.zero(order)
    q2 = q * q
    k = 0
    while 2 * k <= order:
        coeff = q ** (2 * k * k - k) / qfac_r(q2, k)
        rhs = rhs + (airy_series(q ** (2 * k - 1) * a, 1, q, order) * coeff).shift(2 * k)
        k += 1
    return lhs, rhs


def _h_confluent_param_shift(order, p):
    # base-variable mode with d = q^2, so every sum truncates in the order
    a, b, z = Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)

    def phi11_base(upper_c, lower_c, lower_j, arg_c, arg_j):
        # 1phi1(upper_c; lower_c p^lower_j; p, arg_c p^arg_j) in the base
        out = FPS.zero(order)
        n = 0
        while n * (n - 1) // 2 + arg_j * n <= order:
            num = pochq_fin(upper_c, 0, n, order) * (-arg_c) ** n
            den = qfac_series(n, order) * pochq_fin(lower_c, lower_j, n, order)
            out = out + (num * den.reciprocal()).shift(n * (n - 1) // 2 + arg_j * n)
            n += 1
        return out

    lhs = phi11_base(a, b, 0, z, 0)
    rhs = FPS.zero(order)
    k = 0
    while k * (k - 1) // 2 <= order:
        coeff = (pochq_fin(1, 2, k, order) * (-b) ** k
                 * (qfac_series(k, order) * pochq_fin(b, 2, k, order)).reciprocal())
        rhs = rhs + (coeff * phi11_base(a, b, k + 2, z, k)).shift(k * (k - 1) // 2)
        k += 1
    rhs = rhs * pochq_fin(b, 0, 2, order).reciprocal()
    return lhs, rhs


def _h_confluent_arg_shift(order, q):
    a, b, w = Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)

    def phi11_series(av_ratio, bv, arg_coeff):
        # 1phi1(av; bv; q, arg_coeff * z) as FPS in z
        out = FPS.zero(order)
        for n in range(order + 1):
            coeff = (qpoch_r(av_ratio, q, n) * q ** (n * (n - 1) // 2) * (-arg_coeff) ** n
                     / (qfac_r(q, n) * qpoch_r(bv, q, n)))
            out = out + FPS.monomial(coeff, n, order)
        return out

    lhs = phi11_series(a * w, b, 1)
    rhs = FPS.zero(order)
    for k in range(order + 1):
        coeff = (qpoch_r(w, q, k) * Fraction(-1) ** k * q ** (k * (k - 1) // 2)
                 / (qfac_r(q, k) * qpoch_r(b, q, k)))
        inner = phi11_series(a, b * q**k, w * q**k)
        rhs = rhs + (inner * coeff).shift(k)
    return lhs, rhs


def _h_confluent_bessel(order, p):
    a, z = Fraction(1, 2), Fraction(2, 3)
    nu = 1
    lhs = FPS.zero(order)
    n = 0
    while n * (n - 1) // 2 <= order:
        coeff = (-z) ** n
        piece = (pochq_fin(-a, nu + 1, n, order) * pochq(1, nu + n + 1, order)
                 * qfac_series(n, order).reciprocal() * coeff)
        lhs = lhs + piece.shift(n * (n - 1) // 2)
        n += 1
    rhs = FPS.zero(order)
    k = 0
    while k * (k - 1) // 2 <= order:
        coeff = (-z) ** k
        piece = (bessel2_body_in_base(nu + k, a * z, 0, order)
                 * qfac_series(k, order).reciprocal() * coeff)
        rhs = rhs + piece.shift(k * (k - 1) // 2)
        k += 1
    return lhs, rhs


# --- kind-2 q-Bessel expansions in the base variable ---------------------------

def _h_bessel_mult(order, p):
    w, z = Fraction(1, 2), Fraction(2, 3)
    nu = 1
    lhs = bessel2_body_in_base(nu, w * w * z * z / 4, 0, order)
    rhs = FPS.zero(order)
    k = 0
    while k * (k + 1) // 2 + nu * k <= order:
        power = k * (k + 1) // 2 + nu * k
        coeff = (pochq_fin(z * z, 0, k, order) * (w * w / 4) ** k
                 * qfac_series(k, order).reciprocal())
        rhs = rhs + (coeff * bessel2_body_in_base(nu + k, w * w / 4, 0, order)).shift(power)
        k += 1
    return lhs, rhs


def _h_bessel_laguerre_genfun(order, q):
    # argument-variable mode in w: S((wz)^2) = (w^2;q)_inf sum_n L_n w^(2n)/(q^(nu+1);q)_n
    z = Fraction(2, 3)
    nu = 1
    lhs = FPS.zero(order)
    n = 0
    while 2 * n <= order:
        coeff = ((-1) ** n * (z * z) ** n * q ** (n * (n + nu))
                 / (qfac_r(q, n) * qpoch_r(q ** (nu + 1), q, n)))
        lhs = lhs + FPS.monomial(coeff, 2 * n, order)
        n += 1
    rhs = FPS.zero(order)
    n = 0
    while 2 * n <= order:
        coeff = qlaguerre_r(n, nu, z * z, q) / qpoch_r(q ** (nu + 1), q, n)
        rhs = rhs + FPS.monomial(coeff, 2 * n, order)
        n += 1
    return lhs, qpoch_series(1, 2, q, None, order) * rhs


def _h_bessel_laguerre_inverse(order, p):
    # base-variable mode: L_n^(al)(z^2/4) (z/2)^al (q^(al+n+1);q)_inf (q;q)_inf =
    #   (q^(n+1);q)_inf sum_k q^binom(k+1,2) (z q^(al+n)/2)^k (z/2)^(al+k) B2body-parts
    z = Fraction(2, 3)
    al, n = 1, 2
    lhs = (laguerre_in_base(n, al, z * z / 4, order) * (z / 2) ** al
           * pochq(1, al + n + 1, order))
    rhs = FPS.zero(order)
    k = 0
    while k * (k + 1) // 2 + k * (al + n) <= order:
        power = k * (k + 1) // 2 + k * (al + n)
        coeff = (z / 2) ** (2 * k) * (z / 2) ** al * qfac_series(k, order).reciprocal()
        rhs = rhs + (coeff * bessel2_body_in_base(k + al, z * z / 4, 0, order)).shift(power)
        k += 1
    rhs = rhs * pochq(1, n + 1, order) * pochq(1, 1, order).reciprocal()
    return lhs, rhs


# --- kind-3 q-Bessel expansions in the half-power base --------------------------

def bessel3_body_in_base(mu: int, c, cshift: int, order: int, qpow: int = 2) -> FPS:
    """(p^qpow;p^qpow)_inf (2/w)^mu J3_mu(w;q) with (w/2)^2 = c p^cshift, q = p^qpow.

    Series sum_n q^binom(n+1,2) (-c p^cshift)^n (q^(mu+n+1);q)_inf/(q;q)_n
    in the base p; all exponents are integers when qpow divides evenly.
    """
    c = Fraction(c)
    out = FPS.zero(order)
    n = 0
    while qpow * (n * (n + 1) // 2) + cshift * n <= order:
        coeff = (-c) ** n
        den = pochq_fin(1, qpow, n, order, step=qpow).reciprocal()
        tail = pochq(1, qpow * (mu + n + 1), order, step=qpow)
        piece = (den * tail * coeff).shift(qpow * (n * (n + 1) // 2) + cshift * n)
        out = out + piece
        n += 1
    return out


def _h_bessel3_product_series(order, p):
    # base variable with q = p^2 so half-integer powers are integral in p
    z = Fraction(2, 3)
    nu = 1
    lhs = pochq(z * z, 2, order, step=2)
    rhs = FPS.zero(order)
    n = 0
    while 2 * n * (n + nu) <= order:
        den = pochq_fin(1, 2, n, order, step=2).reciprocal()
        # q^(n(n+nu)) in the half-power base is p^(2n(n+nu))
        piece = (bessel3_body_in_base(nu + n, z * z, 2 * n, order)
                 * den).shift(2 * n * (n + nu))
        rhs = rhs + piece
        n += 1
    return lhs, rhs


def _h_confluent_bessel_sqrt(order, p):
    # variable z with base p, q = p^2: both sides are series in z
    q = p * p
    nu = 1

    def phi_term_series():
        out = FPS.zero(order)
        for k in range(order + 1):
            inner = FPS.zero(order)
            m = 0
            while m + k <= order:
                cm = (q ** (m * (m - 1) // 2) * (-1) ** m * p ** (2 * m * (k + 1))
                      / (qfac_r(q, m) * qpoch_r(q ** (nu + k + 1), q, m)))
                # upper parameter -q^(nu+1) z/4 contributes (a;q)_m as a z-polynomial
                am = FPS.const(1, order)
                for j in range(m):
                    am = am * (FPS.const(1, order)
                               + FPS.monomial(q ** (nu + 1 + j) / 4, 1, order))
                inner = inner + (am * cm).shift(m)
                m += 1
            coeff = q ** (k * k) / (qfac_r(q, k) * qpoch_r(q ** (nu + 1), q, k))
            out = out + (inner * coeff).shift(k)
        return out

    rhs = phi_term_series()
    lhs = FPS.zero(order)
    n = 0
    while 2 * n <= order:
        coeff = ((-1) ** n * p ** (2 * n * (n + nu) + 2 * n) / Fraction(4) ** n
                 / (qfac_r(q, n) * qpoch_r(q ** (nu + 1), q, n)))
        lhs = lhs + FPS.monomial(coeff, 2 * n, order)
        n += 1
    return lhs, rhs


def _h_laguerre_phi11_series(order, p):
    # variable x with base p, q = p^2: alpha and n integers
    q = p * p
    al, n = 1, 2
    lhs = qlaguerre_fps(n, al, FPS.monomial(1, 1, order), q) * (
        qfac_r(q, n) / qpoch_r(q ** (al + 1), q, n))
    rhs = FPS.zero(order)
    for k in range(order + 1):
        coeff_num = Fraction(1)
        # (-q^(-al-n-1/2);q)_k = prod (1 + p^(-2al-2n-1+2j)) -- rational in p
        for j in range(k):
            coeff_num *= 1 + p ** (2 * j - 2 * al - 2 * n - 1)
        coeff = (coeff_num * p ** ((k + 2 * al + 2 * n + 1) * k)
                 / (qfac_r(q, k) * qpoch_r(q ** (al + 1), q, k)))
        inner = FPS.zero(order)
        m = 0
        while m + k <= order:
            cm = (qpoch_r(-(p ** (2 * al + 1)), q, m) * q ** (m * (m - 1) // 2)
                  * (-1) ** m * p ** (m * (2 * k + 1))
                  / (qfac_r(q, m) * qpoch_r(q ** (al + k + 1), q, m)))
            inner = inner + FPS.monomial(cm, m, order)
            m += 1
        rhs = rhs + (inner * coeff).shift(k)
    return lhs, rhs



# --- remaining kind-2/kind-3 connections in the half-power base ------------------

def _h_bessel_order_shift(order, p):
    # base variable with q = p^2; the terminating factor is rewritten as
    # (q^-nu;q)_k = (-1)^k q^(binom(k,2)-nu k) (q^(nu-k+1);q)_k so that all
    # exponents stay nonnegative; both sides carry a common p^(nu alpha)
    z = Fraction(2, 3)
    nu, al = 2, 1
    lhs = bessel2_body_in_base_p(nu + al, z * z / 4, 0, order).shift(nu * al)
    rhs = FPS.zero(order)
    for k in range(nu + 1):
        coeff = pochq_fin(1, 2 * (nu - k + 1), k, order, step=2)
        den = pochq_fin(1, 2, k, order, step=2).reciprocal()
        piece = coeff * den * bessel2_body_in_base_p(al + k, z * z / 4, 2 * nu, order)
        rhs = rhs + piece.shift(2 * (k * k + k * al) + nu * al)
    return lhs, rhs


def bessel2_body_in_base_p(mu: int, c, cshift: int, order: int, qpow: int = 2) -> FPS:
    """(q;q)_inf (2/w)^mu J2_mu(w;q) in base p with q = p^qpow, (w/2)^2 = c p^cshift."""
    c = Fraction(c)
    out = FPS.zero(order)
    n = 0
    while qpow * n * (n + mu) + cshift * n <= order:
        den = pochq_fin(1, qpow, n, order, step=qpow).reciprocal()
        tail = pochq(1, qpow * (mu + n + 1), order, step=qpow)
        out = out + ((-c) ** n * den * tail).shift(qpow * n * (n + mu) + cshift * n)
        n += 1
    return out


def _h_bessel3_order_conn(order, p):
    # q = p^2; mu >= nu integers so the connection coefficients stay polynomial
    z = Fraction(2, 3)
    nu, mu = 1, 2
    lhs = bessel3_body_in_base(nu, z * z, 0, order)
    rhs = FPS.zero(order)
    n = 0
    while n * (n + 2 * nu + 1) <= order:
        coeff = (pochq_fin(1, 2 * (mu - nu), n, order, step=2) * Fraction(-1) ** n
                 * pochq_fin(1, 2, n, order, step=2).reciprocal())
        piece = coeff * bessel3_body_in_base(mu + n, z * z, 2 * n, order)
        rhs = rhs + piece.shift(n * (2 * nu + 1) + n * n)
        n += 1
    return lhs, rhs


def _h_bessel3_arg_conn(order, p):
    # q = p^2; scaled-argument connection with w rational
    z, w = Fraction(2, 3), Fraction(5, 4)
    nu = 1
    u = z / w
    lhs = bessel3_body_in_base(nu, u * u, 0, order)
    rhs = FPS.zero(order)
    n = 0
    while n * n + n <= order:
        coeff = (pochq_fin(w * w, 0, n, order, step=2)
                 * pochq_fin(1, 2, n, order, step=2).reciprocal()
                 * (Fraction(-1) * z * z / (w * w)) ** n)
        piece = coeff * bessel3_body_in_base(nu + n, z * z, 2 * n, order)
        rhs = rhs + piece.shift(n + n * n)
        n += 1
    return lhs, rhs


def laguerre_in_base_scaled2(n: int, al: int, x, xshift: int, order: int, qpow: int = 2) -> FPS:
    """L_n^(al)(x p^(qpow xshift);q) in base p with q = p^qpow."""
    x = Fraction(x)
    if al + xshift < -1:
        raise DomainError("scaled q-Laguerre would leave the series ring")
    pref = pochq_fin(1, qpow * (al + 1), n, order, step=qpow)
    total = FPS.zero(order)
    for k in range(n + 1):
        power = qpow * (al * k + k * k + xshift * k)
        num = FPS.monomial((-x) ** k, power, order)
        den = (pochq_fin(1, qpow, k, order, step=qpow)
               * pochq_fin(1, qpow, n - k, order, step=qpow)
               * pochq_fin(1, qpow * (al + 1), k, order, step=qpow))
        total = total + num * den.reciprocal()
    return pref * total


def _h_bessel3_laguerre_a(order, p):
    # q = p^2, nu = 1 so the -z^2 q^(-nu) argument stays inside the ring
    z = Fraction(2, 3)
    nu, n = 1, 2
    lhs = (laguerre_in_base_scaled2(n, nu, -z * z, -nu, order)
           * pochq(1, 2 * (nu + n + 1), order, step=2))
    rhs = FPS.zero(order)
    k = 0
    while k * k <= order:
        # q^(k(k-nu-n)/2) z^k and the (zz/ (z q^(n/2)))^nu prefactor combine to
        # z^(2k) q^(k^2) with every p-exponent integral
        coeff = ((z * z) ** k
                 * pochq_fin(1, 2, k, order, step=2).reciprocal())
        piece = coeff * bessel3_body_in_base(k + nu, z * z, 2 * (n + k), order)
        rhs = rhs + piece.shift(2 * k * k)
        k += 1
    rhs = rhs * pochq(1, 2 * (n + 1), order, step=2) * pochq(1, 2, order, step=2).reciprocal()
    return lhs, rhs


def _h_bessel3_laguerre_b(order, p):
    z = Fraction(2, 3)
    nu, n = 1, 2
    lhs = bessel3_body_in_base(nu, z * z, 2 * n, order) * pochq(1, 2 * (n + 1), order, step=2)
    rhs = FPS.zero(order)
    k = 0
    while k * (k + 1) <= order:
        coeff = ((-z * z) ** k
                 * (pochq_fin(1, 2, k, order, step=2)
                    * pochq_fin(1, 2 * (nu + n + 1), k, order, step=2)).reciprocal())
        piece = coeff * laguerre_in_base_scaled2(n, nu + k, -z * z, -nu, order)
        rhs = rhs + piece.shift(k * (k + 1))
        k += 1
    rhs = rhs * pochq(1, 2 * (nu + n + 1), order, step=2) * pochq(1, 2, order, step=2)
    return lhs, rhs


_EXACT_HANDLERS = {
    # scalar families (the given rational is the base or a root of it)
    "qbinom_alternating": ("scalar", _h_qbinom1, "q is the given rational; all rows to the order"),
    "qbinom_qinvhermite_zero": ("scalar", _h_qbinom2, "given rational is q^(1/4)"),
    "qbinom_half_base": ("scalar", _h_qbinom3, "given rational is q^(1/2)"),
    # base-variable series identities (given rational specializes the argument)
    "triple_product": ("fps", _h_triple_product, "variable is the base; given rational is z"),
    # argument-variable series identities (given rational is the base q)
    "qhermite_genfun": ("fps", _h_qhermite_genfun, "variable t, x = 1"),
    "qinvhermite_genfun": ("fps", _h_qinvhermite_genfun, "variable t, e^xi = 3/2"),
    "poisson_kernel_qinvhermite": ("fps", _h_poisson_kernel, "variable t, e^xi=3/2, e^eta=2/3"),
    "qlaguerre_genfun": ("fps", _h_qlaguerre_genfun, "variable t, alpha = 1, x = 2/3"),
    "series_cal_e_theta": ("fps", _h_series_cal_e_theta, "variable t, base q^(1/4), x = 1"),
    "airy_mult": ("fps", _h_airy_mult, "variable a, b = 2/3"),
    "airy_unit_expansion": ("fps", _h_airy_unit, "variable a"),
    "airy_two_param": ("fps", _h_airy_two_param, "variable z, w = 1/3"),
    "airy_base_shift": ("fps", _h_airy_base_shift, "variable z"),
    "sw_aq_ratio": ("fps", _h_sw_aq_ratio, "variable x, n = 3"),
    "sw_from_aq": ("fps", _h_sw_from_aq, "variable x, n = 3"),
    "sw_genfun": ("fps", _h_sw_genfun, "variable w, x = 2/3"),
    "laguerre_conn_alpha_beta": ("fps", _h_laguerre_conn, "variable x, alpha=2, beta=1, n=4"),
    "confluent_airy_series": ("fps", _h_confluent_airy, "variable z, a = 1/2"),
    "confluent_bessel_series": ("fps", _h_confluent_bessel,
                                "variable is the base; a=1/2, z=2/3, nu=1"),
    "confluent_param_shift": ("fps", _h_confluent_param_shift,
                          "variable is the base; a=1/2, b=1/3, z=2/5, d=q^2"),
    "confluent_arg_shift": ("fps", _h_confluent_arg_shift, "variable z; a,b,w rational"),
    # base-variable identities (given rational is the working base)
    "laguerre_ratio_series": ("fps", _h_laguerre_1, "variable is the base; x=2/3, alpha=1, n=2"),
    "laguerre_unit_series": ("fps", _h_laguerre_2, "variable is the base; x=2/3, alpha=1, n=2"),
    "laguerre_shift_series": ("fps", _h_laguerre_3, "variable is the base; alpha=2, beta=1"),
    "laguerre_from_sw": ("fps", _h_laguerre_4, "variable is the base; x=2/3, alpha=1, n=2"),
    "sw_from_laguerre": ("fps", _h_laguerre_5, "variable is the base; x=2/3, alpha=1, n=2"),
    "modified_bessel_phi11": ("fps", _h_specialvalue, "variable is the base; z=2/3, nu=1"),
    "bessel_airy_pair_a": ("fps", _h_bessel_airy_a, "variable is the base; z=2/3, nu=1"),
    "bessel_airy_pair_b": ("fps", _h_bessel_airy_b, "variable is the base; z=2/3, nu=1"),
    "bessel_poch_series": ("fps", _h_bessel_poch_series, "variable is the base; z=2/3, nu=1"),
    "bessel_unit_series": ("fps", _h_bessel_unit_series, "variable is the base; z=2/3, nu=1"),
    # kind-2/kind-3 q-Bessel and Laguerre expansions
    "bessel_mult": ("fps", _h_bessel_mult, "variable is the base; w=1/2, z=2/3, nu=1"),
    "bessel_laguerre_genfun": ("fps", _h_bessel_laguerre_genfun,
                               "variable w; z=2/3, nu=1"),
    "bessel_laguerre_inverse": ("fps", _h_bessel_laguerre_inverse,
                                "variable is the base; z=2/3, alpha=1, n=2"),
    "bessel3_product_series": ("fps", _h_bessel3_product_series,
                               "variable is the base q^(1/2); z=2/3, nu=1"),
    "confluent_bessel_sqrt": ("fps", _h_confluent_bessel_sqrt,
                              "variable z, base q^(1/2); nu=1"),
    "laguerre_phi11_series": ("fps", _h_laguerre_phi11_series,
                              "variable x, base q^(1/2); alpha=1, n=2"),
    "bessel_order_shift": ("fps", _h_bessel_order_shift,
                           "variable is the base q^(1/2); z=2/3, nu=2, alpha=1"),
    "bessel3_order_conn": ("fps", _h_bessel3_order_conn,
                           "variable is the base q^(1/2); z=2/3, nu=1, mu=2"),
    "bessel3_arg_conn": ("fps", _h_bessel3_arg_conn,
                         "variable is the base q^(1/2); z=2/3, w=5/4, nu=1"),
    "bessel3_laguerre_a": ("fps", _h_bessel3_laguerre_a,
                           "variable is the base q^(1/2); z=2/3, nu=1, n=2"),
    "bessel3_laguerre_b": ("fps", _h_bessel3_laguerre_b,
                           "variable is the base q^(1/2); z=2/3, nu=1, n=2"),
}

_ALIASES = {
    "qbinom1": "qbinom_alternating",
    "qbinom2": "qbinom_qinvhermite_zero",
    "qbinom3": "qbinom_half_base",
    "eqseries1": "series_cal_e_theta",
}


def exact_identity_ids():
    return sorted(_EXACT_HANDLERS)


def verify_exact(identity_id: str, order: int, q) -> dict:
    """Exact coefficient comparison of a supported identity.

    Returns {'equal': bool, 'first_mismatch': int-or-None}.  q must be a
    rational strictly inside (0,1); see each handler's note for what the
    rational parameterizes when the identity needs a root of the base.
    """
    identity_id = _ALIASES.get(identity_id, identity_id)
    if identity_id not in _EXACT_HANDLERS:
        raise UnsupportedIdentityError(f"no exact handler for {identity_id!r}")
    q = Fraction(q)
    if not 0 < q < 1:
        raise DomainError("the exact oracle needs a rational base in (0,1)")
    if order < 1:
        raise DomainError("order must be >= 1")
    mode, handler, _note = _EXACT_HANDLERS[identity_id]
    result = handler(order, q)
    if mode == "scalar":
        return result
    lhs, rhs = result
    miss = lhs.first_mismatch(rhs)
    return {"equal": miss is None, "first_mismatch": miss}
