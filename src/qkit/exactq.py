"""Exact oracle: truncated formal power series over the rationals.

Identities are verified coefficient by coefficient to a requested order
with zero floating-point error.  Both sides of an identity are power
series in one variable t, and every q-object is built from monomials: a
pair (c, j) stands for c t^j, with c rational and j >= 0 an integer.  The
base and each parameter of an identity are such monomials, so one
convention fixes which quantity the series runs in:

- argument variable: the base is (q, 0) with q the given rational, and
  the argument is (c, 1);
- base variable: the base is (1, 1), so the series runs in q itself and
  the given rational fixes a free parameter, x or z;
- root of the base: the base is (1, 2), so the series runs in p with
  q = p^2 and half-integer powers of q stay integral.

Every q-series is summed by one walker, _walk, the exact twin of
core._m_terms: it sums
prod(a;q)_k q^(e binom(k,2)) (-z)^k inner(k, m) / [(q;q)_k prod(b;q)_k]
with the parameters, the argument z and the base as monomials, so the
t-power of every term is stated there and only there.  It forms each term
from the last by multiplying by the upper binomials 1 - c t^j and dividing
by the lower ones, an O(order) step each; a factor free of t multiplies the
term's scalar, a pair of integers.  The builders (airy_series,
phi11_series, laguerre_series, sw_series, bessel2_body, bessel3_body, and
qpoch_series's Euler sum) and every handler's expansion are walks, in all
three conventions.  Every handler returns its two sides as series; the
scalar families return their rows 0..order as the coefficients.  Where a
handler's inner series at degree k is one series at a shifted argument
(and lower parameter), _shifted builds it once and gives each degree from
it in O(order) steps.

The scalar families a handler sums over its degrees are built as rows
0..N in one pass, never one degree at a time: the q-Hermite and
q^(-1)-Hermite polynomials by their three-term recurrences, the q-binomial
rows by the q-Pascal rule, and the Stieltjes-Wigert and q-Laguerre
polynomials and the q-binomial sums as Cauchy products of one row of
1/(q;q)_k with a row of weighted terms.  The handler's expansion then
reads degree n as rows[n].  The per-degree sums that define them
(qhermite_inv_r, qlaguerre_r, qbinom_row) stay as the references the tests
compare the rows with.

The arithmetic is fraction-free: an FPS holds integer numerators over one
positive denominator, reduced once per operation, the scalar Pochhammers
multiply integers and form one Fraction at the end, and _walk keeps its
scalars as integer pairs.  The constants the handlers pass in
(parameters, powers of the base) and the rational polynomial values stay
Fractions; a Cauchy product of two rows sums their integer numerators
over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count
from math import gcd, lcm
from operator import mul

from .errors import DomainError, UnsupportedIdentityError

__all__ = ["FPS", "qpoch_series", "verify_exact", "exact_identity_ids"]


class FPS:
    """Dense truncated power series c_0..c_N with rational coefficients.

    The coefficients are held as integer numerators ``num`` over one
    positive denominator ``den``, c_i = num[i]/den, kept canonical:
    gcd(den, *num) = 1 after every operation, so two equal series hold
    the same integers.  Arithmetic works on the integers alone and reduces
    once per operation, not once per coefficient.  ``coeffs`` is the
    coefficient list as reduced Fractions, built afresh on every read.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs):
        self.num, self.den = _over_lcm([c if type(c) is Fraction else Fraction(c)
                                        for c in coeffs])

    @classmethod
    def zero(cls, order):
        return cls([0] * (order + 1))

    @classmethod
    def const(cls, value, order):
        return cls([value] + [0] * order)

    @classmethod
    def monomial(cls, value, power, order):
        if power < 0:
            raise DomainError("negative powers are outside the series ring")
        c = [0] * (order + 1)
        if power <= order:
            c[power] = value
        return cls(c)

    @property
    def coeffs(self):
        den = self.den
        return [Fraction(c, den) for c in self.num]

    @property
    def order(self):
        return len(self.num) - 1

    def __add__(self, other):
        a, ad = self.num, self.den
        if isinstance(other, FPS):
            b, bd = other.num, other.den
            g = gcd(ad, bd)
            sa, sb = bd // g, ad // g
            return _fps([x * sa + y * sb for x, y in zip(a, b)], ad * sa)
        f = _rational(other)
        out = [x * f.denominator for x in a]
        out[0] += f.numerator * ad
        return _fps(out, ad * f.denominator)

    __radd__ = __add__

    def __neg__(self):
        return _fps([-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, FPS) else -_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a = self.num
        if not isinstance(other, FPS):
            f = _rational(other)
            fn = f.numerator
            return _fps([c * fn for c in a], self.den * f.denominator)
        b = other.num
        n = min(len(a), len(b))
        return _fps([sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n)],
                    self.den * other.den)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by the k-th power of the variable."""
        if k == 0:
            return self
        n = len(self.num)
        return _fps([0] * min(k, n) + self.num[: max(n - k, 0)], self.den)

    def reciprocal(self):
        """1/f by y_m = -sum_k a_k a_0^(k-1) y_(m-k), y_0 = 1, over the integers.

        With f = A/den, A = sum a_k t^k, the m-th coefficient of 1/A is
        y_m / a_0^(m+1), so 1/f has numerators den y_m a_0^(N-m) over a_0^(N+1).
        """
        a = self.num
        a0 = a[0]
        if a0 == 0:
            raise DomainError("reciprocal needs a nonzero constant term")
        n = len(a) - 1
        w, p = [0], 1  # w_k = a_k a_0^(k-1)
        for k in range(1, n + 1):
            w.append(a[k] * p)
            p *= a0
        y = [1]
        for m in range(1, n + 1):
            y.append(-sum(map(mul, w[1 : m + 1], y[::-1])))
        den, p = self.den, 1
        out = [0] * (n + 1)
        for m in range(n, -1, -1):
            out[m] = den * y[m] * p
            p *= a0
        if p < 0:
            out, p = [-c for c in out], -p
        return _fps(out, p)

    def first_mismatch(self, other):
        a, ad, b, bd = self.num, self.den, other.num, other.den
        for i, (x, y) in enumerate(zip(a, b)):
            if x * bd != y * ad:
                return i
        return None

    def __eq__(self, other):
        return isinstance(other, FPS) and self.first_mismatch(other) is None

    def __repr__(self):
        return f"FPS({self.coeffs[:6]}...)"


def _fps(num, den):
    """The series num/den (den > 0) in canonical form, without __init__."""
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    out = object.__new__(FPS)
    out.num, out.den = num, den
    return out


def _over_lcm(fracs):
    """Fractions as integer numerators over the lcm of their reduced denominators.

    That lcm leaves no common factor to divide out.
    """
    den = lcm(*(c.denominator for c in fracs))
    return [c.numerator * (den // c.denominator) for c in fracs], den


def _rational(x):
    """An int or Fraction as it is, anything else as a Fraction."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


# --- scalar q-arithmetic over the integers -----------------------------------

def qpoch_r(a, q, n: int) -> Fraction:
    """(a;q)_n for rationals a = c/d and q = p/b.

    It is prod_k (d b^k - c p^k) / prod_k d b^k, k < n, multiplied out in
    integers and made one Fraction at the end.
    """
    c, d, p, b = a.numerator, a.denominator, q.numerator, q.denominator
    top = bot = 1
    for _ in range(n):
        top *= d - c
        bot *= d
        c *= p
        d *= b
    return Fraction(top, bot)


def qfac_r(q, n: int) -> Fraction:
    return qpoch_r(q, q, n)


def qbinom_row(n: int, q: Fraction) -> list:
    """[n choose k]_q for k = 0..n by the ratio [n,k+1] = [n,k] (1-q^(n-k))/(1-q^(k+1))."""
    row = [Fraction(1)]
    for k in range(n):
        row.append(row[-1] * (1 - q ** (n - k)) / (1 - q ** (k + 1)))
    return row


# --- rational polynomial values: the defining sums, one degree at a time ------

def qhermite_inv_r(n: int, e_xi: Fraction, q: Fraction) -> Fraction:
    """h_n at sinh(xi) with e^(xi) rational; q^(k(k-n)) stays rational."""
    total = Fraction(0)
    for k, binom in enumerate(qbinom_row(n, q)):
        total += binom * (-1) ** k * q ** (k * k) / q ** (k * n) * e_xi ** (n - 2 * k)
    return total


def qlaguerre_r(n: int, alpha: int, x: Fraction, q: Fraction) -> Fraction:
    pref = qpoch_r(q ** (alpha + 1), q, n)
    total = Fraction(0)
    for k in range(n + 1):
        total += (q ** (alpha * k + k * k) * (-x) ** k
                  / (qfac_r(q, k) * qfac_r(q, n - k) * qpoch_r(q ** (alpha + 1), q, k)))
    return pref * total


# --- scalar families: rows 0..n in one pass ----------------------------------

def _qpoch_rows(a, q, n: int) -> list:
    """(a;q)_k for k = 0..n, each from the last by its factor 1 - a q^(k-1)."""
    rows = [Fraction(1)]
    for _ in range(n):
        rows.append(rows[-1] * (1 - a))
        a *= q
    return rows


def _qinv_rows(q, n: int) -> list:
    """1/(q;q)_k for k = 0..n."""
    return [1 / f for f in _qpoch_rows(q, q, n)]


def _cauchy(a, b) -> list:
    """sum_(k <= n) a_k b_(n-k) for n < min(len(a), len(b)), summed in integers."""
    (an, ad), (bn, bd) = _over_lcm(a), _over_lcm(b)
    den = ad * bd
    return [Fraction(sum(map(mul, an[: n + 1], bn[n::-1])), den)
            for n in range(min(len(a), len(b)))]


def _qbinom_rows(q, n: int) -> list:
    """The rows [m choose k]_q, m = 0..n, by [m,k] = [m-1,k-1] + q^k [m-1,k]."""
    qk = [q**k for k in range(n + 1)]
    rows = [[Fraction(1)]]
    for _ in range(n):
        last = rows[-1]
        rows.append([last[0]] + [last[k - 1] + qk[k] * last[k] for k in range(1, len(last))]
                    + [last[0]])
    return rows


def _qhermite_rows(x, q, n: int) -> list:
    """H_k(x|q) for k = 0..n by H_(k+1) = 2x H_k - (1 - q^k) H_(k-1)."""
    rows, qk = [Fraction(1), 2 * Fraction(x)], 1
    for _ in range(1, n):
        qk *= q
        rows.append(2 * x * rows[-1] - (1 - qk) * rows[-2])
    return rows[: n + 1]


def _qhermite_inv_rows(e_xi, q, n: int) -> list:
    """h_k(sinh xi|q) for k = 0..n by h_(k+1) = 2 sinh(xi) h_k - (q^(-k) - 1) h_(k-1).

    Ismail and Masson's recurrence; 2 sinh(xi) = e^xi - e^(-xi) is rational with e^xi.
    """
    two_x = e_xi - 1 / e_xi
    rows, qk = [Fraction(1), two_x], Fraction(1)
    for _ in range(1, n):
        qk /= q
        rows.append(two_x * rows[-1] - (qk - 1) * rows[-2])
    return rows[: n + 1]


def _sw_rows(x, q, n: int) -> list:
    """S_k(x;q) = sum_j q^(j^2) (-x)^j / ((q;q)_j (q;q)_(k-j)) for k = 0..n."""
    inv = _qinv_rows(q, n)
    return _cauchy([q ** (j * j) * (-x) ** j * c for j, c in enumerate(inv)], inv)


def _qlaguerre_rows(alpha, x, q, n: int) -> list:
    """L_k^(alpha)(x;q) for k = 0..n as (q^(alpha+1);q)_k times one Cauchy product.

    The sum is sum_j q^(alpha j + j^2) (-x)^j / ((q;q)_j (q^(alpha+1);q)_j (q;q)_(k-j)).
    """
    inv, top = _qinv_rows(q, n), _qpoch_rows(q ** (alpha + 1), q, n)
    w = [q ** (alpha * j + j * j) * (-x) ** j * c / a for j, (c, a) in enumerate(zip(inv, top))]
    return [a * s for a, s in zip(top, _cauchy(w, inv))]


# --- series builders over monomials (c, j) = c t^j ---------------------------

_BASE = (1, 1)  # the base is the series variable
_ROOT = (1, 2)  # the series variable is a square root of the base


def _pow(mono, e):
    """A monomial to an integer power."""
    return (mono[0] ** e, mono[1] * e)


def _times(a, b):
    """The product of two monomials."""
    return (a[0] * b[0], a[1] + b[1])


def _mul_binomial(s, cn, cd, j):
    """s times 1 - c t^j, c = cn/cd (cd > 0): num[i] cd - cn num[i-j] over den cd."""
    a = s.num
    return _fps([x * cd - cn * a[i - j] if i >= j else x * cd for i, x in enumerate(a)],
                s.den * cd)


def _div_binomial(s, cn, cd, j):
    """s over 1 - c t^j (j > 0), c = cn/cd (cd > 0), by y_i = x_i + c y_(i-j).

    The numerators are first scaled by cd^K, K = (len - 1) // j, the most factors c
    that reach one coefficient, so that every y_(i-j) the step reads is divisible by
    cd and the recurrence stays in integers.
    """
    scale = cd ** ((len(s.num) - 1) // j)
    y = [x * scale for x in s.num]
    for i in range(j, len(y)):
        y[i] += cn * (y[i - j] // cd)
    return _fps(y, s.den * scale)


def _walk(alphas, betas, q, e, z, order, inner=None, n=None):
    """sum_k prod(a;q)_k q^(e binom(k,2)) (-z)^k inner(k, m) / [(q;q)_k prod(b;q)_k].

    The exact twin of ``core._m_terms``, over monomials, exact to the order.  Term k
    is t^p(k) with p(k) = zj k + e qj binom(k,2), the one place its power is stated,
    times a rational s_k, a series P_k of constant term 1 and inner(k, m): a series
    to the order m = order - p(k) or a constant (None is 1).  Term k follows from
    term k-1 by its ratio: each factor 1 - c t^j, multiplied for an upper parameter
    and divided for a lower one or for 1 - q^k, is an O(m) step on P_k, and a factor
    with j = 0 multiplies or divides s_k instead.  An upper q cancels (q;q)_k.

    Every scalar of the loop is a pair of integers: s_k = sn/sd, q^(k-1), each
    parameter times q^(k-1) and each j = 0 factor 1 - c.  The ratio's factors are
    multiplied into sn and sd and the pair is reduced by one gcd per term.

    With n=None the walk is infinite, p(k) must grow, and it ends once p(k) passes
    the order.  With n it ends at k = n and term k also carries 1/(q;q)_(n-k), the
    upper parameter q^(-n) of a terminating series: the factors 1 - q^(n-k+1) of
    (q;q)_n/(q;q)_(n-k) are walked and the sum is divided by (q;q)_n at the end.  A
    term of negative power raises DomainError, as does a lower parameter at a pole.
    """
    (zc, zj), (qc, qj) = z, q
    alphas = list(alphas)
    lower_q = q not in alphas
    if not lower_q:
        alphas.remove(q)
    ups = [(c.numerator, c.denominator, j) for c, j in alphas]
    downs = [(c.numerator, c.denominator, j) for c, j in betas]
    if lower_q:
        downs.append((qc.numerator, qc.denominator, qj))  # q^k = q q^(k-1)
    qn, qd, zn, zd = qc.numerator, qc.denominator, -zc.numerator, zc.denominator
    out, den = [0] * (order + 1), 1
    sn = sd = kn = kd = 1  # s_k and q^(k-1)
    p = 0
    P = _fps([1] + [0] * order, 1)
    if n is None and not (zj or e * qj):
        raise DomainError("the terms of an infinite sum must gain powers of t")
    for k in count() if n is None else range(n + 1):
        if k:  # the ratio of term k to term k-1, with kn/kd = q^(k-1)
            sn *= zn * kn**e
            sd *= zd * kd**e
            p += zj + e * qj * (k - 1)
            if p < 0:
                raise DomainError("a term would leave the series ring")
            if p > order:
                break
            P = _fps(P.num[: order - p + 1], P.den)
            shift = qj * (k - 1)
            for cn, cd, j in ups:
                cn, cd = cn * kn, cd * kd
                if j + shift:
                    P = _mul_binomial(P, cn, cd, j + shift)
                else:
                    sn *= cd - cn
                    sd *= cd
            if n is not None:  # the factor 1 - q^(n-k+1)
                cn, cd = qn ** (n - k + 1), qd ** (n - k + 1)
                if qj:
                    P = _mul_binomial(P, cn, cd, qj * (n - k + 1))
                else:
                    sn *= cd - cn
                    sd *= cd
            for cn, cd, j in downs:
                cn, cd = cn * kn, cd * kd
                if j + shift:
                    P = _div_binomial(P, cn, cd, j + shift)
                elif cn == cd:
                    raise DomainError("a lower parameter meets a pole")
                else:
                    sn *= cd
                    sd *= cd - cn
            if not sn:
                break  # every later term vanishes too
            g = gcd(sn, sd)
            if sd < 0:
                g = -g
            sn //= g
            sd //= g
            kn *= qn
            kd *= qd
        term, fn, fd = P, sn, sd
        if inner is not None:
            x = inner(k, order - p)
            if isinstance(x, FPS):
                term = P * x
            else:
                fn, fd = fn * x.numerator, fd * x.denominator
        fd *= term.den
        grow = fd // gcd(den, fd)
        if grow != 1:
            out = [c * grow for c in out]
            den *= grow
        scale = den // fd * fn
        for i, c in zip(range(p, order + 1), term.num):
            out[i] += c * scale
    total = _fps(out, den)
    if n is None:
        return total
    if not qj:
        return total * (1 / qfac_r(qc, n))
    for i in range(1, n + 1):
        total = _div_binomial(total, qn**i, qd**i, qj * i)
    return total


def _shifted(base, r, b=None):
    """inner(k, m) for _walk: base with its argument times r^k, to the order m.

    base is a series whose coefficient j carries its argument to the power j, so
    coefficient j at shift k is coefficient j times r^(kj).  With b, base is a phi11
    whose t is all in its argument and whose lower parameter b shifts to b r^k with
    it; since (b r^k;r)_j = (b;r)_(k+j)/(b;r)_k, coefficient j also gains
    (b;r)_j/(b r^k;r)_j.  In integers, with r = rn/rd, b = bn/bd and
    w_l = bd rd^l - bn rn^l, that is rn^(kj) prod_(l<j) w_l / prod_(k<=l<k+j) w_l:
    O(m) integer steps per degree against the O(m^2) of a fresh walk.
    """
    rn, rd = r.numerator, r.denominator
    if b is not None:
        bn, bd = b.numerator, b.denominator
        base = _fps([c * f for c, f in zip(base.num, accumulate(
            (bd * rd**l - bn * rn**l for l in range(base.order)), mul, initial=1))], base.den)
    num, den = base.num, base.den

    def inner(k, m):
        # coefficient j is num[j] rk^j / (den w[0] ... w[j-1]); all over den w[0] ... w[m-1]
        w = [rd**k] * m if b is None else [bd * rd**l - bn * rn**l for l in range(k, k + m)]
        rk, tail, out = rn**k, 1, [0] * (m + 1)
        for j in range(m, -1, -1):
            out[j] = num[j] * rk**j * tail
            if j:
                tail *= w[j - 1]
        if tail < 0:
            out, tail = [-c for c in out], -tail
        return _fps(out, den * tail)

    return inner


def qpoch_series(a, q, n, order):
    """(a;q)_n for monomials a and q; n=None means the infinite product.

    A constant symbol (neither a nor q carries t) is a Fraction.  The
    infinite product is Euler's sum_k (-a)^k q^binom(k,2)/(q;q)_k, a walk; a
    finite one is the product of its factors 1 - a q^k, the ones past the
    order being 1 there.
    """
    (ac, aj), (qc, qj) = a, q
    if aj == qj == 0:
        if n is None:
            raise DomainError("infinite product needs the variable in its argument")
        return qpoch_r(ac, qc, n)
    if n is None:
        return _walk((), (), q, 1, a, order)
    an, ad, qn, qd = ac.numerator, ac.denominator, qc.numerator, qc.denominator
    out = _fps([1] + [0] * order, 1)
    for k in range(n):
        if aj + qj * k > order:
            break
        out = _mul_binomial(out, an * qn**k, ad * qd**k, aj + qj * k)
    return out


def _qpoch_inv(a, q, order):
    """1/(a;q)_inf = sum_k a^k/(q;q)_k."""
    return _walk((), (), q, 0, (-a[0], a[1]), order)


def airy_series(c, q, order):
    """A_q(c) = sum_k q^(k^2) (-c)^k / (q;q)_k, a walk with argument c q."""
    return _walk((), (), q, 2, _times(c, q), order)


def phi11_series(a, b, z, q, order):
    """1phi1(a; b; q, z) = sum_n (a;q)_n (-1)^n q^binom(n,2) z^n / ((q;q)_n (b;q)_n)."""
    return _walk((a,), (b,), q, 1, z, order)


def laguerre_series(n, al, x, q, order):
    """L_n^(al)(x;q) as (q^(al+1);q)_n sum_k q^(al k + k^2) (-x)^k / den_k.

    den_k = (q;q)_k (q;q)_(n-k) (q^(al+1);q)_k: a terminating walk with argument
    x q^(al+1).
    """
    qa = _pow(q, al + 1)
    return qpoch_series(qa, q, n, order) * _walk((), (qa,), q, 2, _times(x, qa), order, n=n)


def sw_series(n, x, q, order):
    """S_n(x;q) = sum_k q^(k^2) (-x)^k / ((q;q)_k (q;q)_(n-k))."""
    return _walk((), (), q, 2, _times(x, q), order, n=n)


def bessel2_body(mu, c, q, order):
    """sum_n (-c)^n q^(n(n+mu)) (q^(mu+n+1);q)_inf / (q;q)_n.

    Equals (q;q)_inf (2/z)^mu J2_mu(z;q) with (z/2)^2 = c.  It is
    (q^(mu+1);q)_inf times a walk with lower parameter q^(mu+1) and argument
    c q^(mu+1).
    """
    qm = _pow(q, mu + 1)
    return qpoch_series(qm, q, None, order) * _walk((), (qm,), q, 2, _times(c, qm), order)


def bessel3_body(mu, c, q, order):
    """sum_n q^binom(n+1,2) (-c)^n (q^(mu+n+1);q)_inf / (q;q)_n.

    Equals (q;q)_inf (2/w)^mu J3_mu(w;q) with (w/2)^2 = c.  It is
    (q^(mu+1);q)_inf times a walk with lower parameter q^(mu+1) and argument c q.
    """
    qm = _pow(q, mu + 1)
    return qpoch_series(qm, q, None, order) * _walk((), (qm,), q, 1, _times(c, q), order)


# --- identity handlers: (order, rational) -> (lhs, rhs) ------------------------

def _h_qbinom1(order, q):
    lhs = [sum(row[::2]) - sum(row[1::2]) for row in _qbinom_rows(q, order)]
    fac, fac2 = _qpoch_rows(q, q, order), _qpoch_rows(q * q, q * q, order // 2)
    rhs = [0 if n % 2 else f / fac2[n // 2] for n, f in enumerate(fac)]
    return FPS(lhs), FPS(rhs)


def _h_qbinom2(order, p):
    # the rational is q^(1/4), so q^(n(n-s)) and q^(-s^2/4) are rational
    # q^(n(n-s)) = q^(n^2/2) q^((s-n)^2/2) / q^(s^2/2) makes row s a Cauchy product
    q = p**4
    inv = _qinv_rows(q, order)
    half = [p ** (2 * n * n) * c for n, c in enumerate(inv)]
    conv = _cauchy([(-1) ** n * c for n, c in enumerate(half)], half)
    lhs = [c / p ** (2 * s * s) for s, c in enumerate(conv)]
    inv2 = _qinv_rows(q * q, order // 2)
    rhs = [0 if s % 2 else (-1) ** (s // 2) * inv2[s // 2] / p ** (s * s)
           for s in range(order + 1)]
    return FPS(lhs), FPS(rhs)


def _h_qbinom3(order, p):
    # the rational is q^(1/2)
    q = p * p
    inv = _qinv_rows(q, order)
    lhs = _cauchy([p**k * c for k, c in enumerate(inv)], inv)
    return FPS(lhs), FPS(_qinv_rows(p, order))


def _h_triple_product(order, z):
    # the n < 0 half as the n > 0 half at 1/z; an upper q cancels (q;q)_n
    q2 = (1, 2)
    lhs = (_walk((q2,), (), q2, 1, (-z, 1), order) + _walk((q2,), (), q2, 1, (-1 / z, 1), order)
           - 1)
    rhs = (qpoch_series(q2, q2, None, order) * qpoch_series((-z, 1), q2, None, order)
           * qpoch_series((-1 / z, 1), q2, None, order))
    return lhs, rhs


def _h_qhermite_genfun(order, q):
    # x = 1 (theta = 0)
    Q, rows = (q, 0), _qhermite_rows(1, q, order)
    lhs = _walk((), (), Q, 0, (-1, 1), order, lambda n, m: rows[n])
    r = _qpoch_inv((1, 1), Q, order)
    return lhs, r * r


def _h_qinvhermite_genfun(order, q):
    rho, Q = Fraction(3, 2), (q, 0)  # e^xi
    lhs = qpoch_series((-rho, 1), Q, None, order) * qpoch_series((1 / rho, 1), Q, None, order)
    rows = _qhermite_inv_rows(rho, q, order)
    rhs = _walk((), (), Q, 1, (-1, 1), order, lambda n, m: rows[n])
    return lhs, rhs


def _h_poisson_kernel(order, q):
    rho, sig, Q = Fraction(3, 2), Fraction(2, 3), (q, 0)  # e^xi, e^eta
    rows = [a * b for a, b in zip(_qhermite_inv_rows(rho, q, order),
                                  _qhermite_inv_rows(sig, q, order))]
    lhs = _walk((), (), Q, 1, (-1, 1), order, lambda n, m: rows[n])
    num = (qpoch_series((-rho * sig, 1), Q, None, order)
           * qpoch_series((-1 / (rho * sig), 1), Q, None, order)
           * qpoch_series((rho / sig, 1), Q, None, order)
           * qpoch_series((sig / rho, 1), Q, None, order))
    return lhs, num * _qpoch_inv((1 / q, 2), Q, order)


def _h_qlaguerre_genfun(order, q):
    al, x, Q = 1, Fraction(2, 3), (q, 0)
    rows = _qlaguerre_rows(al, x, q, order)
    lhs = _walk((Q,), (), Q, 0, (-1 / q, 1), order, lambda n, m: rows[n])
    rhs = _qpoch_inv((1 / q, 1), Q, order) * phi11_series((-x, 0), (0, 0), (q, 1), Q, order)
    return lhs, rhs


def _h_series_cal_e_theta(order, p):
    # the rational is q^(1/4); x = 1 (theta = 0)
    q = p**4
    Q, q2 = (q, 0), (q * q, 0)
    damp = _qpoch_inv((q, 2), q2, order)
    rows = [p ** (n * n) * h for n, h in enumerate(_qhermite_rows(1, q, order))]
    lhs = _walk((), (), Q, 0, (-1, 1), order, lambda n, m: rows[n])
    euler = _shifted(qpoch_series((-q, 2), q2, None, order), p * p)  # t^(2j) gains q^(kj)
    rhs = _walk(((-1, 0),), (), Q, 0, (-1, 1), order, lambda k, m: euler(k, m) * p ** (k * k))
    return lhs * damp, rhs * damp


def _h_airy_mult(order, q):
    b, Q = Fraction(2, 3), (q, 0)
    rhs = _walk(((b, 0),), (), Q, 1, (-q, 1), order, _shifted(airy_series((1, 1), Q, order), q))
    return airy_series((b, 1), Q, order), rhs


def _h_airy_unit(order, q):
    Q = (q, 0)
    rhs = _walk((), (), Q, 1, (-q, 1), order, _shifted(airy_series((1, 1), Q, order), q))
    return FPS.const(1, order), rhs


def _h_airy_two_param(order, q):
    w, Q = Fraction(1, 3), (q, 0)
    rhs = _walk(((w, 0),), (), Q, 2, (q, 1), order, _shifted(airy_series((w, 1), Q, order), q * q))
    return airy_series((1, 1), Q, order), rhs


def _h_airy_base_shift(order, q):
    Q, q2 = (q, 0), (q * q, 0)
    lhs = airy_series((1, 1), Q, order) * _qpoch_inv((q * q, 1), q2, order)
    return lhs, phi11_series((0, 0), (q * q, 1), (q, 1), q2, order)


def _h_sw_aq_ratio(order, q):
    n, Q = 3, (q, 0)
    b = (-(q ** (n + 1)), 1)
    lhs = sw_series(n, (1, 1), Q, order) * qfac_r(q, n) * _qpoch_inv(b, Q, order)
    return lhs, _walk((), (b,), Q, 2, (q, 1), order)


def _h_sw_from_aq(order, q):
    n, Q = 3, (q, 0)
    rhs = _walk((), (), Q, 1, (-(q ** (n + 1)), 1), order,
                _shifted(airy_series((1, 1), Q, order), q))
    return sw_series(n, (1, 1), Q, order) * qfac_r(q, n), rhs


def _h_sw_genfun(order, q):
    x, Q = Fraction(2, 3), (q, 0)
    rows = _sw_rows(x, q, order)
    lhs = _walk((Q,), (), Q, 0, (-1, 1), order, lambda n, m: rows[n])
    return lhs, airy_series((x, 1), Q, order) * _qpoch_inv((1, 1), Q, order)


def _h_laguerre_conn(order, q):
    al, be, n = 2, 1, 4
    x, Q = (1, 1), (q, 0)
    lhs = laguerre_series(n, al, x, Q, order) * (1 / q ** (al * n))
    rhs = sum((laguerre_series(k, be, x, Q, order)
               * (qpoch_r(q ** (al - be), q, n - k) / qfac_r(q, n - k)
                  / q ** (al * (n - k)) / q ** (be * k)) for k in range(n + 1)),
              FPS.zero(order))
    return lhs, rhs


def _h_laguerre_1(order, x):
    al, n, q = 1, 2, _BASE
    top = (-x, al + n + 1)
    lhs = (qpoch_series((1, al + n + 1), q, None, order) * qpoch_series(q, q, n, order)
           * laguerre_series(n, al, (x, 0), q, order)
           * _qpoch_inv(top, q, order))
    return lhs, _walk(((-x, 0),), (top,), q, 1, (1, al + 1), order)


def _h_laguerre_2(order, x):
    al, n, q = 1, 2, _BASE
    lhs = qpoch_series((1, al + 1), q, n, order)
    for i in range(1, n + 1):  # over (q;q)_n, as a terminating walk ends
        lhs = _div_binomial(lhs, 1, 1, i)
    rhs = _walk(((1, n),), ((1, al + n + 1),), q, 1, (-x, al + 1), order,
                lambda k, m: laguerre_series(n, al + k, (x, 0), q, m))
    return lhs, rhs


def _h_laguerre_3(order, x):
    al, be, n, q = 1, 2, 2, _BASE
    lhs = (qpoch_series((1, al + n + 1), q, None, order)
           * _qpoch_inv((1, be + n + 1), q, order)
           * laguerre_series(n, al, (x, 0), q, order))
    # x q^(al-be): the shifted order be+k >= 2 keeps every power nonnegative
    rhs = _walk(((1, be - al),), ((1, be + n + 1),), q, 1, (1, al + 1), order,
                lambda k, m: laguerre_series(n, be + k, (x, al - be), q, m))
    return lhs, rhs


def _h_laguerre_4(order, x):
    al, n, q = 1, 2, _BASE
    rhs = _walk((), (), q, 1, (1, al + 1), order, lambda k, m: sw_series(n, (x, k + al), q, m))
    rhs = rhs * _qpoch_inv((1, al + n + 1), q, order)
    return laguerre_series(n, al, (x, 0), q, order), rhs


def _h_laguerre_5(order, x):
    al, n, q = 1, 2, _BASE
    lhs = (sw_series(n, (x, al), q, order)
           * _qpoch_inv((1, al + n + 1), q, order))
    rhs = _walk((), ((1, al + n + 1),), q, 2, (-1, al + 1), order,
                lambda k, m: laguerre_series(n, al + k, (x, 0), q, m))
    return lhs, rhs


def _h_specialvalue(order, z):
    nu, q = 1, _BASE
    rhs = _walk(((z * z, 0),), (), q, 1, (1, nu + 1), order)
    return bessel2_body(nu, (-z * z, 0), q, order), rhs


def _h_bessel_airy_a(order, z):
    nu, q = 1, _BASE
    rhs = _walk((), (), q, 1, (1, nu + 1), order,
                lambda k, m: airy_series((z * z, nu + k), q, m))
    return bessel2_body(nu, (z * z, 0), q, order), rhs


def _h_bessel_airy_b(order, z):
    nu, q = 1, _BASE
    rhs = _walk((), (), q, 2, (-1, nu + 1), order,
                lambda k, m: bessel2_body(k + nu, (z * z, 0), q, m))
    return airy_series((z * z, nu), q, order), rhs


def _h_bessel_poch_series(order, z):
    nu, q, c = 1, _BASE, z * z / 4
    rhs = _walk(((-c, 0),), (), q, 1, (1, nu + 1), order)
    return bessel2_body(nu, (c, 0), q, order), rhs


def _h_bessel_unit_series(order, z):
    nu, q, c = 1, _BASE, z * z / 4
    rhs = _walk((), (), q, 1, (-c, nu + 1), order,
                lambda k, m: bessel2_body(k + nu, (c, 0), q, m))
    return qpoch_series((1, nu + 1), q, None, order), rhs


def _h_confluent_airy(order, q):
    a, Q, q2 = Fraction(1, 2), (q, 0), (q * q, 0)
    lhs = qpoch_series((1, 1), Q, None, order) * phi11_series((a, 0), (1, 1), (-1, 1), Q, order)
    rhs = _walk((), (), q2, 2, (-q, 2), order, _shifted(airy_series((a / q, 1), Q, order), q * q))
    return lhs, rhs


def _h_confluent_param_shift(order, z):
    # d = q^2, so every sum truncates in the order
    a, b, q = Fraction(1, 2), Fraction(1, 3), _BASE
    rhs = _walk(((1, 2),), ((b, 2),), q, 1, (b, 0), order,
                lambda k, m: phi11_series((a, 0), (b, k + 2), (z, k), q, m))
    rhs = rhs * qpoch_series((b, 0), q, 2, order).reciprocal()
    return phi11_series((a, 0), (b, 0), (z, 0), q, order), rhs


def _h_confluent_arg_shift(order, q):
    a, b, w, Q = Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), (q, 0)
    rhs = _walk(((w, 0),), ((b, 0),), Q, 1, (1, 1), order,
                _shifted(phi11_series((a, 0), (b, 0), (w, 1), Q, order), q, b))
    return phi11_series((a * w, 0), (b, 0), (1, 1), Q, order), rhs


def _h_confluent_bessel(order, z):
    a, nu, q = Fraction(1, 2), 1, _BASE
    lhs = (qpoch_series((1, nu + 1), q, None, order)
           * phi11_series((-a, nu + 1), (1, nu + 1), (z, 0), q, order))
    rhs = _walk((), (), q, 1, (z, 0), order,
                lambda k, m: bessel2_body(nu + k, (a * z, 0), q, m))
    return lhs, rhs


def _h_bessel_mult(order, z):
    w, nu, q = Fraction(1, 2), 1, _BASE
    rhs = _walk(((z * z, 0),), (), q, 1, (-w * w / 4, nu + 1), order,
                lambda k, m: bessel2_body(nu + k, (w * w / 4, 0), q, m))
    return bessel2_body(nu, (w * w * z * z / 4, 0), q, order), rhs


def _h_bessel_laguerre_genfun(order, q):
    # S((wz)^2) = (w^2;q)_inf sum_n L_n w^(2n)/(q^(nu+1);q)_n in the variable w
    z, nu, Q = Fraction(2, 3), 1, (q, 0)
    b = (q ** (nu + 1), 0)
    lhs = _walk((), (b,), Q, 2, (z * z * q ** (nu + 1), 2), order)
    rows = _qlaguerre_rows(nu, z * z, q, order // 2)  # degree n carries w^(2n)
    rhs = _walk((Q,), (b,), Q, 0, (-1, 2), order, lambda n, m: rows[n])
    return lhs, qpoch_series((1, 2), Q, None, order) * rhs


def _h_bessel_laguerre_inverse(order, z):
    # L_n^(al)(z^2/4) (z/2)^al (q^(al+n+1);q)_inf (q;q)_inf =
    #   (q^(n+1);q)_inf sum_k q^binom(k+1,2) (z q^(al+n)/2)^k (z/2)^(al+k) B2body-parts
    al, n, q, c = 1, 2, _BASE, z * z / 4
    lhs = (laguerre_series(n, al, (c, 0), q, order) * (z / 2) ** al
           * qpoch_series((1, al + n + 1), q, None, order))
    rhs = _walk((), (), q, 1, (-c, al + n + 1), order,
                lambda k, m: bessel2_body(k + al, (c, 0), q, m))
    rhs = (rhs * (z / 2) ** al * qpoch_series((1, n + 1), q, None, order)
           * _qpoch_inv(q, q, order))
    return lhs, rhs


def _h_bessel3_product_series(order, z):
    nu, q = 1, _ROOT
    rhs = _walk((), (), q, 2, (-1, 2 * nu + 2), order,
                lambda n, m: bessel3_body(nu + n, (z * z, 2 * n), q, m))
    return qpoch_series((z * z, 2), q, None, order), rhs


def _h_confluent_bessel_sqrt(order, p):
    # variable z; the rational is q^(1/2)
    q, nu, Q = p * p, 1, (p * p, 0)
    b = (q ** (nu + 1), 0)
    lhs = _walk((), (b,), Q, 2, (q ** (nu + 2) / 4, 2), order)
    # the upper parameter -q^(nu+1) z/4 carries the variable
    rhs = _walk((), (b,), Q, 2, (-q, 1), order,
                lambda k, m: phi11_series((-(q ** (nu + 1)) / 4, 1), (q ** (nu + k + 1), 0),
                                          (q ** (k + 1), 1), Q, m))
    return lhs, rhs


def _h_laguerre_phi11_series(order, p):
    # variable x; the rational is q^(1/2), so (-q^(-al-n-1/2);q)_k is rational
    q, al, n, Q = p * p, 1, 2, (p * p, 0)
    lhs = laguerre_series(n, al, (1, 1), Q, order) * (qfac_r(q, n) / qpoch_r(q ** (al + 1), q, n))
    rhs = _walk(((-(p ** (-2 * al - 2 * n - 1)), 0),), ((q ** (al + 1), 0),), Q, 1,
                (-(p ** (2 * al + 2 * n + 2)), 1), order,
                _shifted(phi11_series((-(p ** (2 * al + 1)), 0), (q ** (al + 1), 0), (p, 1), Q,
                                      order), q, q ** (al + 1)))
    return lhs, rhs


def _h_bessel_order_shift(order, z):
    # the terminating factor is rewritten as
    # (q^-nu;q)_k = (-1)^k q^(binom(k,2)-nu k) (q^(nu-k+1);q)_k so that all
    # exponents stay nonnegative, and (q^(nu-k+1);q)_k = (q;q)_nu/(q;q)_(nu-k)
    # is the walk to k = nu times (q;q)_nu; both sides carry a common p^(nu alpha)
    nu, al, q, c = 2, 1, _ROOT, z * z / 4
    lhs = bessel2_body(nu + al, (c, 0), q, order).shift(nu * al)
    rhs = _walk((), (), q, 2, (-1, 2 * al + 2), order,
                lambda k, m: bessel2_body(al + k, (c, 2 * nu), q, m), nu)
    return lhs, (rhs * qpoch_series(q, q, nu, order)).shift(nu * al)


def _h_bessel3_order_conn(order, z):
    # mu >= nu integers so the connection coefficients stay polynomial
    nu, mu, q = 1, 2, _ROOT
    rhs = _walk(((1, 2 * (mu - nu)),), (), q, 1, (1, 2 * nu + 2), order,
                lambda n, m: bessel3_body(mu + n, (z * z, 2 * n), q, m))
    return bessel3_body(nu, (z * z, 0), q, order), rhs


def _h_bessel3_arg_conn(order, z):
    w, nu, q = Fraction(5, 4), 1, _ROOT
    u = z / w
    rhs = _walk(((w * w, 0),), (), q, 1, (z * z / (w * w), 2), order,
                lambda n, m: bessel3_body(nu + n, (z * z, 2 * n), q, m))
    return bessel3_body(nu, (u * u, 0), q, order), rhs


def _h_bessel3_laguerre_a(order, z):
    # nu = 1 so the -z^2 q^(-nu) argument stays inside the ring
    nu, n, q = 1, 2, _ROOT
    lhs = (laguerre_series(n, nu, (-z * z, -2 * nu), q, order)
           * qpoch_series((1, 2 * (nu + n + 1)), q, None, order))
    # q^(k(k-nu-n)/2) z^k and the (zz/ (z q^(n/2)))^nu prefactor combine to
    # z^(2k) q^(k^2) with every p-exponent integral
    rhs = _walk((), (), q, 2, (-z * z, 2), order,
                lambda k, m: bessel3_body(k + nu, (z * z, 2 * (n + k)), q, m))
    rhs = rhs * qpoch_series((1, 2 * (n + 1)), q, None, order) * _qpoch_inv(q, q, order)
    return lhs, rhs


def _h_bessel3_laguerre_b(order, z):
    nu, n, q = 1, 2, _ROOT
    lhs = (bessel3_body(nu, (z * z, 2 * n), q, order)
           * qpoch_series((1, 2 * (n + 1)), q, None, order))
    rhs = _walk((), ((1, 2 * (nu + n + 1)),), q, 1, (z * z, 2), order,
                lambda k, m: laguerre_series(n, nu + k, (-z * z, -2 * nu), q, m))
    rhs = (rhs * qpoch_series((1, 2 * (nu + n + 1)), q, None, order)
           * qpoch_series(q, q, None, order))
    return lhs, rhs


_EXACT_HANDLERS = {
    # scalar families: rows 0..order; the rational is the base or a root of it
    "qbinom_alternating": (_h_qbinom1, "the rational is q"),
    "qbinom_qinvhermite_zero": (_h_qbinom2, "the rational is q^(1/4)"),
    "qbinom_half_base": (_h_qbinom3, "the rational is q^(1/2)"),
    # argument variable: the rational is the base q (or a root of it)
    "qhermite_genfun": (_h_qhermite_genfun, "variable t, x = 1"),
    "qinvhermite_genfun": (_h_qinvhermite_genfun, "variable t, e^xi = 3/2"),
    "poisson_kernel_qinvhermite": (_h_poisson_kernel, "variable t, e^xi=3/2, e^eta=2/3"),
    "qlaguerre_genfun": (_h_qlaguerre_genfun, "variable t, alpha = 1, x = 2/3"),
    "series_cal_e_theta": (_h_series_cal_e_theta, "variable t; the rational is q^(1/4); x = 1"),
    "airy_mult": (_h_airy_mult, "variable a, b = 2/3"),
    "airy_unit_expansion": (_h_airy_unit, "variable a"),
    "airy_two_param": (_h_airy_two_param, "variable z, w = 1/3"),
    "airy_base_shift": (_h_airy_base_shift, "variable z"),
    "sw_aq_ratio": (_h_sw_aq_ratio, "variable x, n = 3"),
    "sw_from_aq": (_h_sw_from_aq, "variable x, n = 3"),
    "sw_genfun": (_h_sw_genfun, "variable w, x = 2/3"),
    "laguerre_conn_alpha_beta": (_h_laguerre_conn, "variable x, alpha=2, beta=1, n=4"),
    "confluent_airy_series": (_h_confluent_airy, "variable z, a = 1/2"),
    "confluent_arg_shift": (_h_confluent_arg_shift, "variable z; a=1/2, b=1/3, w=2/5"),
    "bessel_laguerre_genfun": (_h_bessel_laguerre_genfun, "variable w; z=2/3, nu=1"),
    "confluent_bessel_sqrt": (_h_confluent_bessel_sqrt,
                              "variable z; the rational is q^(1/2); nu=1"),
    "laguerre_phi11_series": (_h_laguerre_phi11_series,
                              "variable x; the rational is q^(1/2); alpha=1, n=2"),
    # base variable: the rational is the free parameter x or z
    "triple_product": (_h_triple_product, "variable q; the rational is z"),
    "laguerre_ratio_series": (_h_laguerre_1, "variable q; the rational is x; alpha=1, n=2"),
    "laguerre_unit_series": (_h_laguerre_2, "variable q; the rational is x; alpha=1, n=2"),
    "laguerre_shift_series": (_h_laguerre_3,
                              "variable q; the rational is x; alpha=1, beta=2, n=2"),
    "laguerre_from_sw": (_h_laguerre_4, "variable q; the rational is x; alpha=1, n=2"),
    "sw_from_laguerre": (_h_laguerre_5, "variable q; the rational is x; alpha=1, n=2"),
    "modified_bessel_phi11": (_h_specialvalue, "variable q; the rational is z; nu=1"),
    "bessel_airy_pair_a": (_h_bessel_airy_a, "variable q; the rational is z; nu=1"),
    "bessel_airy_pair_b": (_h_bessel_airy_b, "variable q; the rational is z; nu=1"),
    "bessel_poch_series": (_h_bessel_poch_series, "variable q; the rational is z; nu=1"),
    "bessel_unit_series": (_h_bessel_unit_series, "variable q; the rational is z; nu=1"),
    "confluent_bessel_series": (_h_confluent_bessel,
                                "variable q; the rational is z; a=1/2, nu=1"),
    "confluent_param_shift": (_h_confluent_param_shift,
                              "variable q; the rational is z; a=1/2, b=1/3, d=q^2"),
    "bessel_mult": (_h_bessel_mult, "variable q; the rational is z; w=1/2, nu=1"),
    "bessel_laguerre_inverse": (_h_bessel_laguerre_inverse,
                                "variable q; the rational is z; alpha=1, n=2"),
    # root of the base: the series runs in q^(1/2); the rational is z
    "bessel3_product_series": (_h_bessel3_product_series, "variable q^(1/2); z; nu=1"),
    "bessel_order_shift": (_h_bessel_order_shift, "variable q^(1/2); z; nu=2, alpha=1"),
    "bessel3_order_conn": (_h_bessel3_order_conn, "variable q^(1/2); z; nu=1, mu=2"),
    "bessel3_arg_conn": (_h_bessel3_arg_conn, "variable q^(1/2); z; w=5/4, nu=1"),
    "bessel3_laguerre_a": (_h_bessel3_laguerre_a, "variable q^(1/2); z; nu=1, n=2"),
    "bessel3_laguerre_b": (_h_bessel3_laguerre_b, "variable q^(1/2); z; nu=1, n=2"),
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
    """Exact comparison of coefficients 0..order of both sides of an identity.

    Returns {'equal': bool, 'first_mismatch': int-or-None}.  A side built
    short of the order mismatches at its first missing coefficient.  q must
    be a rational strictly inside (0,1); each handler's note says what it
    sets: the base q or a root of it, or a free parameter x or z when the
    series runs in the base.
    """
    identity_id = _ALIASES.get(identity_id, identity_id)
    if identity_id not in _EXACT_HANDLERS:
        raise UnsupportedIdentityError(f"no exact handler for {identity_id!r}")
    q = Fraction(q)
    if not 0 < q < 1:
        raise DomainError("the exact oracle needs a rational base in (0,1)")
    if order < 1:
        raise DomainError("order must be >= 1")
    handler, _note = _EXACT_HANDLERS[identity_id]
    lhs, rhs = handler(order, q)
    i = lhs.first_mismatch(rhs)
    if i is None or i > order:
        # no mismatch to the order, unless a side stops short of it
        i = min(lhs.order, rhs.order) + 1
        if i > order:
            return {"equal": True, "first_mismatch": None}
    return {"equal": False, "first_mismatch": i}
