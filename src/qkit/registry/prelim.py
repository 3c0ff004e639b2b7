"""PRELIM group: summation theorems, transformations, orthogonality, kernels."""

from __future__ import annotations

import cmath
import itertools
import math

from ..core import QParam, theta4
from ..polys import qhermite, qhermite_inv, qlaguerre, stieltjes_wigert
from ..quad import circle_contour, finite_interval, gaussian_line, halfline_log
from ..series import cal_e, jackson_bessel, phi, psi_bilateral
from ._common import (TWO_PI, cring, exp_bound, exp_i, ident, majorized_sum, qdraw, qfac, qp, qpm,
                      qpn, resample, rint, runif)


# --- Chu-Vandermonde sum -------------------------------------------------

def _cv_sample(rng):
    # terminating sums lose ~q^(-n^2/2) ulps to cancellation; keep that small
    return {
        "q": qdraw(rng, 0.45, 0.8),
        "n": rint(rng, 1, 5),
        "a": cring(rng, 0.2, 0.9),
        "c": cring(rng, 0.3, 0.9),
    }


def _cv_lhs(p, tr):
    q = QParam(p["q"])
    return phi([q.power(-p["n"]), p["a"]], [p["c"]], q, q.q, tr)


def _cv_rhs(p, tr):
    q = QParam(p["q"])
    return qpn(p["c"] / p["a"], q, p["n"]) * p["a"] ** p["n"] / qpn(p["c"], q, p["n"])


ident("chu_vandermonde", "PRELIM",
      "terminating 2phi1(q^-n, a; c; q, q) equals (c/a;q)_n a^n/(c;q)_n",
      _cv_lhs, _cv_rhs, _cv_sample)


# --- bilateral 1psi1 summation -------------------------------------------

def _r1_sample(rng):
    def draw(rng):
        q = qdraw(rng, 0.2, 0.7)
        a = runif(rng, 1.5, 4.0)
        b = cring(rng, 0.05, 0.4)
        z = cring(rng, 0.3, 0.85)
        return {"q": q, "a": a, "b": b, "z": z}

    def ok(p):
        if not abs(p["b"] / p["a"]) < abs(p["z"]) < 1.0:
            return False
        az = p["a"] * p["z"]
        # the value vanishes when az hits any integer power of q (zeros of
        # the numerator products); relative checks need a safety margin
        return all(abs(az / p["q"] ** m - 1.0) > 0.25 for m in range(-4, 5))

    return resample(rng, draw, ok)


def _r1_lhs(p, tr):
    q = QParam(p["q"])
    return psi_bilateral([p["a"]], [p["b"]], q, p["z"], tr)


def _r1_rhs(p, tr):
    q = QParam(p["q"])
    a, b, z = p["a"], p["b"], p["z"]
    return qpm([q.q, b / a, a * z, q.q / (a * z)], q, tr) / qpm([b, q.q / a, z, b / (a * z)], q, tr)


ident("ramanujan_1psi1", "PRELIM",
      "bilateral 1psi1 sum equals a ratio of four infinite products",
      _r1_lhs, _r1_rhs, _r1_sample)


# --- triple product -------------------------------------------------------

def _tp_sample(rng):
    # near the positive real axis the function is exponentially small for
    # large q (the zero lattice z = q^(2k+1) lives there), which makes a
    # relative comparison meaningless in binary64; keep a phase margin
    # that grows with q, plus an explicit lattice-distance guard
    def draw(rng):
        q = qdraw(rng, 0.1, 0.9)
        phase_min = 0.1 if q <= 0.55 else 1.3
        phase = rng.choice([-1, 1]) * runif(rng, phase_min, math.pi)
        r = runif(rng, 0.3, 2.5)
        return {"q": q, "z": r * cmath.exp(1j * phase)}

    def ok(p):
        return all(abs(p["z"] / p["q"] ** (2 * k + 1) - 1.0) > 0.08 for k in range(-9, 10))

    return resample(rng, draw, ok)


ident("triple_product", "PRELIM",
      "bilateral theta sum equals the (q^2, qz, q/z; q^2) infinite product",
      lambda p, tr: theta4(p["z"], QParam(p["q"]), tr, route="series"),
      lambda p, tr: theta4(p["z"], QParam(p["q"]), tr, route="product"),
      _tp_sample, default_tol=1e-11)


# --- first/second q-Bessel relation ---------------------------------------

def _j12_sample(rng):
    return {"q": qdraw(rng), "nu": runif(rng, 0.2, 1.5), "z": cring(rng, 0.3, 1.6)}


def _j12_lhs(p, tr):
    q = QParam(p["q"])
    return jackson_bessel(1, p["nu"], p["z"], q, tr) * qp(-p["z"] ** 2 / 4.0, q, tr)


ident("bessel1_bessel2_relation", "PRELIM",
      "kind-1 q-Bessel times (-z^2/4;q)_inf equals the kind-2 function",
      _j12_lhs,
      lambda p, tr: jackson_bessel(2, p["nu"], p["z"], QParam(p["q"]), tr),
      _j12_sample, default_tol=1e-11)


# --- q-Hermite generating function ----------------------------------------

def _exp_weights(t, q):
    """Yield t^n/(q;q)_n for n = 0, 1, ..., the weights of the generating functions below."""
    w, qn = 1.0, 1.0
    while True:
        yield w
        qn *= q.q
        w *= t / (1.0 - qn)


def _recurrence(x2, s, q):
    """Yield y_0 = 1, y_1 = x2, ... with y_(n+1) = x2 s^n y_n - (1 - q^n) y_(n-1) / s.

    s = 1 and x2 = 2x give H_n(x|q).  s = sqrt(q) and x2 = 2 sinh(u) give
    q^(n(n-1)/4) h_n(sinh u|q) from h_(n+1) = 2 sinh(u) h_n - q^(-n)(1 - q^n) h_(n-1):
    the half-weight keeps the bare polynomial peak q^(-n^2/4) in range.
    """
    prev, cur, sn, qn = 0.0, 1.0, 1.0, 1.0  # y_(n-1), y_n, s^n, q^n
    while True:
        yield cur
        prev, cur = cur, x2 * sn * cur - (1.0 - qn) / s * prev
        sn *= s
        qn *= q.q



def _hgen_sample(rng):
    return {"q": qdraw(rng), "theta": runif(rng, 0.2, 2.9), "t": cring(rng, 0.05, 0.5)}


def _hgen_lhs(p, tr):
    q = QParam(p["q"])
    t = p["t"]
    at = abs(t)
    values = (h * w for h, w in zip(_recurrence(2.0 * math.cos(p["theta"]), 1.0, q),
                                    _exp_weights(t, q)))
    # |H_n(cos theta|q)| <= sum_k [n k]_q <= (n+1)(q;q)_n/(q;q)_inf^2
    scale = 1.0 / qp(q.q, q, tr).real ** 2
    return majorized_sum(values, lambda n: (n + 1) * at ** n * scale,
                         lambda n: at * (n + 2) / (n + 1), tr, "qhermite_genfun")


def _hgen_rhs(p, tr):
    q = QParam(p["q"])
    t = p["t"]
    return 1.0 / (qp(t * exp_i(p["theta"]), q, tr) * qp(t * exp_i(-p["theta"]), q, tr))


ident("qhermite_genfun", "PRELIM",
      "continuous q-Hermite generating function equals a product reciprocal",
      _hgen_lhs, _hgen_rhs, _hgen_sample)


# --- two routes to the two-variable q-exponential ---------------------------

def _cal2_sample(rng):
    return {"q": qdraw(rng), "theta": runif(rng, 0.3, 2.8), "t": cring(rng, 0.1, 0.6)}


ident("cal_e_two_routes", "PRELIM",
      "q-Hermite series route and shifted-product route for cal-E agree",
      lambda p, tr: cal_e(math.cos(p["theta"]), p["t"], QParam(p["q"]), tr, route="hermite"),
      lambda p, tr: cal_e(math.cos(p["theta"]), p["t"], QParam(p["q"]), tr, route="shifted"),
      _cal2_sample)


# --- q-Hermite orthogonality (Gram entries, shifted by 1) -------------------

def _qh_gram(p, tr):
    q = QParam(p["q"])
    m, n = p["m"], p["n"]

    def f(th):
        prod = qp(exp_i(2 * th), q, tr)
        w = (prod * prod.conjugate()).real
        return qhermite(m, math.cos(th), q).real * qhermite(n, math.cos(th), q).real * w

    inner = finite_interval(f, 0.0, math.pi, tr).real / TWO_PI
    norm = (qfac(q, n) / qp(q.q, q, tr)).real
    return 1.0 + inner / norm


def _qh_sample(rng):
    m = rint(rng, 0, 6)
    n = rint(rng, 0, 6)
    return {"q": qdraw(rng, 0.3, 0.7), "m": m, "n": n}


ident("qhermite_orthogonality", "PRELIM",
      "q-Hermite Gram entry over (-1,1) with the product weight, normalized",
      _qh_gram,
      lambda p, tr: 2.0 if p["m"] == p["n"] else 1.0,
      _qh_sample, default_tol=1e-8)


# --- cal-E inner products ---------------------------------------------------

def _cal_ip(p, tr, v):
    q = QParam(p["q"])
    u = p["u"]

    def f(th):
        prod = qp(exp_i(2 * th), q, tr)
        w = (prod * prod.conjugate()).real
        x = math.cos(th)
        return cal_e(x, u, q, tr) * cal_e(x, v, q, tr) * w

    return finite_interval(f, 0.0, math.pi, tr) / TWO_PI


def _cal14_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "u": runif(rng, 0.1, 0.55), "v": runif(rng, 0.1, 0.55)}


def _cal14_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    u, v = p["u"], p["v"]
    return qp(-u * v * math.sqrt(q.q), q, tr) / (
        qp(q.q, q, tr) * qp(q.q * u * u, q2, tr) * qp(q.q * v * v, q2, tr)
    )


ident("cal_e_inner_product", "PRELIM",
      "weighted inner product of two cal-E factors in closed product form",
      lambda p, tr: _cal_ip(p, tr, p["v"]), _cal14_rhs,
      _cal14_sample, default_tol=1e-7)


def _cal16_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "u": runif(rng, 0.1, 0.55)}


def _cal16_rhs(p, tr):
    q = QParam(p["q"])
    u = p["u"]
    return qp(-u * u * q.q, q, tr) / (qp(q.q, q, tr) * qp(u * u * q.q, q, tr))


ident("cal_e_inner_product_half", "PRELIM",
      "cal-E inner product at v = u sqrt(q) in single-base product form",
      lambda p, tr: _cal_ip(p, tr, p["u"] * math.sqrt(p["q"])), _cal16_rhs,
      _cal16_sample, default_tol=1e-7)


# --- inverse-base Hermite generating function -------------------------------

def _hinv_gen_sample(rng):
    return {"q": qdraw(rng), "xi": runif(rng, -0.8, 0.8), "t": cring(rng, 0.05, 0.45)}


def _hinv_gen_lhs(p, tr):
    q = QParam(p["q"])
    t, xi = p["t"], p["xi"]
    return qp(-t * math.exp(xi), q, tr) * qp(t * math.exp(-xi), q, tr)


def _hinv_gen_rhs(p, tr):
    q = QParam(p["q"])
    t, xi = p["t"], p["xi"]
    halves = _recurrence(2.0 * math.sinh(xi), math.sqrt(q.q), q)
    values = (q.q ** (n * (n - 1) / 4) * g * w
              for n, (g, w) in enumerate(zip(halves, _exp_weights(t, q))))
    m = abs(t) * math.exp(abs(xi))
    # q^(n(n-1)/2)|h_n(sinh xi)| <= sum_(j+k=n) [n k] q^(C(j,2)+C(k,2)) e^(n|xi|), and
    # C(j,2)+C(k,2) >= n^2/4 - n/2, so |t_n| <= (n+1) q^(n^2/4-n/2) m^n/(q;q)_inf^2
    scale = 1.0 / qp(q.q, q, tr).real ** 2
    return majorized_sum(values, lambda n: (n + 1) * q.q ** (n * n / 4 - n / 2) * m ** n * scale,
                         lambda n: (n + 2) / (n + 1) * q.q ** ((2 * n - 1) / 4) * m, tr,
                         "qinvhermite_genfun")


ident("qinvhermite_genfun", "PRELIM",
      "generating function of the inverse-base Hermite polynomials",
      _hinv_gen_lhs, _hinv_gen_rhs, _hinv_gen_sample)


# --- Poisson kernel ---------------------------------------------------------

def _pk_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.3, 0.7), "t": runif(rng, 0.1, 0.45),
                "xi": runif(rng, -0.6, 0.6), "eta": runif(rng, -0.6, 0.6)}

    def ok(p):
        # h_n(sinh xi) has near-zeros when e^(2 xi) approaches q^(2k+1);
        # evaluation there loses digits to cancellation
        for u in (p["xi"], p["eta"]):
            e2 = math.exp(2 * u)
            if any(abs(e2 / p["q"] ** (2 * k + 1) - 1.0) < 0.12 for k in range(-2, 3)):
                return False
        return True

    return resample(rng, draw, ok)


def _pk_lhs(p, tr):
    q = QParam(p["q"])
    t, xi, eta = p["t"], p["xi"], p["eta"]
    rq = math.sqrt(q.q)
    values = (gx * gy * w for gx, gy, w in zip(_recurrence(2.0 * math.sinh(xi), rq, q),
                                                _recurrence(2.0 * math.sinh(eta), rq, q),
                                                _exp_weights(t, q)))
    # |g_n(u)| <= q^(-n/4) (q;q)_n theta(u)/(q;q)_inf^2 with theta(u) = sum_m q^(m^2/4) e^(m|u|)
    # and g_n(u) = q^(n(n-1)/4) h_n(sinh u), so |t_n| <= M (|t|/sqrt(q))^n
    q4 = QParam(q.q ** 0.25)
    theta = theta4(-math.exp(abs(xi)), q4, tr).real * theta4(-math.exp(abs(eta)), q4, tr).real
    major = theta / qp(q.q, q, tr).real ** 4
    rho = abs(t) / rq
    return majorized_sum(values, lambda n: major * rho ** n, lambda n: rho, tr,
                         "poisson_kernel_qinvhermite")


def _pk_rhs(p, tr):
    q = QParam(p["q"])
    t, xi, eta = p["t"], p["xi"], p["eta"]
    num = qpm([-t * math.exp(xi + eta), -t * math.exp(-xi - eta),
               t * math.exp(xi - eta), t * math.exp(eta - xi)], q, tr)
    return num / qp(t * t / q.q, q, tr)


ident("poisson_kernel_qinvhermite", "PRELIM",
      "Poisson kernel for the inverse-base Hermite family "
      "(third and fourth product arguments read t e^(xi-eta), t e^(eta-xi))",
      _pk_lhs, _pk_rhs, _pk_sample, corrected=True)


# --- h_n vs Stieltjes-Wigert ------------------------------------------------

def _hsw_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng), "n": rint(rng, 0, 12), "xi": runif(rng, -0.8, 0.8)}

    def ok(p):
        # both sides develop near-zeros when e^(2 xi) approaches the
        # q^(2k+1) lattice; evaluation there loses digits to cancellation
        e2 = math.exp(2 * p["xi"])
        return all(abs(e2 / p["q"] ** (2 * k + 1) - 1.0) > 0.1 for k in range(-2, 3))

    return resample(rng, draw, ok)


def _hsw_lhs(p, tr):
    q = QParam(p["q"])
    return qhermite_inv(p["n"], math.sinh(p["xi"]), q)


def _hsw_rhs(p, tr):
    q = QParam(p["q"])
    n, xi = p["n"], p["xi"]
    return math.exp(n * xi) * qfac(q, n) * stieltjes_wigert(n, math.exp(-2 * xi) * q.power(-n), q)


ident("qinvhermite_sw_relation", "PRELIM",
      "inverse-base Hermite equals a rescaled Stieltjes-Wigert polynomial",
      _hsw_lhs, _hsw_rhs, _hsw_sample, default_tol=1e-12)


# --- Stieltjes-Wigert symmetry ----------------------------------------------

def _sws_sample(rng):
    return {"q": qdraw(rng), "n": rint(rng, 0, 15), "t": cring(rng, 0.3, 1.2)}


def _sws_lhs(p, tr):
    q = QParam(p["q"])
    n, t = p["n"], p["t"]
    return q.power(n * n) * (-t) ** n * stieltjes_wigert(n, q.power(-2 * n) / t, q)


ident("sw_symmetry", "PRELIM",
      "argument-inversion symmetry of the Stieltjes-Wigert polynomials",
      _sws_lhs,
      lambda p, tr: stieltjes_wigert(p["n"], p["t"], QParam(p["q"])),
      _sws_sample, default_tol=1e-12)


# --- Heine transformations and the 2phi1 -> 2phi2 transformation -------------

def _phi21(p, tr):
    q = QParam(p["q"])
    return phi([p["a"], p["b"]], [p["c"]], q, p["z"], tr)


def _heine_sample(which):
    def sample(rng):
        def draw(rng):
            return {"q": qdraw(rng), "a": cring(rng, 0.1, 0.6), "b": cring(rng, 0.1, 0.6),
                    "c": cring(rng, 0.1, 0.8), "z": cring(rng, 0.1, 0.6)}

        def ok(p):
            a, b, c, z = p["a"], p["b"], p["c"], p["z"]
            if which == 1:
                return abs(b) < 1 and abs(a * z) < 0.9
            if which == 2:
                return abs(c / b) < 0.9 and abs(b * z) < 0.9
            if which == 3:
                return abs(a * b * z / c) < 0.9
            return abs(b * z) < 0.9 and abs(a * z) < 0.9

        return resample(rng, draw, ok)

    return sample


def _heine1_rhs(p, tr):
    q = QParam(p["q"])
    a, b, c, z = p["a"], p["b"], p["c"], p["z"]
    pref = qpm([b, a * z], q, tr) / qpm([c, z], q, tr)
    return pref * phi([c / b, z], [a * z], q, b, tr)


def _heine2_rhs(p, tr):
    q = QParam(p["q"])
    a, b, c, z = p["a"], p["b"], p["c"], p["z"]
    pref = qpm([c / b, b * z], q, tr) / qpm([c, z], q, tr)
    return pref * phi([a * b * z / c, b], [b * z], q, c / b, tr)


def _heine3_rhs(p, tr):
    q = QParam(p["q"])
    a, b, c, z = p["a"], p["b"], p["c"], p["z"]
    pref = qp(a * b * z / c, q, tr) / qp(z, q, tr)
    return pref * phi([c / a, c / b], [c], q, a * b * z / c, tr)


def _phi22_rhs(p, tr):
    q = QParam(p["q"])
    a, b, c, z = p["a"], p["b"], p["c"], p["z"]
    pref = qp(a * z, q, tr) / qp(z, q, tr)
    return pref * phi([a, c / b], [c, a * z], q, b * z, tr)


ident("heine1", "PRELIM", "first Heine transformation of 2phi1",
      _phi21, _heine1_rhs, _heine_sample(1))
ident("heine2", "PRELIM", "second Heine transformation of 2phi1",
      _phi21, _heine2_rhs, _heine_sample(2))
ident("heine3", "PRELIM", "third (q-Euler) Heine transformation of 2phi1",
      _phi21, _heine3_rhs, _heine_sample(3))
ident("phi21_phi22_transform", "PRELIM", "2phi1 as a prefactored 2phi2",
      _phi21, _phi22_rhs, _heine_sample(4))


# --- three quadratic binomial-type evaluations -------------------------------

def _qb1_sample(rng):
    return {"q": qdraw(rng), "n": rint(rng, 0, 24)}


def _qb1_pair(p, tr):
    q = QParam(p["q"])
    n = p["n"]
    total = sum((qfac(q, n) / (qfac(q, k) * qfac(q, n - k))) * (-1.0) ** k for k in range(n + 1))
    if n % 2 == 0:
        closed = qfac(q, n) / qpn(q.q * q.q, QParam(q.q * q.q), n // 2)
    else:
        closed = 0.0j
    # the scale strictly dominates the value so the shifted ratio stays
    # far from -1 and the +1 normalization never cancels
    scale = 4.0 * abs(qfac(q, n) / qpn(q.q * q.q, QParam(q.q * q.q), max(n // 2, 1))) + 1.0
    return 1.0 + total / scale, 1.0 + closed / scale


ident("qbinom_alternating", "PRELIM",
      "alternating Gaussian-binomial row sum: zero for odd n, closed form for even n",
      lambda p, tr: _qb1_pair(p, tr)[0],
      lambda p, tr: _qb1_pair(p, tr)[1],
      _qb1_sample)


def _qb2_pair(p, tr):
    q = QParam(p["q"])
    s = p["n"]
    total = sum((-1.0) ** n * q.power(n * (n - s)) / (qfac(q, n) * qfac(q, s - n)).real
                for n in range(s + 1))
    q2 = QParam(q.q * q.q)
    if s % 2 == 0:
        closed = (-1.0) ** (s // 2) * q.power(-s * s / 4.0).real / qpn(q2.q, q2, s // 2).real
    else:
        closed = 0.0
    scale = 4.0 * abs(q.power(-s * s / 4.0)) / abs(qpn(q2.q, q2, max(s // 2, 1))) + 1.0
    return 1.0 + total / scale, 1.0 + closed / scale


ident("qbinom_qinvhermite_zero", "PRELIM",
      "alternating q^(n(n-s)) sum: vanishes for odd s (parity read on the "
      "summation variable's total count s)",
      lambda p, tr: _qb2_pair(p, tr)[0],
      lambda p, tr: _qb2_pair(p, tr)[1],
      _qb1_sample, corrected=True)


def _qb3_lhs(p, tr):
    q = QParam(p["q"])
    n = p["n"]
    return sum(q.power(k / 2.0) / (qfac(q, k) * qfac(q, n - k)) for k in range(n + 1))


def _qb3_rhs(p, tr):
    q = QParam(p["q"])
    sq = QParam(math.sqrt(q.q))
    return 1.0 / qpn(sq.q, sq, p["n"])


ident("qbinom_half_base", "PRELIM",
      "q^(k/2)-weighted binomial row sum collapses to a half-base factorial",
      _qb3_lhs, _qb3_rhs, _qb1_sample)


# --- q-Laguerre orthogonality ------------------------------------------------

def _ql_gram(p, tr):
    q = QParam(p["q"])
    m, n, al = p["m"], p["n"], p["alpha"]

    def f(x):
        return (qlaguerre(m, al, x, q) * qlaguerre(n, al, x, q)).real * x**al / qp(-x, q, tr).real

    inner = halfline_log(f, tr).real
    pref = -math.pi / math.sin(math.pi * al) * (qp(q.power(-al), q, tr) / qp(q.q, q, tr)).real
    norm = pref * (qpn(q.power(al + 1), q, n) / (q.power(n) * qfac(q, n))).real
    return 1.0 + inner / norm


def _ql_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "alpha": 0.5, "m": rint(rng, 0, 4), "n": rint(rng, 0, 4)}


ident("qlaguerre_orthogonality", "PRELIM",
      "q-Laguerre Gram entry against x^alpha/(-x;q)_inf on the half line",
      _ql_gram,
      lambda p, tr: 2.0 if p["m"] == p["n"] else 1.0,
      _ql_sample, default_tol=1e-6)


# --- Stieltjes-Wigert orthogonality -------------------------------------------

def _sw_gram(p, tr):
    q = QParam(p["q"])
    m, n = p["m"], p["n"]
    c2 = -1.0 / (2.0 * q.ln_q)
    c = math.sqrt(c2)

    def f(x):
        u = math.log(x) - 0.5 * q.ln_q
        return (stieltjes_wigert(m, x, q) * stieltjes_wigert(n, x, q)).real * math.exp(-c2 * u * u)

    inner = halfline_log(f, tr).real
    norm = math.sqrt(math.pi) * q.power(-n).real / (c * qfac(q, n).real)
    return 1.0 + inner / norm


def _sw_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "m": rint(rng, 0, 5), "n": rint(rng, 0, 5)}


ident("sw_orthogonality", "PRELIM",
      "Stieltjes-Wigert Gram entry against the lognormal weight "
      "(validated norm sqrt(pi) q^(-n)/(c (q;q)_n))",
      _sw_gram,
      lambda p, tr: 2.0 if p["m"] == p["n"] else 1.0,
      _sw_sample, default_tol=1e-6, corrected=True)


# --- q-Laguerre generating function -------------------------------------------

def _lgen_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.3, 0.7), "alpha": runif(rng, 0.1, 1.2),
                "t": cring(rng, 0.05, 0.3), "x": cring(rng, 0.2, 1.0)}

    def ok(p):
        # series sum over n needs |t q^-alpha| < 1 with margin
        return abs(p["t"]) * p["q"] ** (-p["alpha"]) < 0.55

    return resample(rng, draw, ok)


def _lgen_lhs(p, tr):
    q = QParam(p["q"])
    t, al, x = p["t"], p["alpha"], p["x"]
    values = (qlaguerre(n, al, x, q) * t**n * q.power(-al * n) for n in itertools.count())
    # |L_n^(alpha)(x)| <= (-q^(1+alpha)|x|;q)_inf/(q;q)_inf, so |t_n| <= M (|t| q^-alpha)^n
    major = exp_bound(q.power(1.0 + al).real * abs(x) / (1.0 - q.q)) / qp(q.q, q, tr).real
    rho = abs(t) * q.q ** -al
    return majorized_sum(values, lambda n: major * rho ** n, lambda n: rho, tr,
                         "qlaguerre_genfun")


def _lgen_rhs(p, tr):
    q = QParam(p["q"])
    t, al, x = p["t"], p["alpha"], p["x"]
    return phi([-x], [0.0], q, q.q * t, tr) / qp(t * q.power(-al), q, tr)


ident("qlaguerre_genfun", "PRELIM",
      "q-Laguerre generating function via a lower-parameter-free 1phi1",
      _lgen_lhs, _lgen_rhs, _lgen_sample)


# --- the two master representations of q^(k^2) ---------------------------------

def _qck_sample(rng):
    return {"q": qdraw(rng), "c": runif(rng, 0.5, 1.5), "u": cring(rng, 0.4, 1.3),
            "k": rint(rng, -2, 3), "r": runif(rng, 0.7, 1.3)}


def _qck_lhs(p, tr):
    q = QParam(p["q"])
    return q.power(p["c"] * p["k"] ** 2) * p["u"] ** p["k"]


def _qck_rhs(p, tr):
    q = QParam(p["q"])
    c, u, k = p["c"], p["u"], p["k"]
    q2c = QParam(q.power(2 * c).real)
    qc = q.power(c)

    def f(z):
        return qpm([q2c.q, -qc * z * u, -qc / (z * u)], q2c, tr) / z ** (k + 1)

    return circle_contour(f, p["r"], tr)


ident("qsquare_contour_rep", "PRELIM",
      "q^(c k^2) u^k as a circle contour integral of a theta product",
      _qck_lhs, _qck_rhs, _qck_sample)


def _qal_sample(rng):
    return {"q": qdraw(rng), "alpha": runif(rng, -2.0, 2.0)}


def _qal_rhs(p, tr):
    q = QParam(p["q"])
    al = p["alpha"]
    L = q.log_inv

    def f(y):
        return exp_i(al * y)

    val = gaussian_line(f, L, tr)
    return val / math.sqrt(math.pi * 2.0 * L)


ident("qsquare_gaussian_rep", "PRELIM",
      "q^(alpha^2/2) as a normalized Gaussian integral of e^(i alpha y)",
      lambda p, tr: QParam(p["q"]).power(p["alpha"] ** 2 / 2.0),
      _qal_rhs, _qal_sample)
