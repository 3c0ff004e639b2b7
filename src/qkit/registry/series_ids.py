"""SERIES group: expansion formulas, connection relations, multiplication formulas.

Both sides of every entry are series/finite-sum evaluations; the two
routes are kept structurally independent (direct summation vs expansion
over a different function family).
"""

from __future__ import annotations

import itertools
import math

from ..core import QParam
from ..polys import qlaguerre, stieltjes_wigert
from ..series import (
    bessel2_normalized_native,
    bessel3_normalized_native,
    cal_e,
    m_expansion,
    m_weighted,
    modified_bessel_i,
    phi,
    ramanujan_a,
)
from ._common import (cring, exp_bound, exp_i, ident, majorized_sum, qdraw, qfac, qp, qpn,
                      resample, rint, runif)


# Closed-form majorants of the functions that the expansions below sum over,
# for real orders > -1.  Each falls as its argument's modulus or its order
# grows, so its value at term k bounds the inner function of every later term.

def _airy_bound(r, q):
    # |A_q(w)| <= (-q|w|;q)_inf <= exp(q|w|/(1-q)) for |w| <= r
    return exp_bound(q.q * r / (1.0 - q.q))


def _poch_bound(r, q):
    # |(w;q)_inf| <= (-|w|;q)_inf <= exp(|w|/(1-q)) for |w| <= r
    return exp_bound(r / (1.0 - q.q))


def _bessel2_bound(nu, r, q, tr):
    # |N2(nu, u)| <= (-q^(1+nu)|u|;q)_inf/(q;q)_inf: each term has (q^(nu+n+1);q)_inf <= 1
    return _airy_bound(q.q ** nu * abs(r), q) / qp(q.q, q, tr).real


def _bessel3_bound(r, q, tr):
    # |N3(nu, u)| <= (-q|u|;q)_inf/(q;q)_inf: each term has (q^(nu+n+1);q)_inf <= 1
    return _airy_bound(r, q) / qp(q.q, q, tr).real


def _laguerre_bound(fac_n, beta, r, q):
    # |L_n^(beta)(x)| <= (-q^(1+beta)|x|;q)_inf/(q;q)_n, fac_n = (q;q)_n; S_n(x) is beta = 0
    return _airy_bound(q.q ** beta * abs(r), q) / fac_n


def _phi11_bound(a, b, z, q):
    # |1phi1(a; b; q, z)| <= (-|a|;q)_inf (-|z|;q)_inf/(|b|;q)_inf, -log(1-b q^j) <= b q^j/(1-b)
    if b >= 1.0:
        return math.inf
    return exp_bound((a + z + b / (1.0 - b)) / (1.0 - q.q))


# --- the two-variable q-exponential as a theta-type series ---------------------

def _se1_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "theta": runif(rng, 0.3, 2.8), "t": runif(rng, 0.1, 0.6)}


def _se1_lhs(p, tr):
    return cal_e(math.cos(p["theta"]), p["t"], QParam(p["q"]), tr)


def _se1_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    t, th = p["t"], p["theta"]
    e2 = exp_i(2 * th)
    body = m_expansion([-e2], [], q, 0.25, -t * exp_i(-th),
                       lambda k: qp(-t * t * e2 * q.power(k + 1), q2, tr),
                       lambda k: _poch_bound(t * t * q.q ** (k + 1), q2), tr)
    return body / qp(t * t * q.q, q2, tr)


ident("series_cal_e_theta", "SERIES",
      "two-variable q-exponential as a quarter-power series with product tails",
      _se1_lhs, _se1_rhs, _se1_sample)


# --- Ramanujan function expansions ---------------------------------------------

def _sa1_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "a": cring(rng, 0.2, 1.0), "b": cring(rng, 0.2, 1.0)}


def _sa1_rhs(p, tr):
    q = QParam(p["q"])
    a, b = p["a"], p["b"]
    return m_expansion([b], [], q, 0.5, -a * q.power(0.5),
                       lambda k: ramanujan_a(a * q.power(k), q, tr),
                       lambda k: _airy_bound(abs(a) * q.q ** k, q), tr)


ident("airy_mult", "SERIES",
      "multiplication formula for the Ramanujan function",
      lambda p, tr: ramanujan_a(p["a"] * p["b"], QParam(p["q"]), tr),
      _sa1_rhs, _sa1_sample)


def _sa2_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "a": cring(rng, 0.2, 1.2)}


def _sa2_rhs(p, tr):
    q = QParam(p["q"])
    a = p["a"]
    return m_expansion([], [], q, 0.5, -a * q.power(0.5),
                       lambda k: ramanujan_a(a * q.power(k), q, tr),
                       lambda k: _airy_bound(abs(a) * q.q ** k, q), tr)


ident("airy_unit_expansion", "SERIES",
      "unit value of the alternating Ramanujan-function expansion",
      lambda p, tr: 1.0 + 0.0j,
      _sa2_rhs, _sa2_sample)


def _sa3_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.3, 0.7), "z": cring(rng, 0.2, 0.9), "w": cring(rng, 0.1, 0.9)}

    def ok(p):
        return abs(p["z"]) < 0.95 and abs(p["z"] * p["w"]) < 0.95

    return resample(rng, draw, ok)


def _sa3_rhs(p, tr):
    q = QParam(p["q"])
    z, w = p["z"], p["w"]
    return m_expansion([w], [], q, 1.0, z,
                       lambda k: ramanujan_a(w * z * q.power(2 * k), q, tr),
                       lambda k: _airy_bound(abs(w * z) * q.q ** (2 * k), q), tr)


ident("airy_two_param", "SERIES",
      "two-parameter expansion of the Ramanujan function over itself",
      lambda p, tr: ramanujan_a(p["z"], QParam(p["q"]), tr),
      _sa3_rhs, _sa3_sample)


def _sa4_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.3, 0.7), "z": cring(rng, 0.2, 1.5)}

    def ok(p):
        # poles of both sides at z = q^(-2k-2); stay away from the real ray
        return abs(p["z"].imag) > 0.05 or abs(p["z"]) < 1.0 / p["q"] - 0.3

    return resample(rng, draw, ok)


def _sa4_lhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    return ramanujan_a(p["z"], q, tr) / qp(p["z"] * q2.q, q2, tr)


def _sa4_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    z = p["z"]
    return m_weighted([], [z * q2.q], q2, 0.5, z, tr)


ident("airy_base_shift", "SERIES",
      "normalized Ramanujan function as a doubled-base inverse-product series",
      _sa4_lhs, _sa4_rhs, _sa4_sample)


# --- Stieltjes-Wigert expansions -------------------------------------------------

def _ssw_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "x": cring(rng, 0.2, 1.2), "n": rint(rng, 0, 8)}


def _ssw1_lhs(p, tr):
    q = QParam(p["q"])
    n, x = p["n"], p["x"]
    return stieltjes_wigert(n, x, q) * qfac(q, n) / qp(-x * q.power(n + 1), q, tr)


def _ssw1_rhs(p, tr):
    q = QParam(p["q"])
    n, x = p["n"], p["x"]
    return m_weighted([], [-x * q.power(n + 1)], q, 1.0, x, tr)


ident("sw_aq_ratio", "SERIES",
      "Stieltjes-Wigert polynomial over a product tail as an inverse-product series",
      _ssw1_lhs, _ssw1_rhs, _ssw_sample)


def _ssw3_rhs(p, tr):
    q = QParam(p["q"])
    n, x = p["n"], p["x"]
    body = m_expansion([], [], q, 0.5, -x * q.power(n + 0.5),
                       lambda k: ramanujan_a(q.power(k) * x, q, tr),
                       lambda k: _airy_bound(abs(x) * q.q ** k, q), tr)
    return body / qfac(q, n)


ident("sw_from_aq", "SERIES",
      "Stieltjes-Wigert polynomial expanded over scaled Ramanujan functions",
      lambda p, tr: stieltjes_wigert(p["n"], p["x"], QParam(p["q"])),
      _ssw3_rhs, _ssw_sample)


def _ssw4_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "x": cring(rng, 0.2, 1.2), "w": cring(rng, 0.05, 0.6)}


def _ssw4_lhs(p, tr):
    q = QParam(p["q"])
    x, w = p["x"], p["w"]
    aw = abs(w)
    # |S_n(x)| <= (-q|x|;q)_inf/(q;q)_inf for every n, so |t_n| <= that times |w|^n
    major = _airy_bound(abs(x), q) / qp(q.q, q, tr).real
    values = (stieltjes_wigert(n, x, q) * w ** n for n in itertools.count())
    return majorized_sum(values, lambda n: major * aw ** n, lambda n: aw, tr, "sw_genfun")


def _ssw4_rhs(p, tr):
    q = QParam(p["q"])
    return ramanujan_a(p["x"] * p["w"], q, tr) / qp(p["w"], q, tr)


ident("sw_genfun", "SERIES",
      "Stieltjes-Wigert generating function in Ramanujan-function form",
      _ssw4_lhs, _ssw4_rhs, _ssw4_sample)


# --- q-Laguerre connection and expansion relations -------------------------------

def _lc_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "alpha": runif(rng, 0.1, 1.2), "beta": runif(rng, 0.1, 1.2),
            "x": cring(rng, 0.2, 1.0), "n": rint(rng, 0, 7)}


def _lc_lhs(p, tr):
    q = QParam(p["q"])
    return q.power(-p["alpha"] * p["n"]) * qlaguerre(p["n"], p["alpha"], p["x"], q)


def _lc_rhs(p, tr):
    q = QParam(p["q"])
    n, al, be, x = p["n"], p["alpha"], p["beta"], p["x"]
    total = 0.0j
    for k in range(n + 1):
        total += (qpn(q.power(al - be), q, n - k) / qfac(q, n - k)
                  * q.power(-al * (n - k)) * q.power(-be * k) * qlaguerre(k, be, x, q))
    return total


ident("laguerre_conn_alpha_beta", "SERIES",
      "connection between q-Laguerre families of different orders "
      "(with the q^(-alpha(n-k)) factor the generating function forces)",
      _lc_lhs, _lc_rhs, _lc_sample, corrected=True)


def _sl1_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "alpha": runif(rng, 0.1, 1.2),
            "x": cring(rng, 0.2, 1.0), "n": rint(rng, 0, 6)}


def _sl1_lhs(p, tr):
    q = QParam(p["q"])
    n, al, x = p["n"], p["alpha"], p["x"]
    return (qp(q.power(al + n + 1), q, tr) * qfac(q, n) * qlaguerre(n, al, x, q)
            / qp(-x * q.power(al + n + 1), q, tr))


def _sl1_rhs(p, tr):
    q = QParam(p["q"])
    n, al, x = p["n"], p["alpha"], p["x"]
    w = -x * q.power(al + n + 1)
    return m_weighted([-x], [w], q, 0.5, q.power(al + 0.5), tr)


ident("laguerre_ratio_series", "SERIES",
      "normalized q-Laguerre polynomial as a ratio-of-products series",
      _sl1_lhs, _sl1_rhs, _sl1_sample)


def _sl2_lhs(p, tr):
    q = QParam(p["q"])
    return qpn(q.power(p["alpha"] + 1), q, p["n"]) / qfac(q, p["n"])


def _sl2_rhs(p, tr):
    q = QParam(p["q"])
    n, al, x = p["n"], p["alpha"], p["x"]
    fac_n = qfac(q, n).real
    return m_expansion([q.power(n)], [q.power(al + n + 1)], q, 0.5, -x * q.power(al + 0.5),
                       lambda k: qlaguerre(n, al + k, x, q),
                       lambda k: _laguerre_bound(fac_n, al + k, abs(x), q), tr)


ident("laguerre_unit_series", "SERIES",
      "argument-free product ratio as an order-shifted q-Laguerre series",
      _sl2_lhs, _sl2_rhs, _sl1_sample)


def _sl3_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "alpha": runif(rng, 0.1, 1.2), "beta": runif(rng, 0.1, 1.2),
            "x": cring(rng, 0.2, 1.0), "n": rint(rng, 0, 5)}


def _sl3_lhs(p, tr):
    q = QParam(p["q"])
    n, al, be, x = p["n"], p["alpha"], p["beta"], p["x"]
    return qp(q.power(al + n + 1), q, tr) / qp(q.power(be + n + 1), q, tr) * qlaguerre(n, al, x, q)


def _sl3_rhs(p, tr):
    q = QParam(p["q"])
    n, al, be, x = p["n"], p["alpha"], p["beta"], p["x"]
    fac_n = qfac(q, n).real
    y = x * q.power(al - be)
    return m_expansion([q.power(be - al)], [q.power(be + n + 1)], q, 0.5, q.power(al + 0.5),
                       lambda k: qlaguerre(n, be + k, y, q),
                       lambda k: _laguerre_bound(fac_n, be + k, abs(y), q), tr)


ident("laguerre_shift_series", "SERIES",
      "q-Laguerre polynomial re-expanded over a shifted order family "
      "(prefactor exponents carry the degree, as the derivation requires)",
      _sl3_lhs, _sl3_rhs, _sl3_sample, corrected=True)


def _sl4_rhs(p, tr):
    q = QParam(p["q"])
    n, al, x = p["n"], p["alpha"], p["x"]
    fac_n = qfac(q, n).real
    body = m_expansion([], [], q, 0.5, q.power(al + 0.5),
                       lambda k: stieltjes_wigert(n, x * q.power(k + al), q),
                       lambda k: _laguerre_bound(fac_n, 0.0, abs(x) * q.q ** (k + al), q), tr)
    return body / qp(q.power(al + n + 1), q, tr)


ident("laguerre_from_sw", "SERIES",
      "q-Laguerre polynomial expanded over scaled Stieltjes-Wigert polynomials",
      lambda p, tr: qlaguerre(p["n"], p["alpha"], p["x"], QParam(p["q"])),
      _sl4_rhs, _sl1_sample)


def _sl5_lhs(p, tr):
    q = QParam(p["q"])
    n, al, x = p["n"], p["alpha"], p["x"]
    return stieltjes_wigert(n, x * q.power(al), q) / qp(q.power(al + n + 1), q, tr)


def _sl5_rhs(p, tr):
    q = QParam(p["q"])
    n, al, x = p["n"], p["alpha"], p["x"]
    fac_n = qfac(q, n).real
    return m_expansion([], [q.power(al + n + 1)], q, 1.0, -q.power(al),
                       lambda k: qlaguerre(n, al + k, x, q),
                       lambda k: _laguerre_bound(fac_n, al + k, abs(x), q), tr)


ident("sw_from_laguerre", "SERIES",
      "scaled Stieltjes-Wigert polynomial expanded over order-shifted q-Laguerre",
      _sl5_lhs, _sl5_rhs, _sl1_sample)


# --- modified kind-2 function as a basic confluent series -------------------------

def _mb_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "nu": runif(rng, 0.2, 1.5), "z": runif(rng, 0.2, 1.2)}


def _mb_rhs(p, tr):
    q = QParam(p["q"])
    nu, z = p["nu"], p["z"]
    return (z ** nu / qp(q.q, q, tr)
            * phi([z * z], [0.0], q, q.power(nu + 1), tr))


ident("modified_bessel_phi11", "SERIES",
      "modified kind-2 q-Bessel at doubled argument as a basic confluent value",
      lambda p, tr: modified_bessel_i(2, p["nu"], 2 * p["z"], QParam(p["q"]), tr),
      _mb_rhs, _mb_sample)


# --- kind-2 q-Bessel expansions -----------------------------------------------------

def _sb1_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "nu": rint(rng, 1, 4), "alpha": runif(rng, 0.2, 1.2),
            "z": runif(rng, 0.4, 1.4)}


def _sb1_lhs(p, tr):
    q = QParam(p["q"])
    nu, al, z = p["nu"], p["alpha"], p["z"]
    return ((z / 2.0) ** (nu + al) * bessel2_normalized_native(nu + al, z * z / 4.0, q, tr)
            * q.power(al * nu / 2.0))


def _sb1_rhs(p, tr):
    q = QParam(p["q"])
    nu, al, z = p["nu"], p["alpha"], p["z"]
    total = 0.0j
    for k in range(nu + 1):  # (q^-nu;q)_k terminates
        u = z * z * q.power(nu).real / 4.0
        total += (qpn(q.power(-nu), q, k) / qfac(q, k) * q.power(k * (k + 1) / 2.0)
                  * (-2.0 * q.power((nu + 2 * al) / 2.0) / z) ** k
                  * (z * q.power(nu / 2.0).real / 2.0) ** (al + k)
                  * bessel2_normalized_native(al + k, u, q, tr))
    return (z / 2.0) ** nu * total


ident("bessel_order_shift", "SERIES",
      "order-shifted kind-2 q-Bessel as a terminating sum over shifted orders",
      _sb1_lhs, _sb1_rhs, _sb1_sample)


def _sb2_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "nu": runif(rng, 0.2, 1.3), "w": runif(rng, 0.4, 1.4),
            "z": runif(rng, 0.3, 1.3)}


def _sb2_lhs(p, tr):
    q = QParam(p["q"])
    nu, w, z = p["nu"], p["w"], p["z"]
    return (w * z / 2.0) ** nu * bessel2_normalized_native(nu, w * w * z * z / 4.0, q, tr)


def _sb2_rhs(p, tr):
    q = QParam(p["q"])
    nu, w, z = p["nu"], p["w"], p["z"]
    u = w * w / 4.0
    body = m_expansion([z * z], [], q, 0.5, -q.power(nu + 0.5) * u,
                       lambda k: bessel2_normalized_native(nu + k, u, q, tr),
                       lambda k: _bessel2_bound(nu + k, u, q, tr), tr)
    return z ** nu * (w / 2.0) ** nu * body


ident("bessel_mult", "SERIES",
      "multiplication formula for the kind-2 q-Bessel function",
      _sb2_lhs, _sb2_rhs, _sb2_sample)


def _sb3a_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "nu": runif(rng, 0.2, 1.3), "w": runif(rng, 0.1, 0.8),
            "z": runif(rng, 0.3, 1.2)}


def _sb3a_lhs(p, tr):
    q = QParam(p["q"])
    nu, w, z = p["nu"], p["w"], p["z"]
    return bessel2_normalized_native(nu, w * w * z * z, q, tr)


def _sb3a_rhs(p, tr):
    q = QParam(p["q"])
    nu, w, z = p["nu"], p["w"], p["z"]
    w2 = w * w
    qnu1 = q.power(nu + 1)

    def values():
        den = 1.0 + 0.0j  # (q^(nu+1);q)_n
        a = qnu1  # q^(nu+1+n)
        for n in itertools.count():
            yield qlaguerre(n, nu, z * z, q) * w ** (2 * n) / den
            den *= 1.0 - a
            a *= q.q

    # |L_n^(nu)(x)/(q^(nu+1);q)_n| <= (-q^(1+nu)|x|;q)_inf / ((q;q)_inf (q^(nu+1);q)_inf)
    major = _laguerre_bound(qp(q.q, q, tr).real, nu, z * z, q) / qp(qnu1, q, tr).real
    body = majorized_sum(values(), lambda n: major * w2 ** n, lambda n: w2, tr,
                         "bessel_laguerre_genfun")
    return qp(w * w, q, tr) * qp(qnu1, q, tr) / qp(q.q, q, tr) * body


ident("bessel_laguerre_genfun", "SERIES",
      "normalized kind-2 q-Bessel as the q-Laguerre generating function "
      "(single base factorial in the denominator)",
      _sb3a_lhs, _sb3a_rhs, _sb3a_sample,
      corrected=True)


def _sb3b_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "alpha": runif(rng, 0.2, 1.3), "z": runif(rng, 0.3, 1.3),
            "n": rint(rng, 0, 5)}


def _sb3b_lhs(p, tr):
    q = QParam(p["q"])
    n, al, z = p["n"], p["alpha"], p["z"]
    return qlaguerre(n, al, z * z / 4.0, q) * (z / 2.0) ** al


def _sb3b_rhs(p, tr):
    q = QParam(p["q"])
    n, al, z = p["n"], p["alpha"], p["z"]
    u = z * z / 4.0
    body = m_expansion([], [], q, 0.5, -q.power(al + n + 0.5) * u,
                       lambda k: bessel2_normalized_native(k + al, u, q, tr),
                       lambda k: _bessel2_bound(al + k, u, q, tr), tr)
    return qp(q.power(n + 1), q, tr) / qp(q.power(al + n + 1), q, tr) * (z / 2.0) ** al * body


ident("bessel_laguerre_inverse", "SERIES",
      "q-Laguerre polynomial as a series over order-shifted kind-2 functions",
      _sb3b_lhs, _sb3b_rhs, _sb3b_sample)


def _sb4a_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "nu": runif(rng, 0.2, 1.4), "z": runif(rng, 0.3, 1.4)}


def _sb4a_rhs(p, tr):
    q = QParam(p["q"])
    nu, z = p["nu"], p["z"]
    body = m_weighted([-z * z / 4.0], [], q, 0.5, q.power(nu + 0.5), tr)
    return (z / 2.0) ** nu / qp(q.q, q, tr) * body


ident("bessel_poch_series", "SERIES",
      "kind-2 q-Bessel from the alternating shifted-factorial expansion",
      lambda p, tr: (p["z"] / 2.0) ** p["nu"] * bessel2_normalized_native(
          p["nu"], p["z"] ** 2 / 4.0, QParam(p["q"]), tr),
      _sb4a_rhs, _sb4a_sample)


def _sb4b_rhs(p, tr):
    q = QParam(p["q"])
    nu, z = p["nu"], p["z"]
    u = z * z / 4.0
    body = m_expansion([], [], q, 0.5, -q.power(nu + 0.5) * u,
                       lambda k: bessel2_normalized_native(k + nu, u, q, tr),
                       lambda k: _bessel2_bound(nu + k, u, q, tr), tr)
    return (z / 2.0) ** nu * body


ident("bessel_unit_series", "SERIES",
      "product ratio as a weighted series of order-shifted kind-2 functions",
      lambda p, tr: (qp(QParam(p["q"]).power(p["nu"] + 1), QParam(p["q"]), tr)
                     * (p["z"] / 2.0) ** p["nu"] / qp(p["q"], QParam(p["q"]), tr)),
      _sb4b_rhs, _sb4a_sample)


def _sb5a_rhs(p, tr):
    q = QParam(p["q"])
    nu, z = p["nu"], p["z"]
    body = m_expansion([], [], q, 0.5, q.power(nu + 0.5),
                       lambda k: ramanujan_a(q.power(nu + k) * z * z, q, tr),
                       lambda k: _airy_bound(q.q ** (nu + k) * z * z, q), tr)
    return z ** nu / qp(q.q, q, tr) * body


ident("bessel_airy_pair_a", "SERIES",
      "kind-2 q-Bessel at doubled argument from scaled Ramanujan functions",
      lambda p, tr: p["z"] ** p["nu"] * bessel2_normalized_native(
          p["nu"], p["z"] ** 2, QParam(p["q"]), tr),
      _sb5a_rhs, _sb4a_sample)


def _sb5b_lhs(p, tr):
    q = QParam(p["q"])
    nu, z = p["nu"], p["z"]
    return z ** nu * ramanujan_a(q.power(nu) * z * z, q, tr) / qp(q.q, q, tr)


def _sb5b_rhs(p, tr):
    q = QParam(p["q"])
    nu, z = p["nu"], p["z"]
    body = m_expansion([], [], q, 1.0, -q.power(nu),
                       lambda k: bessel2_normalized_native(k + nu, z * z, q, tr),
                       lambda k: _bessel2_bound(nu + k, z * z, q, tr), tr)
    return z ** nu * body


ident("bessel_airy_pair_b", "SERIES",
      "scaled Ramanujan function from order-shifted kind-2 functions (inverse pair)",
      _sb5b_lhs, _sb5b_rhs, _sb4a_sample)


# --- kind-3 q-Bessel expansions ------------------------------------------------------

def _sb313_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "nu": runif(rng, 0.2, 1.2), "mu": runif(rng, 0.3, 1.5),
            "z": runif(rng, 0.3, 1.2)}


def _sb313_lhs(p, tr):
    q = QParam(p["q"])
    nu, z = p["nu"], p["z"]
    return z ** (p["mu"] - nu) * z ** nu * bessel3_normalized_native(nu, z * z, q, tr)


def _sb313_rhs(p, tr):
    q = QParam(p["q"])
    nu, mu, z = p["nu"], p["mu"], p["z"]
    body = m_expansion([q.power(mu - nu)], [], q, 0.5, q.power(nu + 0.5),
                       lambda n: bessel3_normalized_native(mu + n, (q.power(n / 2.0).real * z) ** 2,
                                                           q, tr),
                       lambda n: _bessel3_bound(q.q ** n * z * z, q, tr), tr)
    return z ** mu * body


ident("bessel3_order_conn", "SERIES",
      "kind-3 q-Bessel connected to a family of shifted orders and arguments "
      "(terms carry the q^(-n mu/2) normalization of the shifted pair)",
      _sb313_lhs, _sb313_rhs, _sb313_sample,
      corrected=True)


def _sb314_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "nu": runif(rng, 0.2, 1.2), "w": runif(rng, 0.9, 1.6),
            "z": runif(rng, 0.3, 1.0)}


def _sb314_lhs(p, tr):
    q = QParam(p["q"])
    nu, w, z = p["nu"], p["w"], p["z"]
    u = z / w
    return u ** nu * bessel3_normalized_native(nu, u * u, q, tr)


def _sb314_rhs(p, tr):
    q = QParam(p["q"])
    nu, w, z = p["nu"], p["w"], p["z"]
    body = m_expansion([w * w], [], q, 0.5, q.power(0.5) * z * z / (w * w),
                       lambda n: bessel3_normalized_native(nu + n, (q.power(n / 2.0).real * z) ** 2,
                                                           q, tr),
                       lambda n: _bessel3_bound(q.q ** n * z * z, q, tr), tr)
    return w ** (-nu) * z ** nu * body


ident("bessel3_arg_conn", "SERIES",
      "kind-3 q-Bessel at a scaled argument as a shifted-order expansion",
      _sb314_lhs, _sb314_rhs, _sb314_sample)


def _sb315_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "nu": runif(rng, 0.2, 1.2), "z": runif(rng, 0.3, 1.2)}


def _sb315_lhs(p, tr):
    q = QParam(p["q"])
    return qp(p["z"] ** 2 * q.q, q, tr) / qp(q.q, q, tr)


def _sb315_rhs(p, tr):
    q = QParam(p["q"])
    nu, z = p["nu"], p["z"]
    return m_expansion([], [], q, 1.0, -q.power(nu),
                       lambda n: bessel3_normalized_native(nu + n, (q.power(n / 2.0).real * z) ** 2,
                                                           q, tr),
                       lambda n: _bessel3_bound(q.q ** n * z * z, q, tr), tr)


ident("bessel3_product_series", "SERIES",
      "shifted product as an order-sum of kind-3 q-Bessel values",
      _sb315_lhs, _sb315_rhs, _sb315_sample)


def _sb318_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "nu": runif(rng, 0.2, 1.2), "z": runif(rng, 0.3, 1.0),
            "n": rint(rng, 0, 5)}


def _sb318_lhs(p, tr):
    q = QParam(p["q"])
    return qlaguerre(p["n"], p["nu"], -p["z"] ** 2 * q.power(-p["nu"]), q)


def _sb318_rhs(p, tr):
    q = QParam(p["q"])
    nu, z, n = p["nu"], p["z"], p["n"]
    body = m_expansion([], [], q, 1.0, -z * z,
                       lambda k: bessel3_normalized_native(
                           k + nu, (z * q.power((n + k) / 2.0).real) ** 2, q, tr),
                       lambda k: _bessel3_bound(q.q ** (n + k) * z * z, q, tr), tr)
    return qp(q.power(n + 1), q, tr) / qp(q.power(nu + n + 1), q, tr) * body


ident("bessel3_laguerre_a", "SERIES",
      "q-Laguerre value at a negative scaled argument from kind-3 functions "
      "(argument scale matches the integrand, not the printed half power)",
      _sb318_lhs, _sb318_rhs, _sb318_sample,
      corrected=True)


def _sb319_lhs(p, tr):
    q = QParam(p["q"])
    nu, z, n = p["nu"], p["z"], p["n"]
    zz = z * q.power(n / 2.0).real
    return bessel3_normalized_native(nu, zz * zz, q, tr)


def _sb319_rhs(p, tr):
    q = QParam(p["q"])
    nu, z, n = p["nu"], p["z"], p["n"]
    fac_n = qfac(q, n).real
    y = -z * z * q.power(-nu)
    body = m_expansion([], [q.power(nu + n + 1)], q, 0.5, z * z * q.power(0.5),
                       lambda k: qlaguerre(n, nu + k, y, q),
                       lambda k: _laguerre_bound(fac_n, nu + k, abs(y), q), tr)
    return qp(q.power(nu + n + 1), q, tr) / qp(q.power(n + 1), q, tr) * body


ident("bessel3_laguerre_b", "SERIES",
      "kind-3 q-Bessel from order-shifted q-Laguerre values (inverse pair, "
      "normalized by the full scaled argument power)",
      _sb319_lhs, _sb319_rhs, _sb318_sample,
      corrected=True)


# --- basic confluent expansions -------------------------------------------------------

def _sc2_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "nu": runif(rng, 0.2, 1.2), "a": runif(rng, 0.2, 1.0),
            "z": runif(rng, 0.2, 0.9)}


def _sc2_lhs(p, tr):
    q = QParam(p["q"])
    nu, a, z = p["nu"], p["a"], p["z"]
    return phi([-a * q.power(nu + 1)], [q.power(nu + 1)], q, z, tr)


def _sc2_rhs(p, tr):
    q = QParam(p["q"])
    nu, a, z = p["nu"], p["a"], p["z"]
    body = m_expansion([], [], q, 0.5, z * q.power(-0.5),
                       lambda k: bessel2_normalized_native(nu + k, a * z, q, tr),
                       lambda k: _bessel2_bound(nu + k, a * z, q, tr), tr)
    return qp(q.q, q, tr) / qp(q.power(nu + 1), q, tr) * body


ident("confluent_bessel_series", "SERIES",
      "basic confluent series expanded over normalized kind-2 functions",
      _sc2_lhs, _sc2_rhs, _sc2_sample)


def _sc4_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "a": runif(rng, 0.2, 1.0), "z": cring(rng, 0.1, 0.7)}


def _sc4_lhs(p, tr):
    q = QParam(p["q"])
    a, z = p["a"], p["z"]
    return qp(z, q, tr) * phi([a], [z], q, -z, tr)


def _sc4_rhs(p, tr):
    q = QParam(p["q"])
    a, z = p["a"], p["z"]
    return m_expansion([], [], QParam(q.q * q.q), 1.0, -z * z / q.q,
                       lambda k: ramanujan_a(q.power(2 * k - 1) * a * z, q, tr),
                       lambda k: _airy_bound(q.q ** (2 * k - 1) * abs(a * z), q), tr)


ident("confluent_airy_series", "SERIES",
      "product-weighted confluent value as an even series of Ramanujan functions",
      _sc4_lhs, _sc4_rhs, _sc4_sample)


def _sc5_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.35, 0.7), "a": runif(rng, 0.3, 1.2), "b": cring(rng, 0.05, 0.5),
                "z": cring(rng, 0.1, 0.8)}

    def ok(p):
        return abs(p["b"] / (p["a"] * p["z"])) < 3.0

    return resample(rng, draw, ok)


def _sc5_lhs(p, tr):
    q = QParam(p["q"])
    return qp(p["z"], q, tr) / qp(p["b"], q, tr)


def _sc5_rhs(p, tr):
    q = QParam(p["q"])
    a, b, z = p["a"], p["b"], p["z"]
    return m_expansion([b / (a * z)], [b], q, 0.5, a * z * q.power(-0.5),
                       lambda k: phi([a], [b * q.power(k)], q, z * q.power(k), tr),
                       lambda k: _phi11_bound(abs(a), abs(b) * q.q ** k, abs(z) * q.q ** k, q),
                       tr)


ident("confluent_ratio_series", "SERIES",
      "product ratio as a parameter-shifted basic confluent expansion",
      _sc5_lhs, _sc5_rhs, _sc5_sample)


def _sc6_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "nu": runif(rng, 0.2, 1.2), "z": runif(rng, 0.2, 1.2)}


def _sc6_lhs(p, tr):
    q = QParam(p["q"])
    nu, z = p["nu"], p["z"]
    u = z * math.sqrt(q.q)
    return bessel2_normalized_native(nu, u * u / 4.0, q, tr)


def _sc6_rhs(p, tr):
    q = QParam(p["q"])
    nu, z = p["nu"], p["z"]
    a = -q.power(nu + 1) * z / 4.0
    body = m_expansion([], [q.power(nu + 1)], q, 1.0, -z,
                       lambda k: phi([a], [q.power(nu + k + 1)], q, z * q.power(k + 1), tr),
                       lambda k: _phi11_bound(abs(a), q.q ** (nu + k + 1), abs(z) * q.q ** (k + 1),
                                              q), tr)
    return qp(q.power(nu + 1), q, tr) / qp(q.q, q, tr) * body


ident("confluent_bessel_sqrt", "SERIES",
      "kind-2 q-Bessel at a half-shifted argument from confluent values",
      _sc6_lhs, _sc6_rhs, _sc6_sample)


def _sc9_sample(rng):
    q = qdraw(rng, 0.35, 0.7)
    return {"q": q, "a": runif(rng, 0.2, 1.0), "b": runif(rng, 0.05, 0.6),
            "d": runif(rng, 0.1, 0.9), "z": cring(rng, 0.1, 0.8)}


def _sc9_lhs(p, tr):
    q = QParam(p["q"])
    return phi([p["a"]], [p["b"]], q, p["z"], tr)


def _sc9_rhs(p, tr):
    q = QParam(p["q"])
    a, b, d, z = p["a"], p["b"], p["d"], p["z"]
    body = m_expansion([d], [b * d], q, 0.5, b * q.power(-0.5),
                       lambda k: phi([a], [b * d * q.power(k)], q, z * q.power(k), tr),
                       lambda k: _phi11_bound(abs(a), abs(b * d) * q.q ** k, abs(z) * q.q ** k, q),
                       tr)
    return qp(b * d, q, tr) / qp(b, q, tr) * body


ident("confluent_param_shift", "SERIES",
      "basic confluent series re-expanded with a stretched lower parameter",
      _sc9_lhs, _sc9_rhs, _sc9_sample)


def _sc10_sample(rng):
    q = qdraw(rng, 0.35, 0.7)
    return {"q": q, "a": runif(rng, 0.2, 1.0), "b": runif(rng, 0.05, 0.6),
            "w": runif(rng, 0.1, 0.9), "z": cring(rng, 0.1, 0.8)}


def _sc10_lhs(p, tr):
    q = QParam(p["q"])
    return phi([p["a"] * p["w"]], [p["b"]], q, p["z"], tr)


def _sc10_rhs(p, tr):
    q = QParam(p["q"])
    a, b, w, z = p["a"], p["b"], p["w"], p["z"]
    return m_expansion([w], [b], q, 0.5, z * q.power(-0.5),
                       lambda k: phi([a], [b * q.power(k)], q, w * z * q.power(k), tr),
                       lambda k: _phi11_bound(abs(a), abs(b) * q.q ** k, abs(w * z) * q.q ** k, q),
                       tr)


ident("confluent_arg_shift", "SERIES",
      "basic confluent series with a split upper parameter and argument",
      _sc10_lhs, _sc10_rhs, _sc10_sample)


def _sc7_sample(rng):
    return {"q": qdraw(rng, 0.35, 0.7), "alpha": runif(rng, 0.2, 1.0), "x": runif(rng, 0.2, 1.0),
            "n": rint(rng, 0, 5)}


def _sc7_lhs(p, tr):
    q = QParam(p["q"])
    n, al, x = p["n"], p["alpha"], p["x"]
    return qfac(q, n) * qlaguerre(n, al, x, q) / qpn(q.power(al + 1), q, n)


def _sc7_rhs(p, tr):
    q = QParam(p["q"])
    n, al, x = p["n"], p["alpha"], p["x"]
    a = -q.power(al + 0.5)
    return m_expansion([-q.power(-al - n - 0.5)], [q.power(al + 1)], q, 0.5,
                       -x * q.power(al + n + 0.5),
                       lambda k: phi([a], [q.power(al + k + 1)], q, x * q.power(k + 0.5), tr),
                       lambda k: _phi11_bound(abs(a), q.q ** (al + k + 1),
                                              abs(x) * q.q ** (k + 0.5), q), tr)


ident("laguerre_phi11_series", "SERIES",
      "normalized q-Laguerre polynomial as a confluent-value expansion",
      _sc7_lhs, _sc7_rhs, _sc7_sample)
