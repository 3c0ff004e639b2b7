"""FOURIER group: Gaussian-weighted transform pairs and Plancherel identities.

Every entry pits a closed form (series/product evaluation) against a
Gaussian-weighted line integral, or - for the Plancherel entries - two
structurally different integrals against each other.

Weight dictionary, with L = ln(1/q) and the engine weight
exp(-y^2/(2 sigma^2)):

    exp(y^2/log q^2)   -> sigma^2 = L          q^(y^2/2) -> sigma^2 = 1/L
    exp(y^2/log q)     -> sigma^2 = L/2        q^(y^2)   -> sigma^2 = 1/(2L)
    exp(y^2/log q^4)   -> sigma^2 = 2L         q^(2y^2)  -> sigma^2 = 1/(4L)
    exp(y^2/log q^1/2) -> sigma^2 = L/4        q^(y^2/4) -> sigma^2 = 2/L

A side whose integrand carries its own decay (a poch_gauss factor or a
product of confluent_phi_weighted factors, which falls off as a Gaussian
on one side and exponentially on the other) takes no engine weight and
is integrated with real_line instead.
"""

from __future__ import annotations

import cmath
import math

from ..core import QParam
from ..polys import qhermite_inv_exp, qlaguerre, stieltjes_wigert
from ..series import (
    bessel1_normalized,
    bessel2_normalized_gauss,
    bessel3_normalized_gauss,
    confluent_phi_weighted,
    cal_e_raw_shifted,
    poch_gauss,
    ramanujan_a_shifted,
    bessel2_normalized,
    bessel2_normalized_native,
    bessel3_normalized,
    bessel3_normalized_native,
    cal_e,
    cal_e_raw,
    m_expansion,
    m_weighted,
    modified_bessel_i,
    phi,
    q_exp_big,
    q_exp_small,
    ramanujan_a,
)
from ..quad import gaussian_line, real_line
from ._common import cring, exp_i, ident, qdraw, qfac, qp, qpm, qpn, resample, rint, runif

SQ2PI = math.sqrt(2.0 * math.pi)


def _L(p):
    return -math.log(p["q"])


def _qiy(q, y):
    """q^(iy) evaluated continuously (never wraps a branch cut)."""
    return cmath.exp(1j * y * q.ln_q)


# ===========================================================================
# q-exponentials E_q / e_q
# ===========================================================================

def _s_eq(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "z": cring(rng, 0.15, 0.5), "alpha": runif(rng, -1.2, 1.2)}


def _f2_lhs(p, tr):
    q = QParam(p["q"])
    return q.power(p["alpha"] ** 2 / 2.0) * q_exp_big(p["z"] * q.power(p["alpha"] + 0.5), q, tr)


def _f2_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, al = p["z"], p["alpha"]

    def f(y):
        return q_exp_small(z * _qiy(q, y), q, tr) * _qiy(q, al * y)

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, tr)


ident("fourier_eq_pair_1", "FOURIER",
      "scaled big q-exponential as the transform of the small one",
      _f2_lhs, _f2_rhs, _s_eq)


def _s_eq_y(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "z": cring(rng, 0.15, 0.5), "y0": runif(rng, -1.2, 1.2)}


def _f3_lhs(p, tr):
    q = QParam(p["q"])
    return q_exp_small(p["z"] * _qiy(q, p["y0"]), q, tr) * q.power(p["y0"] ** 2 / 2.0)


def _f3_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, y0 = p["z"], p["y0"]

    def f(a):
        return poch_gauss(-z * q.power(0.5), a, q, tr) * _qiy(q, -a * y0)

    return math.sqrt(L / (2 * math.pi)) * real_line(f, tr)


ident("fourier_eq_pair_2", "FOURIER",
      "small q-exponential recovered from the scaled big one (inverse direction)",
      _f3_lhs, _f3_rhs, _s_eq_y)


def _s_eq_z(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "z": cring(rng, 0.15, 0.55)}


def _f4_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z = p["z"]

    def f(a):
        return q_exp_big(-z * q.power(0.5 + a), q, tr) * q_exp_big(z * q.power(0.5 - a), q, tr)

    return math.sqrt(L / math.pi) * gaussian_line(f, 1 / (2 * L), tr)


ident("fourier_eq_double", "FOURIER",
      "modulus-doubling formula for the big q-exponential",
      lambda p, tr: q_exp_big(p["q"] * p["z"] ** 2, QParam(p["q"] ** 2), tr),
      _f4_rhs, _s_eq_z)


def _f5_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    z = p["z"]

    def f(a):
        return q_exp_big(-z * q.power(1 - 2 * a), q2, tr) * q_exp_big(-z * q.power(2 + 2 * a), q2, tr)

    return math.sqrt(2 * L / math.pi) * gaussian_line(f, 1 / (4 * L), tr)


ident("fourier_eq_half", "FOURIER",
      "modulus-halving formula for the big q-exponential",
      lambda p, tr: q_exp_big(-p["z"] * math.sqrt(p["q"]), QParam(p["q"]), tr),
      _f5_rhs, _s_eq_z)


def _f6_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z = p["z"]

    def f(y):
        w = _qiy(q, y)
        return q_exp_small(z * w, q, tr) * q_exp_small(-z / w, q, tr)

    return math.sqrt(L / math.pi) * gaussian_line(f, 1 / (2 * L), tr)


ident("fourier_eq_small_double", "FOURIER",
      "modulus-doubling formula for the small q-exponential",
      lambda p, tr: q_exp_small(-p["z"] ** 2, QParam(p["q"] ** 2), tr),
      _f6_rhs, _s_eq_z)


def _s_eq_small(rng):
    q = qdraw(rng, 0.3, 0.7)
    return {"q": q, "z": cring(rng, 0.1, 0.8 * math.sqrt(q))}


def _f7_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    z = p["z"]
    rq = math.sqrt(q.q)

    def f(y):
        w = _qiy(q, y)
        return q_exp_small(z * w / rq, q2, tr) * q_exp_small(z * rq / w, q2, tr)

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, tr)


ident("fourier_eq_small_half", "FOURIER",
      "modulus-halving formula for the small q-exponential",
      lambda p, tr: q_exp_small(p["z"], QParam(p["q"]), tr),
      _f7_rhs, _s_eq_small)


def _f11_lhs(p, tr):
    q = QParam(p["q"])
    return q.power(p["alpha"] ** 2 / 2.0) * qp(-p["z"] * q.power(p["alpha"] + 0.5), q, tr)


def _f11_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, al = p["z"], p["alpha"]

    def f(x):
        return exp_i(al * x) / qp(z * exp_i(x), q, tr)

    return gaussian_line(f, L, tr) / math.sqrt(2 * math.pi * L)


ident("fourier_eq_x_form", "FOURIER",
      "big q-exponential pair written with unit-frequency phases",
      _f11_lhs, _f11_rhs, _s_eq)


def _s_eq_x(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "z": cring(rng, 0.15, 0.5), "x0": runif(rng, -1.5, 1.5)}


def _f12_lhs(p, tr):
    q = QParam(p["q"])
    x0 = p["x0"]
    return math.exp(x0 * x0 / (2 * q.ln_q)) / qp(p["z"] * exp_i(x0), q, tr)


def _f12_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, x0 = p["z"], p["x0"]

    def f(a):
        return poch_gauss(-z * q.power(0.5), a, q, tr) * exp_i(-a * x0)

    return math.sqrt(L / (2 * math.pi)) * real_line(f, tr)


ident("fourier_eq_x_inverse", "FOURIER",
      "weighted e_q reciprocal recovered from the big q-exponential",
      _f12_lhs, _f12_rhs, _s_eq_x)


def _f13_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, al = p["z"], p["alpha"]

    def f(y):
        return _qiy(q, al * y) / qp(z * _qiy(q, y), q, tr)

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, tr)


ident("fourier_eq_sym", "FOURIER",
      "symmetric form of the big/small q-exponential pair",
      _f11_lhs, _f13_rhs, _s_eq)


def _f14_lhs(p, tr):
    q = QParam(p["q"])
    y0 = p["y0"]
    return q.power(y0 * y0 / 2.0) / qp(p["z"] * _qiy(q, y0), q, tr)


def _f14_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, y0 = p["z"], p["y0"]

    def f(a):
        return _qiy(q, -a * y0) * poch_gauss(-z * q.power(0.5), a, q, tr)

    return math.sqrt(L / (2 * math.pi)) * real_line(f, tr)


ident("fourier_eq_sym_inverse", "FOURIER",
      "inverse of the symmetric q-exponential pair",
      _f14_lhs, _f14_rhs, _s_eq_y)


def _f25_lhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    z = p["z"]

    def f(a):
        return qp(z * q.power(1 - 2 * a), q2, tr) * qp(z * q.power(2 + 2 * a), q2, tr)

    return gaussian_line(f, 1 / (4 * L), tr)


def _f25_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z = p["z"]

    def f(x):
        return 1.0 / qp(-z * exp_i(x), q, tr)

    return gaussian_line(f, L, tr) / (2 * L)


ident("fourier_eq_parseval", "FOURIER",
      "two integral routes to the same half-shifted infinite product",
      _f25_lhs, _f25_rhs, _s_eq_z)


def _f26_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    z = p["z"]

    def f(a):
        return qp(z * q.power(1 - 2 * a), q2, tr) * qp(z * q.power(2 + 2 * a), q2, tr)

    return math.sqrt(2 * L / math.pi) * gaussian_line(f, 1 / (4 * L), tr)


ident("fourier_eq_half_product", "FOURIER",
      "(z q^(1/2);q)_inf as a doubled-base Gaussian integral",
      lambda p, tr: qp(p["z"] * math.sqrt(p["q"]), QParam(p["q"]), tr),
      _f26_rhs, _s_eq_z)


# ===========================================================================
# the two-variable q-exponential
# ===========================================================================

def _s_cal(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "theta": runif(rng, 0.4, 2.7),
            "t": runif(rng, 0.1, 0.45), "alpha": runif(rng, -1.0, 1.0)}


def _f39_lhs(p, tr):
    q = QParam(p["q"])
    x = math.cos(p["theta"])
    return q.power(p["alpha"] ** 2 / 4.0) * cal_e_raw(x, p["t"] * q.power(p["alpha"] / 2.0), q, tr)


def _f39_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    t, th, al = p["t"], p["theta"], p["alpha"]

    def f(y):
        w = t * _qiy(q, y)
        return (q_exp_small(w * exp_i(th), q, tr) * q_exp_small(w * exp_i(-th), q, tr)
                * _qiy(q, al * y))

    return math.sqrt(L / math.pi) * gaussian_line(f, 1 / (2 * L), tr)


ident("fourier_cal_e_1", "FOURIER",
      "normalized two-variable q-exponential as a transform of an e_q pair",
      _f39_lhs, _f39_rhs, _s_cal)


def _s_cal_y(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "theta": runif(rng, 0.4, 2.7),
            "t": runif(rng, 0.1, 0.45), "y0": runif(rng, -1.0, 1.0)}


def _f40_lhs(p, tr):
    q = QParam(p["q"])
    t, th, y0 = p["t"], p["theta"], p["y0"]
    w = t * _qiy(q, y0)
    return (q.power(y0 ** 2) * q_exp_small(w * exp_i(th), q, tr)
            * q_exp_small(w * exp_i(-th), q, tr))


def _f40_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    t, th, y0 = p["t"], p["theta"], p["y0"]
    x = math.cos(th)

    def f(a):
        return cal_e_raw_shifted(x, t, a, q, tr) * _qiy(q, -a * y0)

    return math.sqrt(L / (4 * math.pi)) * real_line(f, tr)


ident("fourier_cal_e_2", "FOURIER",
      "e_q pair recovered from the two-variable q-exponential (inverse direction)",
      _f40_lhs, _f40_rhs, _s_cal_y)


def _s_cal_t(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "theta": runif(rng, 0.4, 2.7), "t": runif(rng, 0.1, 0.5)}


def _f41_lhs(p, tr):
    q2 = QParam(p["q"] ** 2)
    return cal_e(math.cos(2 * p["theta"]), p["t"] ** 2, q2, tr)


def _f41_rhs(p, tr):
    q = QParam(p["q"])
    q4 = QParam(q.q ** 4)
    L = _L(p)
    t, th = p["t"], p["theta"]
    x = math.cos(th)

    def f(a):
        return (cal_e_raw(x, -t * q.power(-a / 2.0), q, tr)
                * cal_e_raw(x, t * q.power(a / 2.0), q, tr))

    val = math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, tr)
    return val / qp(t ** 4 * q.q ** 2, q4, tr)


ident("fourier_cal_e_double", "FOURIER",
      "modulus-doubling formula for the two-variable q-exponential",
      _f41_lhs, _f41_rhs, _s_cal_t)


def _f42_lhs(p, tr):
    return cal_e(math.cos(p["theta"]), p["t"], QParam(p["q"]), tr)


def _f42_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    t, th = p["t"], p["theta"]
    x = math.cos(th)

    def f(a):
        return (cal_e_raw(x, t * q.power(a), q2, tr)
                * cal_e_raw(x, t * q.power(1 - a), q2, tr))

    val = math.sqrt(L / math.pi) * gaussian_line(f, 1 / (2 * L), tr)
    return val / qp(t * t * q.q, q2, tr)


ident("fourier_cal_e_half", "FOURIER",
      "modulus-halving formula for the two-variable q-exponential",
      _f42_lhs, _f42_rhs, _s_cal_t)


def _f232_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    t, th, al = p["t"], p["theta"], p["alpha"]

    def f(y):
        return exp_i(al * y) / (qp(t * exp_i(y + th), q, tr) * qp(t * exp_i(y - th), q, tr))

    return gaussian_line(f, L / 2, tr) / math.sqrt(math.pi * L)


ident("fourier_cal_e_x_form", "FOURIER",
      "two-variable q-exponential pair with unit-frequency phases",
      _f39_lhs, _f232_rhs, _s_cal)


def _s_cal_x(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "theta": runif(rng, 0.4, 2.7),
            "t": runif(rng, 0.1, 0.45), "x0": runif(rng, -1.2, 1.2)}


def _f233_lhs(p, tr):
    q = QParam(p["q"])
    t, th, x0 = p["t"], p["theta"], p["x0"]
    return math.exp(x0 * x0 / q.ln_q) / (qp(t * exp_i(x0 + th), q, tr) * qp(t * exp_i(x0 - th), q, tr))


def _f233_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    t, th, x0 = p["t"], p["theta"], p["x0"]
    x = math.cos(th)

    def f(a):
        return cal_e_raw_shifted(x, t, a, q, tr) * exp_i(-a * x0)

    return math.sqrt(L / (4 * math.pi)) * real_line(f, tr)


ident("fourier_cal_e_x_inverse", "FOURIER",
      "inverse of the unit-frequency two-variable q-exponential pair",
      _f233_lhs, _f233_rhs, _s_cal_x)


# ===========================================================================
# Ramanujan function
# ===========================================================================

def _s_airy(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "z": cring(rng, 0.15, 0.6), "alpha": runif(rng, -1.2, 1.2)}


def _fa1_lhs(p, tr):
    q = QParam(p["q"])
    return q.power(p["alpha"] ** 2 / 2.0) * ramanujan_a(q.power(p["alpha"]) * p["z"], q, tr)


def _fa1_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, al = p["z"], p["alpha"]

    def f(y):
        return q_exp_big(-z * q.power(0.5) * _qiy(q, y), q, tr) * _qiy(q, al * y)

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, tr)


ident("fourier_airy_1", "FOURIER",
      "scaled Ramanujan function as a transform of the big q-exponential",
      _fa1_lhs, _fa1_rhs, _s_airy)


def _s_airy_y(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "z": cring(rng, 0.15, 0.6), "y0": runif(rng, -1.2, 1.2)}


def _fa2_lhs(p, tr):
    q = QParam(p["q"])
    y0 = p["y0"]
    return q_exp_big(-p["z"] * q.power(0.5) * _qiy(q, y0), q, tr) * q.power(y0 ** 2 / 2.0)


def _fa2_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, y0 = p["z"], p["y0"]

    def f(a):
        # q^(a^2/4) folded in for stability; engine supplies the other half
        return q.power(1j * a * (-y0)) * ramanujan_a_shifted(z, a / 2.0, q, tr)

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 2 / L, tr)


ident("fourier_airy_2", "FOURIER",
      "big q-exponential recovered from the scaled Ramanujan function",
      _fa2_lhs, _fa2_rhs, _s_airy_y)


def _s_airy_z(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "z": cring(rng, 0.15, 0.6)}


def _fa3_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z = p["z"]

    def f(a):
        return ramanujan_a_shifted(z, a / 2.0, q, tr) * ramanujan_a_shifted(-z, -a / 2.0, q, tr)

    return math.sqrt(L / math.pi) * gaussian_line(f, 1 / L, tr)


ident("fourier_airy_3", "FOURIER",
      "modulus-doubling formula for the Ramanujan function",
      lambda p, tr: ramanujan_a(p["z"] ** 2, QParam(p["q"] ** 2), tr),
      _fa3_rhs, _s_airy_z)


def _fa4_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    z = p["z"]

    def f(a):
        return (ramanujan_a(q.power(a + 0.5) * z, q2, tr)
                * ramanujan_a(q.power(-a - 0.5) * z, q2, tr))

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, tr)


ident("fourier_airy_4", "FOURIER",
      "modulus-halving formula for the Ramanujan function",
      lambda p, tr: ramanujan_a(p["z"], QParam(p["q"]), tr),
      _fa4_rhs, _s_airy_z)


def _fa5_lhs(p, tr):
    q = QParam(p["q"])
    return q.power(p["alpha"] ** 2) * ramanujan_a(q.power(2 * p["alpha"]) * p["z"], q, tr)


def _fa5_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, al = p["z"], p["alpha"]

    def f(y):
        return q_exp_small(-z * _qiy(q, y), q, tr) * _qiy(q, al * y)

    return math.sqrt(L / (4 * math.pi)) * gaussian_line(f, 2 / L, tr)


ident("fourier_airy_5", "FOURIER",
      "double-scaled Ramanujan function as a transform of the small q-exponential",
      _fa5_lhs, _fa5_rhs, _s_airy)


def _fa6_lhs(p, tr):
    q = QParam(p["q"])
    y0 = p["y0"]
    return q.power(y0 ** 2 / 4.0) * q_exp_small(-p["z"] * _qiy(q, y0), q, tr)


def _fa6_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, y0 = p["z"], p["y0"]

    def f(a):
        return _qiy(q, -a * y0) * ramanujan_a_shifted(z, a, q, tr)

    return math.sqrt(L / math.pi) * real_line(f, tr)


ident("fourier_airy_6", "FOURIER",
      "small q-exponential recovered from the double-scaled Ramanujan function",
      _fa6_lhs, _fa6_rhs, _s_airy_y)


def _fa7_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z = p["z"]

    def f(a):
        return ramanujan_a_shifted(z, -a / 2.0, q, tr) * ramanujan_a_shifted(-z, a / 2.0, q, tr)

    return math.sqrt(L / (2 * math.pi)) * real_line(f, tr)


ident("fourier_airy_7", "FOURIER",
      "second modulus-doubling formula for the Ramanujan function",
      lambda p, tr: ramanujan_a(-p["z"] ** 2, QParam(p["q"] ** 2), tr),
      _fa7_rhs, _s_airy_z)


def _fa8_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    z = p["z"]

    def f(a):
        return (ramanujan_a(q.power(2 * a) * z, q2, tr)
                * ramanujan_a(q.power(1 - 2 * a) * z, q2, tr))

    return math.sqrt(L / math.pi) * gaussian_line(f, 1 / (2 * L), tr)


ident("fourier_airy_8", "FOURIER",
      "second modulus-halving formula for the Ramanujan function",
      lambda p, tr: ramanujan_a(p["z"], QParam(p["q"]), tr),
      _fa8_rhs, _s_airy_z)


def _fa9_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, al = p["z"], p["alpha"]

    def f(x):
        return qp(z * math.sqrt(q.q) * exp_i(x), q, tr) * exp_i(al * x)

    return gaussian_line(f, L, tr) / math.sqrt(2 * math.pi * L)


ident("fourier_airy_9", "FOURIER",
      "scaled Ramanujan function with unit-frequency phases",
      _fa1_lhs, _fa9_rhs, _s_airy)


def _s_airy_x(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "z": cring(rng, 0.15, 0.6), "x0": runif(rng, -1.4, 1.4)}


def _fa10_lhs(p, tr):
    q = QParam(p["q"])
    x0 = p["x0"]
    return qp(p["z"] * math.sqrt(q.q) * exp_i(x0), q, tr) * math.exp(x0 * x0 / (2 * q.ln_q))


def _fa10_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, x0 = p["z"], p["x0"]

    def f(a):
        return ramanujan_a_shifted(z, a / 2.0, q, tr) * exp_i(-a * x0)

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 2 / L, tr)


ident("fourier_airy_10", "FOURIER",
      "inverse of the unit-frequency Ramanujan pair",
      _fa10_lhs, _fa10_rhs, _s_airy_x)


def _fa11_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z, al = p["z"], p["alpha"]

    def f(x):
        return exp_i(al * x) / qp(-z * exp_i(x), q, tr)

    return gaussian_line(f, 2 * L, tr) / math.sqrt(2 * math.pi * 2 * L)


ident("fourier_airy_11", "FOURIER",
      "double-scaled Ramanujan function with unit-frequency phases",
      _fa5_lhs, _fa11_rhs, _s_airy)


def _fa12_lhs(p, tr):
    q = QParam(p["q"])
    x0 = p["x0"]
    return math.exp(x0 * x0 / (4 * q.ln_q)) / (qp(p["z"] * exp_i(x0), q, tr)
                                               * math.sqrt(2 * _L(p)))


def _fa12_rhs(p, tr):
    q = QParam(p["q"])
    z, x0 = p["z"], p["x0"]

    def f(a):
        return ramanujan_a_shifted(-z, a, q, tr) * exp_i(-a * x0)

    return real_line(f, tr) / SQ2PI


ident("fourier_airy_12", "FOURIER",
      "inverse of the unit-frequency double-scaled Ramanujan pair",
      _fa12_lhs, _fa12_rhs, _s_airy_x)


# ===========================================================================
# Stieltjes-Wigert polynomials
# ===========================================================================

def _s_sw(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "x": cring(rng, 0.2, 1.2), "n": rint(rng, 0, 6),
            "alpha": runif(rng, -1.0, 1.0)}


def _fsw1_lhs(p, tr):
    q = QParam(p["q"])
    return q.power(p["alpha"] ** 2 / 2.0) * stieltjes_wigert(p["n"], p["x"] * q.power(p["alpha"] - 0.5), q)


def _fsw1_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    x, n, al = p["x"], p["n"], p["alpha"]

    def f(y):
        return qpn(x * _qiy(q, y), q, n) * _qiy(q, al * y)

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, tr) / qfac(q, n)


ident("fourier_sw_1", "FOURIER",
      "scaled Stieltjes-Wigert polynomial as a finite-product transform",
      _fsw1_lhs, _fsw1_rhs, _s_sw)


def _s_sw_y(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "x": cring(rng, 0.2, 1.2), "n": rint(rng, 0, 6),
            "y0": runif(rng, -1.0, 1.0)}


def _fsw2_lhs(p, tr):
    q = QParam(p["q"])
    n, y0 = p["n"], p["y0"]
    return qpn(p["x"] * q.power(0.5) * _qiy(q, y0), q, n) * q.power(y0 ** 2 / 2.0) / qfac(q, n)


def _fsw2_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    x, n, y0 = p["x"], p["n"], p["y0"]

    def f(a):
        return stieltjes_wigert(n, x * q.power(a), q) * _qiy(q, -a * y0)

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, tr)


ident("fourier_sw_2", "FOURIER",
      "finite product recovered from the scaled Stieltjes-Wigert polynomial",
      _fsw2_lhs, _fsw2_rhs, _s_sw_y)


def _s_sw_x(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "x": runif(rng, 0.2, 1.2), "n": rint(rng, 0, 6)}


def _fsw3_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    x, n = p["x"], p["n"]

    def f(a):
        return stieltjes_wigert(n, -x * q.power(-a), q) * stieltjes_wigert(n, x * q.power(a), q)

    pref = qfac(q, n) / qpn(-q.q, q, n)
    return pref * math.sqrt(L / math.pi) * gaussian_line(f, 1 / (2 * L), tr)


ident("fourier_sw_3", "FOURIER",
      "modulus-doubling formula for Stieltjes-Wigert polynomials",
      lambda p, tr: stieltjes_wigert(p["n"], p["x"] ** 2, QParam(p["q"] ** 2)),
      _fsw3_rhs, _s_sw_x)


def _fsw4_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    x, n = p["x"], p["n"]

    def f(a):
        return (stieltjes_wigert(n, x * q.power(0.5 - 2 * a), q2)
                * stieltjes_wigert(n, x * q.power(2 * a - 0.5), q2))

    pref = qpn(q2.q, q2, n) / qpn(q.q, q2, n)
    return pref * math.sqrt(2 * L / math.pi) * gaussian_line(f, 1 / (4 * L), tr)


ident("fourier_sw_4", "FOURIER",
      "modulus-halving formula for Stieltjes-Wigert polynomials",
      lambda p, tr: stieltjes_wigert(2 * p["n"], p["x"], QParam(p["q"])),
      _fsw4_rhs, _s_sw_x)


def _fsw5_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    x, n, al = p["x"], p["n"], p["alpha"]

    def f(y):
        return qpn(x * exp_i(y), q, n) * exp_i(al * y)

    return gaussian_line(f, L, tr) / (math.sqrt(math.pi * 2 * L) * qfac(q, n))


ident("fourier_sw_5", "FOURIER",
      "scaled Stieltjes-Wigert polynomial with unit-frequency phases",
      _fsw1_lhs, _fsw5_rhs, _s_sw)


def _s_sw_x0(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "x": cring(rng, 0.2, 1.2), "n": rint(rng, 0, 6),
            "x0": runif(rng, -1.4, 1.4)}


def _fsw6_lhs(p, tr):
    q = QParam(p["q"])
    n, x0 = p["n"], p["x0"]
    return (qpn(p["x"] * exp_i(x0), q, n) * math.exp(x0 * x0 / (2 * q.ln_q))
            / (qfac(q, n) * math.sqrt(_L(p))))


def _fsw6_rhs(p, tr):
    q = QParam(p["q"])
    x, n, x0 = p["x"], p["n"], p["x0"]

    def f(a):
        return stieltjes_wigert(n, x * q.power(a - 0.5), q) * exp_i(-a * x0)

    return gaussian_line(f, 1 / _L(p), tr) / SQ2PI


ident("fourier_sw_6", "FOURIER",
      "inverse of the unit-frequency Stieltjes-Wigert pair",
      _fsw6_lhs, _fsw6_rhs, _s_sw_x0)


# ===========================================================================
# inverse-base Hermite polynomials
# ===========================================================================

def _s_h(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "xi": runif(rng, -0.7, 0.7), "n": rint(rng, 0, 5),
            "alpha": runif(rng, -1.0, 1.0)}


def _fh1_lhs(p, tr):
    q = QParam(p["q"])
    n, xi, al = p["n"], p["xi"], p["alpha"]
    arg_exp = cmath.exp(xi / 2.0 - (al - n) / 2.0 * q.ln_q)
    hval = qhermite_inv_exp(n, arg_exp, q)
    return (q.power((al * al - n * al + n * n) / 2.0) * hval
            / ((-math.exp(-xi / 2.0)) ** n * math.sqrt(_L(p))))


def _fh1_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    n, xi, al = p["n"], p["xi"], p["alpha"]

    def f(x):
        return q.power(1j * al * x) * qpn(math.exp(xi) * q.power(0.5) / _qiy(q, x), q, n)

    return gaussian_line(f, 1 / L, tr) / SQ2PI


ident("fourier_h_1", "FOURIER",
      "shifted inverse-base Hermite polynomial as a finite-product transform",
      _fh1_lhs, _fh1_rhs, _s_h)


def _s_h_x(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "xi": runif(rng, -0.7, 0.7), "n": rint(rng, 0, 5),
            "x0": runif(rng, -1.0, 1.0)}


def _fh2_lhs(p, tr):
    q = QParam(p["q"])
    n, xi, x0 = p["n"], p["xi"], p["x0"]
    return (q.power(x0 * x0 / 2.0 - n * n / 2.0) * qpn(math.exp(xi) * q.power(0.5) / _qiy(q, x0), q, n)
            / ((-math.exp(xi / 2.0)) ** n * math.sqrt(_L(p))))


def _fh2_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    n, xi, x0 = p["n"], p["xi"], p["x0"]

    def f(a):
        arg_exp = cmath.exp(xi / 2.0 - (a - n) / 2.0 * q.ln_q)
        return q.power(-n * a / 2.0 - 1j * a * x0) * qhermite_inv_exp(n, arg_exp, q)

    return gaussian_line(f, 1 / L, tr) / SQ2PI


ident("fourier_h_2", "FOURIER",
      "finite product recovered from the shifted inverse-base Hermite polynomial",
      _fh2_lhs, _fh2_rhs, _s_h_x)


def _s_h_xi(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "xi": runif(rng, -0.7, 0.7), "n": rint(rng, 0, 5)}


def _fh3_lhs(p, tr):
    q2 = QParam(p["q"] ** 2)
    return qhermite_inv_exp(p["n"], math.exp(p["xi"]), q2)


def _fh3_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    n, xi = p["n"], p["xi"]

    def f(a):
        u1 = xi / 2.0 - (a / 2.0) * q.ln_q
        u2 = xi / 2.0 + (a / 2.0) * q.ln_q
        h1 = qhermite_inv_exp(n, math.exp(u1), q)
        h2 = qhermite_inv_exp(n, 1j * math.exp(u2), q)
        return h1 * ((-1j) ** n) * h2

    return math.sqrt(L / math.pi) * gaussian_line(f, 1 / (2 * L), tr)


ident("fourier_h_3", "FOURIER",
      "modulus-doubling formula for inverse-base Hermite polynomials "
      "(imaginary-argument factor weighted by (-i)^n; the printed i^n "
      "flips the sign for odd degrees)",
      _fh3_lhs, _fh3_rhs, _s_h_xi, corrected=True)


def _fh4_lhs(p, tr):
    q = QParam(p["q"])
    return qhermite_inv_exp(2 * p["n"], math.exp(p["xi"]), q)


def _fh4_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    n, xi = p["n"], p["xi"]

    def f(a):
        u1 = xi - (a + 0.25) * q.ln_q
        u2 = xi + (a + 0.25) * q.ln_q
        return qhermite_inv_exp(n, math.exp(u1), q2) * qhermite_inv_exp(n, math.exp(u2), q2)

    return math.sqrt(2 * L / math.pi) * gaussian_line(f, 1 / (4 * L), tr)


ident("fourier_h_4", "FOURIER",
      "modulus-halving formula for inverse-base Hermite polynomials "
      "(shifts read symmetrically as +-(alpha+1/4), no leftover quarter power)",
      _fh4_lhs, _fh4_rhs, _s_h_xi, corrected=True)


def _fh5_lhs(p, tr):
    q = QParam(p["q"])
    n, xi, al = p["n"], p["xi"], p["alpha"]
    arg_exp = cmath.exp(xi / 2.0 - (al - n) / 2.0 * q.ln_q)
    return q.power((al * al - n * al + n * n) / 2.0) * qhermite_inv_exp(n, arg_exp, q)


def _fh5_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    n, xi, al = p["n"], p["xi"], p["alpha"]

    def f(y):
        return exp_i(al * y) * qpn(math.exp(xi) * math.sqrt(q.q) * exp_i(-y), q, n)

    pref = (-math.exp(-xi / 2.0)) ** n / math.sqrt(math.pi * 2 * L)
    return pref * gaussian_line(f, L, tr)


ident("fourier_h_5", "FOURIER",
      "shifted inverse-base Hermite pair with unit-frequency phases",
      _fh5_lhs, _fh5_rhs, _s_h)


def _s_h_y(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "xi": runif(rng, -0.7, 0.7), "n": rint(rng, 0, 5),
            "y0": runif(rng, -1.3, 1.3)}


def _fh6_lhs(p, tr):
    q = QParam(p["q"])
    n, xi, y0 = p["n"], p["xi"], p["y0"]
    return (math.exp(y0 * y0 / (2 * q.ln_q)) * qpn(math.exp(xi) * math.sqrt(q.q) * exp_i(-y0), q, n)
            / ((-math.exp(xi / 2.0)) ** n * math.sqrt(_L(p))))


def _fh6_rhs(p, tr):
    q = QParam(p["q"])
    n, xi, y0 = p["n"], p["xi"], p["y0"]

    def f(a):
        arg_exp = cmath.exp(xi / 2.0 - (a - n) / 2.0 * q.ln_q)
        return (q.power((-n * a + n * n) / 2.0) * qhermite_inv_exp(n, arg_exp, q)
                * exp_i(-a * y0))

    return gaussian_line(f, 1 / _L(p), tr) / SQ2PI


ident("fourier_h_6", "FOURIER",
      "inverse of the unit-frequency inverse-base Hermite pair",
      _fh6_lhs, _fh6_rhs, _s_h_y)


def _s_gf1(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.35, 0.65), "xi": runif(rng, -0.5, 0.5), "t": runif(rng, 0.05, 0.4)}

    def ok(p):
        return p["t"] * math.exp(2 * abs(p["xi"])) < 0.75

    return resample(rng, draw, ok)


def _gf1_lhs(p, tr):
    q = QParam(p["q"])
    t = p["t"]
    return m_weighted([], [], QParam(q.q * q.q), 0.5, -t * t / q.q, tr)


def _gf1_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    t = p["t"]

    def f(a):
        return qp(t * q.power(-a), q, tr) * qp(-t * q.power(a), q, tr)

    return math.sqrt(L / math.pi) * gaussian_line(f, 1 / (2 * L), tr)


ident("fourier_h_kernel_int_1", "FOURIER",
      "oppositely scaled product pair under a Gaussian equals an even "
      "doubled-base series (closed form rebuilt; the printed mixed-base "
      "Hermite sum diverges under the stated interchange)",
      _gf1_lhs, _gf1_rhs, _s_gf1, corrected=True)


def _s_gf2(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.35, 0.65), "xi": runif(rng, -0.4, 0.4), "t": runif(rng, 0.05, 0.35)}

    def ok(p):
        return p["t"] * math.exp(2 * abs(p["xi"])) / math.sqrt(p["q"]) < 0.7

    return resample(rng, draw, ok)


def _gf2_lhs(p, tr):
    q = QParam(p["q"])
    t = p["t"]
    return (qp(t * t / q.q, q, tr)
            / (qp(-t * q.power(-0.75), q, tr) * qp(-t * q.power(-0.25), q, tr)))


def _gf2_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    t = p["t"]

    # The weight exp(-2 L a^2) rides on the growing factor: q^(b^2/2) with
    # b = -2a - 1/4 is exp(-2 L a^2 - L a/2 - L/32), so no factor leaves
    # the double range far out on the line.
    def f(a):
        return (qp(t * q.power(2 * a + 0.25), q, tr) * poch_gauss(t, -2 * a - 0.25, q, tr)
                * math.exp(L * a / 2 + L / 32))

    return math.sqrt(2 * L / math.pi) * real_line(f, tr)


ident("fourier_h_kernel_int_2", "FOURIER",
      "quarter-shifted product pair under a Gaussian in closed product form "
      "(closed form rebuilt via the binomial theorem; printed version garbled)",
      _gf2_lhs, _gf2_rhs, _s_gf2, corrected=True)


# ===========================================================================
# q-Laguerre polynomials
# ===========================================================================

def _s_lag(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "x": runif(rng, 0.2, 1.0), "n": rint(rng, 0, 4),
            "alpha": runif(rng, 0.3, 1.0), "beta": runif(rng, -0.8, 0.8)}


def _fl1_lhs(p, tr):
    q = QParam(p["q"])
    n, al, be, x = p["n"], p["alpha"], p["beta"], p["x"]
    return (q.power(be * be / 2.0) * qp(q.power(al + be + n + 0.5), q, tr)
            * qlaguerre(n, al + be - 0.5, x, q))


def _fl1_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    n, al, be, x = p["n"], p["alpha"], p["beta"], p["x"]

    def f(y):
        w = q.power(al) * _qiy(q, y)
        return qpn(x * w, q, n) * _qiy(q, be * y) / qp(-w, q, tr)

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, tr) / qfac(q, n)


ident("fourier_laguerre_1", "FOURIER",
      "order-shifted q-Laguerre polynomial as a weighted finite-product transform",
      _fl1_lhs, _fl1_rhs, _s_lag)


def _s_lag_y(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "x": runif(rng, 0.2, 1.0), "n": rint(rng, 0, 3),
            "alpha": runif(rng, 0.3, 1.0), "y0": runif(rng, -1.0, 1.0)}


def _fl2_lhs(p, tr):
    q = QParam(p["q"])
    n, al, x, y0 = p["n"], p["alpha"], p["x"], p["y0"]
    w = q.power(al) * _qiy(q, y0)
    return qpn(x * w, q, n) * q.power(y0 * y0 / 2.0) / (qfac(q, n) * qp(-w, q, tr))


def _fl2_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    n, al, x, y0 = p["n"], p["alpha"], p["x"], p["y0"]

    def f(b):
        return (poch_gauss(q.power(al + n + 0.5), b, q, tr) * qlaguerre(n, al + b - 0.5, x, q)
                * _qiy(q, -b * y0))

    return math.sqrt(L / (2 * math.pi)) * real_line(f, tr)


ident("fourier_laguerre_2", "FOURIER",
      "weighted finite product recovered from order-shifted q-Laguerre polynomials",
      _fl2_lhs, _fl2_rhs, _s_lag_y)


def _s_lag_d(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "x": runif(rng, 0.2, 1.0), "n": rint(rng, 0, 3),
            "alpha": runif(rng, 0.2, 0.8)}


def _fl3_lhs(p, tr):
    q = QParam(p["q"])
    return qlaguerre(2 * p["n"], 2 * p["alpha"], p["x"], q)


def _fl3_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    n, al, x = p["n"], p["alpha"], p["x"]

    def f(b):
        prods = qp(q.power(2 * al + 2 * b + 2 * n + 1.5), q2, tr) * qp(
            q.power(2 * al - 2 * b + 2 * n + 2.5), q2, tr)
        return (prods * qlaguerre(n, al + b - 0.25, x, q2)
                * qlaguerre(n, al - b + 0.25, x, q2))

    pref = qpn(q2.q, q2, n) / (qpn(q.q, q2, n) * qp(q.power(2 * al + 2 * n + 1), q, tr))
    return pref * math.sqrt(2 * L / math.pi) * gaussian_line(f, 1 / (4 * L), tr)


ident("fourier_laguerre_3", "FOURIER",
      "modulus-halving (order-doubling) formula for q-Laguerre polynomials",
      _fl3_lhs, _fl3_rhs, _s_lag_d)


def _fl4_lhs(p, tr):
    q2 = QParam(p["q"] ** 2)
    return qlaguerre(p["n"], p["alpha"], -p["x"] ** 2, q2)


def _fl4_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    n, al, x = p["n"], p["alpha"], p["x"]
    shift = 1j * math.pi / (2 * q.ln_q)  # order shift with q^shift = i

    def f(b):
        prods = qp(-1j * q.power(al - b + n + 1), q, tr) * qp(1j * q.power(al + b + n + 1), q, tr)
        return (prods * qlaguerre(n, al - b - shift, x, q)
                * qlaguerre(n, al + b + shift, x, q))

    pref = qfac(q, n) / (qpn(-q.q, q, n) * qp(q.power(2 * al + 2 * n + 2), QParam(q.q * q.q), tr))
    return pref * math.sqrt(L / math.pi) * gaussian_line(f, 1 / (2 * L), tr)


ident("fourier_laguerre_4", "FOURIER",
      "modulus-doubling formula with conjugate imaginary order shifts "
      "(normalization exponent corrected to 2a+2n+2)",
      _fl4_lhs, _fl4_rhs, _s_lag_d, corrected=True)


def _fl5_lhs(p, tr):
    q = QParam(p["q"])
    n, al, be, x = p["n"], p["alpha"], p["beta"], p["x"]
    return (q.power(be * be / 2.0) * qp(q.power(al + be + n + 1), q, tr)
            * qlaguerre(n, al + be, x, q))


def _fl5_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    n, al, be, x = p["n"], p["alpha"], p["beta"], p["x"]

    def f(y):
        w = q.power(al + 0.5) * exp_i(y)
        return qpn(x * w, q, n) * exp_i(be * y) / qp(-w, q, tr)

    return gaussian_line(f, L, tr) / (math.sqrt(2 * math.pi * L) * qfac(q, n))


ident("fourier_laguerre_5", "FOURIER",
      "q-Laguerre pair with unit-frequency phases",
      _fl5_lhs, _fl5_rhs, _s_lag)


def _s_lag_x0(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "x": runif(rng, 0.2, 1.0), "n": rint(rng, 0, 3),
            "alpha": runif(rng, 0.3, 1.0), "x0": runif(rng, -1.2, 1.2)}


def _fl6_lhs(p, tr):
    q = QParam(p["q"])
    n, al, x, x0 = p["n"], p["alpha"], p["x"], p["x0"]
    w = q.power(al + 0.5) * exp_i(x0)
    return (qpn(x * w, q, n) * math.exp(x0 * x0 / (2 * q.ln_q))
            / (math.sqrt(_L(p)) * qfac(q, n) * qp(-w, q, tr)))


def _fl6_rhs(p, tr):
    q = QParam(p["q"])
    n, al, x, x0 = p["n"], p["alpha"], p["x"], p["x0"]

    def f(b):
        return (poch_gauss(q.power(al + n + 1), b, q, tr)
                * qlaguerre(n, al + b, x, q) * exp_i(-b * x0))

    return real_line(f, tr) / SQ2PI


ident("fourier_laguerre_6", "FOURIER",
      "inverse of the unit-frequency q-Laguerre pair",
      _fl6_lhs, _fl6_rhs, _s_lag_x0)


# ===========================================================================
# q-Bessel functions (kinds 1 and 2)
# ===========================================================================

def _s_b(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "nu": runif(rng, 0.3, 1.3), "z": runif(rng, 0.3, 0.9),
            "alpha": runif(rng, -1.0, 1.0)}


ident("bessel2_alt_series", "FOURIER",
      "two series routes to the kind-2 q-Bessel function agree",
      lambda p, tr: (p["z"] / 2.0) ** p["nu"] * bessel2_normalized_native(
          p["nu"], p["z"] ** 2 / 4.0, QParam(p["q"]), tr),
      lambda p, tr: (p["z"] / 2.0) ** p["nu"] * bessel2_normalized(
          p["nu"], p["z"] ** 2 / 4.0, QParam(p["q"]), tr),
      _s_b, default_tol=1e-11)


def _fb1_lhs(p, tr):
    q = QParam(p["q"])
    nu, z, al = p["nu"], p["z"], p["alpha"]
    pref = (z / 2.0) ** nu * q.power(al * nu / 2.0)
    return (q.power((al * al + nu * nu) / 4.0) * pref
            * bessel2_normalized_native(nu, z * z * q.power(al).real / 4.0, q, tr))


def _fb1_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    nu, z, al = p["nu"], p["z"], p["alpha"]

    def f(y):
        w2 = _qiy(q, 2 * y)
        return ((z / 2.0) ** nu * _qiy(q, nu * y)
                * bessel1_normalized(nu, z * z * w2 / 4.0, q, tr) * _qiy(q, al * y))

    return math.sqrt(L / math.pi) * gaussian_line(f, 1 / (2 * L), tr)


ident("fourier_bessel_1", "FOURIER",
      "argument-scaled kind-2 q-Bessel as a transform of the kind-1 function",
      _fb1_lhs, _fb1_rhs, _s_b)


def _s_b_y(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "nu": runif(rng, 0.3, 1.3), "z": runif(rng, 0.3, 0.9),
            "y0": runif(rng, -0.8, 0.8)}


def _fb2_lhs(p, tr):
    q = QParam(p["q"])
    nu, z, y0 = p["nu"], p["z"], p["y0"]
    w2 = _qiy(q, 2 * y0)
    return ((z / 2.0) ** nu * _qiy(q, nu * y0) * bessel1_normalized(nu, z * z * w2 / 4.0, q, tr)
            * q.power(y0 * y0))


def _fb2_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    nu, z, y0 = p["nu"], p["z"], p["y0"]

    def f(a):
        pref = (z / 2.0) ** nu * q.power(a * nu / 2.0)
        return (q.power(nu * nu / 4.0 - 1j * a * y0) * pref
                * bessel2_normalized_native(nu, z * z * q.power(a).real / 4.0, q, tr))

    return math.sqrt(L / (4 * math.pi)) * gaussian_line(f, 2 / L, tr)


ident("fourier_bessel_2", "FOURIER",
      "kind-1 q-Bessel recovered from the argument-scaled kind-2 function",
      _fb2_lhs, _fb2_rhs, _s_b_y)


def _fb3_lhs(p, tr):
    q = QParam(p["q"])
    nu, z, al = p["nu"], p["z"], p["alpha"]
    return q.power(al * al / 2.0) * bessel2_normalized(al + nu, z * z / 4.0, q, tr)


def _fb3_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    nu, z, al = p["nu"], p["z"], p["alpha"]

    def f(y):
        w = q.power(nu + 0.5) * _qiy(q, y)
        return qp(w * z * z / 4.0, q, tr) * _qiy(q, al * y) / (qp(q.q, q, tr) * qp(-w, q, tr))

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, tr)


ident("fourier_bessel_3", "FOURIER",
      "order-shifted normalized kind-2 q-Bessel as a product-ratio transform",
      _fb3_lhs, _fb3_rhs, _s_b)


def _fb4_lhs(p, tr):
    q = QParam(p["q"])
    nu, z, y0 = p["nu"], p["z"], p["y0"]
    w = q.power(nu + 0.5) * _qiy(q, y0)
    return qp(w * z * z / 4.0, q, tr) * q.power(y0 * y0 / 2.0) / (qp(q.q, q, tr) * qp(-w, q, tr))


def _fb4_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    nu, z, y0 = p["nu"], p["z"], p["y0"]

    def f(a):
        return q.power(-1j * a * y0) * bessel2_normalized_gauss(nu, z * z / 4.0, a, q, tr)

    return math.sqrt(L / (2 * math.pi)) * real_line(f, tr)


ident("fourier_bessel_4", "FOURIER",
      "product ratio recovered from order-shifted kind-2 q-Bessel functions",
      _fb4_lhs, _fb4_rhs, _s_b_y)


def _s_b_z(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "nu": runif(rng, 0.3, 1.2), "z": runif(rng, 0.3, 1.3)}


def _fb5_lhs(p, tr):
    q = QParam(p["q"])
    nu, z = p["nu"], p["z"]
    return ((z / 2.0) ** (2 * nu) * bessel2_normalized_native(2 * nu, z * z / 4.0, q, tr)
            / qpm([-q.q, -q.q, q.q], q, tr))


def _fb5_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    nu, z = p["nu"], p["z"]
    u = z * z / 4.0

    def f(a):
        return ((z / 2.0) ** (2 * nu) * bessel2_normalized_gauss(nu - 0.25, u, a, q2, tr)
                * bessel2_normalized_gauss(nu + 0.25, u, -a, q2, tr))

    return math.sqrt(2 * L / math.pi) * real_line(f, tr)


ident("fourier_bessel_5", "FOURIER",
      "modulus doubling for the kind-2 q-Bessel via opposite order shifts",
      _fb5_lhs, _fb5_rhs, _s_b_z)


def _fb6_lhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    nu, z = p["nu"], p["z"]
    return qp(-q.q, q, tr) * modified_bessel_i(2, nu, z * z / 2.0, q2, tr) / qp(q.q, q, tr)


def _fb6_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    nu, z = p["nu"], p["z"]
    u = z * z / 4.0
    shift = 1j * math.pi / (2 * q.ln_q)  # q^shift = i

    def f(a):
        return ((z / 2.0) ** (2 * nu) * bessel2_normalized_gauss(nu + shift, u, a, q, tr)
                * bessel2_normalized_gauss(nu - shift, u, -a, q, tr))

    return math.sqrt(L / math.pi) * real_line(f, tr)


ident("fourier_bessel_6", "FOURIER",
      "modified kind-2 function at doubled base from conjugate imaginary order "
      "shifts (overall constant corrected by a factor of two)",
      _fb6_lhs, _fb6_rhs, _s_b_z, corrected=True)


def _fb8_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    nu, z, al = p["nu"], p["z"], p["alpha"]

    def f(x):
        w2 = exp_i(2 * x)
        return ((z / 2.0) ** nu * exp_i(nu * x) * bessel1_normalized(nu, z * z * w2 / 4.0, q, tr)
                * exp_i(al * x))

    return gaussian_line(f, L / 2, tr) / math.sqrt(math.pi * L)


ident("fourier_bessel_8", "FOURIER",
      "argument-scaled kind-2 q-Bessel pair with unit-frequency phases",
      _fb1_lhs, _fb8_rhs, _s_b)


def _s_b_x(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "nu": runif(rng, 0.3, 1.3), "z": runif(rng, 0.3, 0.9),
            "x0": runif(rng, -1.0, 1.0)}


def _fb9_lhs(p, tr):
    q = QParam(p["q"])
    nu, z, x0 = p["nu"], p["z"], p["x0"]
    w2 = exp_i(2 * x0)
    return ((z / 2.0) ** nu * exp_i(nu * x0) * bessel1_normalized(nu, z * z * w2 / 4.0, q, tr)
            * math.exp(x0 * x0 / q.ln_q))


def _fb9_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    nu, z, x0 = p["nu"], p["z"], p["x0"]

    def f(a):
        pref = (z / 2.0) ** nu * q.power(a * nu / 2.0)
        return (q.power(nu * nu / 4.0) * pref * exp_i(-a * x0)
                * bessel2_normalized_native(nu, z * z * q.power(a).real / 4.0, q, tr))

    return math.sqrt(L / (4 * math.pi)) * gaussian_line(f, 2 / L, tr)


ident("fourier_bessel_9", "FOURIER",
      "kind-1 q-Bessel at a rotated argument recovered from the kind-2 side",
      _fb9_lhs, _fb9_rhs, _s_b_x)


def _fb10_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    nu, z, al = p["nu"], p["z"], p["alpha"]

    def f(x):
        w = q.power(nu + 0.5) * exp_i(x)
        return qp(w * z * z / 4.0, q, tr) * exp_i(al * x) / (qp(q.q, q, tr) * qp(-w, q, tr))

    return gaussian_line(f, L, tr) / math.sqrt(2 * math.pi * L)


ident("fourier_bessel_10", "FOURIER",
      "order-shifted kind-2 pair with unit-frequency phases",
      _fb3_lhs, _fb10_rhs, _s_b)


def _fb11_lhs(p, tr):
    q = QParam(p["q"])
    nu, z, x0 = p["nu"], p["z"], p["x0"]
    w = q.power(nu + 0.5) * exp_i(x0)
    return (qp(w * z * z / 4.0, q, tr) * math.exp(x0 * x0 / (2 * q.ln_q))
            / (math.sqrt(_L(p)) * qp(q.q, q, tr) * qp(-w, q, tr)))


def _fb11_rhs(p, tr):
    q = QParam(p["q"])
    nu, z, x0 = p["nu"], p["z"], p["x0"]

    def f(a):
        return bessel2_normalized_gauss(nu, z * z / 4.0, a, q, tr) * exp_i(-a * x0)

    return real_line(f, tr) / SQ2PI


ident("fourier_bessel_11", "FOURIER",
      "inverse of the unit-frequency order-shifted kind-2 pair",
      _fb11_lhs, _fb11_rhs, _s_b_x)


# ===========================================================================
# third q-Bessel function
# ===========================================================================

def _s_b3(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "alpha": runif(rng, 0.3, 1.2), "z": runif(rng, 0.3, 1.1)}


def _b13_lhs(p, tr):
    q = QParam(p["q"])
    al, z = p["alpha"], p["z"]
    w = z * q.power(-(al + 1) / 4.0).real
    return (q.power(al * (3 * al + 2) / 8.0) * (w / 2.0) ** al
            * bessel3_normalized_native(al, w * w / 4.0, q, tr))


def _b13_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    al, z = p["alpha"], p["z"]

    def f(x):
        w2 = _qiy(q, 2 * x)
        return ((z / 2.0) ** al * bessel1_normalized(al, z * z * w2 / 4.0, q, tr)
                * _qiy(q, -al * x))

    return math.sqrt(2 * L / math.pi) * gaussian_line(f, 1 / (4 * L), tr)


ident("fourier_b1_b3", "FOURIER",
      "kind-3 q-Bessel as a quarter-weight transform of the kind-1 function "
      "(rotated argument read with a fixed modulus power)",
      _b13_lhs, _b13_rhs, _s_b3, corrected=True)


def _b32_lhs(p, tr):
    q = QParam(p["q"])
    al, z = p["alpha"], p["z"]
    w = z * q.power((1 - 3 * al) / 4.0).real
    return (q.power(al * (7 * al - 2) / 8.0) * (w / 2.0) ** al
            * bessel2_normalized_native(al, w * w / 4.0, q, tr))


def _b32_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    al, z = p["alpha"], p["z"]

    def f(x):
        w2 = _qiy(q, 2 * x)
        return ((z / 2.0) ** al * bessel3_normalized_native(al, z * z * w2 / 4.0, q, tr)
                * _qiy(q, -al * x))

    return math.sqrt(2 * L / math.pi) * gaussian_line(f, 1 / (4 * L), tr)


ident("fourier_b3_b2", "FOURIER",
      "kind-2 q-Bessel as a quarter-weight transform of the kind-3 function "
      "(rotated argument read with a fixed modulus power)",
      _b32_lhs, _b32_rhs, _s_b3, corrected=True)


def _s_b33(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "nu": runif(rng, 0.3, 1.2), "z": runif(rng, 0.3, 1.1),
            "alpha": runif(rng, -1.0, 1.2)}


def _b33_lhs(p, tr):
    q = QParam(p["q"])
    nu, z, al = p["nu"], p["z"], p["alpha"]
    # J3_(al+nu)(2 z q^(al/2)) / (q^(al nu/2) z^(al+nu)) = q^(al^2/2) N3(al+nu, z^2 q^al)
    return q.power(al * al / 2.0) * bessel3_normalized(al + nu, z * z * q.power(al).real, q, tr)


def _b33_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    nu, z, al = p["nu"], p["z"], p["alpha"]

    def f(x):
        w = _qiy(q, x)
        return _qiy(q, al * x) / qpm([q.q, -q.power(nu + 0.5) * w, -z * z * q.power(0.5) * w], q, tr)

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, tr)


ident("fourier_b3_mellin_1", "FOURIER",
      "normalized kind-3 q-Bessel as a reciprocal-product transform",
      _b33_lhs, _b33_rhs, _s_b33)


def _s_b34(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "nu": runif(rng, 0.3, 1.2), "z": runif(rng, 0.3, 1.1),
            "x0": runif(rng, -1.0, 1.0)}


def _b34_lhs(p, tr):
    q = QParam(p["q"])
    nu, z, x0 = p["nu"], p["z"], p["x0"]
    w = _qiy(q, x0)
    return q.power(x0 * x0 / 2.0) / qpm(
        [q.q, -q.power(nu + 0.5) * w, -z * z * q.power(0.5) * w], q, tr)


def _b34_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    nu, z, x0 = p["nu"], p["z"], p["x0"]

    def f(a):
        return bessel3_normalized_gauss(nu, z * z, a, q, tr) * _qiy(q, -a * x0)

    return math.sqrt(L / (2 * math.pi)) * real_line(f, tr)


ident("fourier_b3_mellin_2", "FOURIER",
      "reciprocal product recovered from normalized kind-3 q-Bessel functions",
      _b34_lhs, _b34_rhs, _s_b34)


def _b36_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    al, z = p["alpha"], p["z"]

    def f(x):
        w2 = exp_i(2 * x)
        return ((z / 2.0) ** al * bessel1_normalized(al, z * z * w2 / 4.0, q, tr)
                * exp_i(-al * x))

    return math.sqrt(2.0 / (math.pi * L)) * gaussian_line(f, L / 4, tr)


ident("fourier_b3_x_1", "FOURIER",
      "kind-3 from kind-1 with unit-frequency phases (fixed modulus power)",
      _b13_lhs, _b36_rhs, _s_b3, corrected=True)


def _b37_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    al, z = p["alpha"], p["z"]

    def f(x):
        w2 = exp_i(2 * x)
        return ((z / 2.0) ** al * bessel3_normalized_native(al, z * z * w2 / 4.0, q, tr)
                * exp_i(-al * x))

    return math.sqrt(2.0 / (math.pi * L)) * gaussian_line(f, L / 4, tr)


ident("fourier_b3_x_2", "FOURIER",
      "kind-2 from kind-3 with unit-frequency phases (fixed modulus power)",
      _b32_lhs, _b37_rhs, _s_b3, corrected=True)


def _b38_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    nu, z, al = p["nu"], p["z"], p["alpha"]

    def f(x):
        w = exp_i(x)
        return exp_i(al * x) / qpm([q.q, -q.power(nu + 0.5) * w, -z * z * q.power(0.5) * w], q, tr)

    return gaussian_line(f, L, tr) / math.sqrt(2 * math.pi * L)


ident("fourier_b3_x_3", "FOURIER",
      "normalized kind-3 q-Bessel pair with unit-frequency phases",
      _b33_lhs, _b38_rhs, _s_b33)


# ===========================================================================
# basic confluent series
# ===========================================================================

def _s_c(rng):
    q = qdraw(rng, 0.35, 0.65)
    return {"q": q, "a": runif(rng, 0.1, 0.8), "b": runif(rng, 0.05, 0.7 * math.sqrt(q)),
            "z": runif(rng, 0.05, 0.7 * math.sqrt(q)), "alpha": runif(rng, -0.8, 0.8)}


def _fc1_lhs(p, tr):
    q = QParam(p["q"])
    a, b, z, al = p["a"], p["b"], p["z"], p["alpha"]
    return (qp(b * q.power(al), q, tr) * q.power(al * al / 2.0)
            * phi([a], [b * q.power(al)], q, z * q.power(al), tr))


def _fc1_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    a, b, z, al = p["a"], p["b"], p["z"], p["alpha"]

    def f(y):
        w = _qiy(q, y) * q.power(-0.5)
        return qp(-a * z * w, q, tr) * _qiy(q, al * y) / (qp(-b * w, q, tr) * qp(-z * w, q, tr))

    return math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, tr)


ident("fourier_confluent_1", "FOURIER",
      "parameter-shifted basic confluent series as a three-product transform",
      _fc1_lhs, _fc1_rhs, _s_c)


def _s_c_y(rng):
    q = qdraw(rng, 0.35, 0.65)
    return {"q": q, "a": runif(rng, 0.1, 0.8), "b": runif(rng, 0.05, 0.6 * math.sqrt(q)),
            "z": runif(rng, 0.05, 0.6 * math.sqrt(q)), "y0": runif(rng, -1.0, 1.0)}


def _fc2_lhs(p, tr):
    q = QParam(p["q"])
    a, b, z, y0 = p["a"], p["b"], p["z"], p["y0"]
    w = _qiy(q, y0) * q.power(-0.5)
    return qp(-a * z * w, q, tr) * q.power(y0 * y0 / 2.0) / (qp(-b * w, q, tr) * qp(-z * w, q, tr))


def _fc2_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    a, b, z, y0 = p["a"], p["b"], p["z"], p["y0"]

    def f(al):
        return (confluent_phi_weighted(a, b, z * q.power(-0.5), al, q, tr)
                * _qiy(q, -al * y0))

    return math.sqrt(L / (2 * math.pi)) * real_line(f, tr)


ident("fourier_confluent_2", "FOURIER",
      "three-product ratio recovered from parameter-shifted confluent series",
      _fc2_lhs, _fc2_rhs, _s_c_y)


def _s_c_z(rng):
    q = qdraw(rng, 0.35, 0.65)
    return {"q": q, "a": runif(rng, 0.1, 0.8), "b": runif(rng, 0.05, 0.5),
            "z": runif(rng, 0.05, 0.5)}


def _fc3_lhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    a, b, z = p["a"], p["b"], p["z"]
    return phi([a * a], [-b * b], q2, -z * z * q.q, tr)


def _fc3_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    a, b, z = p["a"], p["b"], p["z"]

    def f(al):
        p1 = phi([a], [b * q.power(al)], q, z * q.power(0.5 + al), tr)
        p2 = phi([a], [-b * q.power(-al)], q, -z * q.power(0.5 - al), tr)
        return qp(b * q.power(al), q, tr) * qp(-b * q.power(-al), q, tr) * p1 * p2

    val = math.sqrt(L / math.pi) * gaussian_line(f, 1 / (2 * L), tr)
    return val / qp(-b * b, q2, tr)


ident("fourier_confluent_3", "FOURIER",
      "modulus-doubling formula for the basic confluent series",
      _fc3_lhs, _fc3_rhs, _s_c_z)


def _fc4_lhs(p, tr):
    q = QParam(p["q"])
    return phi([p["a"]], [p["b"]], q, p["z"], tr)


def _fc4_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    a, b, z = p["a"], p["b"], p["z"]

    def f(al):
        b1 = b * q.power(2 * al + 0.5)
        b2 = b * q.power(1.5 - 2 * al)
        p1 = phi([a], [b1], q2, z * q.power(0.5 + 2 * al), tr)
        p2 = phi([a], [b2], q2, z * q.power(1.5 - 2 * al), tr)
        return qp(b1, q2, tr) * qp(b2, q2, tr) * p1 * p2

    val = math.sqrt(2 * L / math.pi) * gaussian_line(f, 1 / (4 * L), tr)
    return val / qp(b, q, tr)


ident("fourier_confluent_4", "FOURIER",
      "modulus-halving formula for the basic confluent series",
      _fc4_lhs, _fc4_rhs, _s_c_z)


def _fc5_lhs(p, tr):
    q = QParam(p["q"])
    a, b, z, al = p["a"], p["b"], p["z"], p["alpha"]
    return (qp(b * q.power(al), q, tr) * q.power(al * al / 2.0)
            * phi([a], [b * q.power(al)], q, z * q.power(al + 0.5), tr))


def _fc5_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    a, b, z, al = p["a"], p["b"], p["z"], p["alpha"]

    def f(x):
        w = exp_i(x)
        return (qp(-a * z * w, q, tr) * exp_i(al * x)
                / (qp(-b * q.power(-0.5) * w, q, tr) * qp(-z * w, q, tr)))

    return gaussian_line(f, L, tr) / math.sqrt(math.pi * 2 * L)


def _s_c5(rng):
    q = qdraw(rng, 0.35, 0.65)
    return {"q": q, "a": runif(rng, 0.1, 0.8), "b": runif(rng, 0.05, 0.7 * math.sqrt(q)),
            "z": runif(rng, 0.05, 0.7), "alpha": runif(rng, -0.8, 0.8)}


ident("fourier_confluent_5", "FOURIER",
      "confluent pair with unit-frequency phases",
      _fc5_lhs, _fc5_rhs, _s_c5)


def _s_c6(rng):
    q = qdraw(rng, 0.35, 0.65)
    return {"q": q, "a": runif(rng, 0.1, 0.8), "b": runif(rng, 0.05, 0.6 * math.sqrt(q)),
            "z": runif(rng, 0.05, 0.6), "x0": runif(rng, -1.2, 1.2)}


def _fc6_lhs(p, tr):
    q = QParam(p["q"])
    a, b, z, x0 = p["a"], p["b"], p["z"], p["x0"]
    w = exp_i(x0)
    return (qp(-a * z * w, q, tr) * math.exp(x0 * x0 / (2 * q.ln_q))
            / (qp(-b * q.power(-0.5) * w, q, tr) * qp(-z * w, q, tr)))


def _fc6_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    a, b, z, x0 = p["a"], p["b"], p["z"], p["x0"]

    def f(al):
        return confluent_phi_weighted(a, b, z, al, q, tr) * exp_i(-al * x0)

    return math.sqrt(L / (2 * math.pi)) * real_line(f, tr)


ident("fourier_confluent_6", "FOURIER",
      "inverse of the unit-frequency confluent pair",
      _fc6_lhs, _fc6_rhs, _s_c6)


def _s_cl(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "alpha": runif(rng, 0.2, 1.0),
            "x": runif(rng, 0.2, 1.2), "n": rint(rng, 0, 6)}


def _fcl_rhs(p, tr):
    q = QParam(p["q"])
    n, al, x = p["n"], p["alpha"], p["x"]
    pref = qp(-x * q.power(n + al + 1), q, tr) / (qp(q.power(al + n + 1), q, tr) * qfac(q, n))
    return pref * phi([-x], [-x * q.power(n + al + 1)], q, q.power(al + 1), tr)


ident("fourier_confluent_laguerre", "FOURIER",
      "q-Laguerre polynomial as a prefactored basic confluent series",
      lambda p, tr: qlaguerre(p["n"], p["alpha"], p["x"], QParam(p["q"])),
      _fcl_rhs, _s_cl, default_tol=1e-10)


# ===========================================================================
# Plancherel-type identities
# ===========================================================================

def _s_pl2q(rng):
    return {"q1": qdraw(rng, 0.35, 0.6), "q2": qdraw(rng, 0.35, 0.6),
            "z": cring(rng, 0.1, 0.45), "w": cring(rng, 0.1, 0.45)}


def _pl1_lhs(p, tr):
    q1, q2 = QParam(p["q1"]), QParam(p["q2"])
    L1, L2 = q1.log_inv, q2.log_inv
    z, w = p["z"], p["w"]

    def f(a):
        return (q_exp_big(z * q1.power(a + 0.5), q1, tr)
                * q_exp_big(w * q2.power(a + 0.5), q2, tr))

    return gaussian_line(f, 1.0 / (L1 + L2), tr)


def _pl1_rhs(p, tr):
    q1, q2 = QParam(p["q1"]), QParam(p["q2"])
    L1, L2 = q1.log_inv, q2.log_inv
    lam = math.sqrt(L1 * L2)
    z, w = p["z"], p["w"]

    def f(y):
        return (q_exp_small(z * exp_i(lam * y), q1, tr)
                * q_exp_small(w * exp_i(-lam * y), q2, tr))

    return gaussian_line(f, 1.0 / (L1 + L2), tr)


ident("plancherel_1", "FOURIER",
      "Parseval pairing of two big q-exponentials at independent bases",
      _pl1_lhs, _pl1_rhs, _s_pl2q)


def _pl2_lhs(p, tr):
    q1, q2 = QParam(p["q1"]), QParam(p["q2"])
    L1, L2 = q1.log_inv, q2.log_inv
    z, w = p["z"], p["w"]

    def f(a):
        return (qp(-z * q1.power(0.5 + a), q1, tr) * qp(-w * q2.power(0.5 - a), q2, tr))

    return gaussian_line(f, 1.0 / (L1 + L2), tr)


def _pl2_rhs(p, tr):
    q1, q2 = QParam(p["q1"]), QParam(p["q2"])
    L1, L2 = q1.log_inv, q2.log_inv
    lam = math.sqrt(L1 * L2)
    z, w = p["z"], p["w"]

    def f(y):
        e = exp_i(lam * y)
        return q_exp_small(z * e, q1, tr) * q_exp_small(w * e, q2, tr)

    return gaussian_line(f, 1.0 / (L1 + L2), tr)


ident("plancherel_2", "FOURIER",
      "Parseval pairing with opposite shift orientations",
      _pl2_lhs, _pl2_rhs, _s_pl2q)


def _pl3_lhs(p, tr):
    q1, q2 = QParam(p["q1"]), QParam(p["q2"])
    L2 = q2.log_inv
    z, w = p["z"], p["w"]
    s2 = -1.0 / (q1.ln_q + 1.0 / q2.ln_q)

    def f(x):
        return q_exp_big(z * q1.power(x), q1, tr) * q_exp_small(w * exp_i(x), q2, tr)

    return gaussian_line(f, s2, tr) / math.sqrt(L2)


def _pl3_rhs(p, tr):
    q1, q2 = QParam(p["q1"]), QParam(p["q2"])
    L1 = q1.log_inv
    z, w = p["z"], p["w"]
    s2 = -1.0 / (q2.ln_q + 1.0 / q1.ln_q)

    def f(a):
        return (q_exp_big(w * q2.power(a + 0.5), q2, tr)
                * q_exp_small(z * q1.power(-0.5) * exp_i(a), q1, tr))

    return gaussian_line(f, s2, tr) / math.sqrt(L1)


ident("plancherel_3", "FOURIER",
      "mixed transform/untransformed Parseval pairing across two bases "
      "(exponent of the small-exponential argument read as e^(i a) q1^(-1/2))",
      _pl3_lhs, _pl3_rhs, _s_pl2q,
      corrected=True)


def _s_pl4(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "theta": runif(rng, 0.4, 2.7), "t": runif(rng, 0.1, 0.5)}


def _pl4_lhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    t = p["t"]
    return qp(t * t * q.q, q2, tr) * cal_e(math.cos(p["theta"]), t, q, tr)


def _pl4_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    t, th = p["t"], p["theta"]
    rq = math.sqrt(q.q)

    def f(a):
        return (q_exp_big(t * rq * exp_i(th) * q.power(a), q, tr)
                * q_exp_big(t * rq * exp_i(-th) * q.power(-a), q, tr))

    return math.sqrt(L / math.pi) * gaussian_line(f, 1 / (2 * L), tr)


ident("plancherel_4", "FOURIER",
      "normalized two-variable q-exponential from two big q-exponentials "
      "(overall constant corrected to sqrt(log(1/q)/pi))",
      _pl4_lhs, _pl4_rhs, _s_pl4, corrected=True)


def _s_pl5(rng):
    return {"q": qdraw(rng, 0.35, 0.65), "z": cring(rng, 0.1, 0.6)}


def _pl5_lhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z = p["z"]

    def f(a):
        return poch_gauss(-z * q.q, a, q, tr) * ramanujan_a_shifted(z, -a / 2.0, q, tr)

    return gaussian_line(f, 2 / L, tr)


ident("plancherel_5", "FOURIER",
      "argument-independent Gaussian pairing of E and the Ramanujan function",
      _pl5_lhs,
      lambda p, tr: math.sqrt(math.pi / _L(p)),
      _s_pl5)


def _pl6_lhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    z = p["z"]

    def f(a):
        return ramanujan_a(q.power(2 * a) * z, q2, tr) * ramanujan_a(-q.power(-2 * a) * z, q, tr)

    return gaussian_line(f, 1 / (4 * L), tr)


def _pl6_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z = p["z"]
    return math.sqrt(math.pi / (2 * L)) * m_weighted([], [], QParam(q.q * q.q), 0.25, -z, tr)


ident("plancherel_6", "FOURIER",
      "mixed-base Ramanujan pairing summed as a half-power series",
      _pl6_lhs, _pl6_rhs, _s_pl5)


def _pl7_lhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    z = p["z"]

    def f(a):
        return (ramanujan_a(q.power(a - 0.5) * z, q, tr)
                * ramanujan_a(-q.power(-2 * a) * z * z, q2, tr))

    return gaussian_line(f, 1 / (2 * L), tr)


def _pl7_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    z = p["z"]
    return math.sqrt(math.pi / L) * m_weighted([], [], q, 0.25, z, tr)


ident("plancherel_7", "FOURIER",
      "quarter-power series from a doubled-argument Ramanujan pairing "
      "(inner scale corrected from q^(-2a-1) to q^(-2a))",
      _pl7_lhs, _pl7_rhs, _s_pl5, corrected=True)


def _s_pl8(rng):
    return {"q": qdraw(rng, 0.35, 0.6), "theta": runif(rng, 0.4, 2.7), "t": runif(rng, 0.1, 0.45)}


def _pl8_lhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    t, th = p["t"], p["theta"]

    def f(a):
        return (poch_gauss(-t * exp_i(th) * q.q, a, q, tr)
                * ramanujan_a_shifted(-t * exp_i(-th), -a / 2.0, q, tr))

    return gaussian_line(f, 2 / L, tr) / qp(t * t * q.q * q.q, q2, tr)


def _pl8_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    t, th = p["t"], p["theta"]
    body = m_weighted([-exp_i(-2 * th)], [], q, 0.25, -t * exp_i(th) * q.power(0.5), tr)
    return math.sqrt(math.pi / L) * body / qp(t * t * q.q * q.q, q2, tr)


ident("plancherel_8", "FOURIER",
      "E-Ramanujan pairing resummed by the binomial theorem into a single "
      "quarter-power series (the printed two-variable expansion does not "
      "match its own integral)",
      _pl8_lhs, _pl8_rhs, _s_pl8, corrected=True)


def _s_pl9(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.4, 0.65), "theta": runif(rng, 0.4, 2.7),
                "t": runif(rng, 0.05, 0.35)}

    def ok(p):
        return p["t"] / p["q"] < 0.8

    return resample(rng, draw, ok)


def _pl9_lhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    t, th = p["t"], p["theta"]

    def f(a):
        # q^(a^2) A(q^(2a) w1) and (q^2)^(a^2/2) (w2 (q^2)^(-a); q^2)_inf
        return (ramanujan_a_shifted(-t * exp_i(th) / q.q, a, q, tr)
                * poch_gauss(-t * exp_i(-th), -a, q2, tr))

    return real_line(f, tr)


def _pl9_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    t, th = p["t"], p["theta"]
    x = math.cos(th)
    fac2 = qp(q2.q, q2, tr).real ** 2

    def bound(k):
        # |cal_e_raw(x, s; q^2)| <= sum_n (n+1)|s|^n/(q^2;q^2)_inf^2 = 1/((q^2;q^2)_inf (1-|s|))^2,
        # as |H_n(x|q^2)| <= (n+1)(q^2;q^2)_n/(q^2;q^2)_inf^2 for real |x| <= 1
        s = abs(t) * q.q ** (k - 1)
        return 1.0 / (fac2 * (1.0 - s) ** 2) if s < 1.0 else math.inf

    body = m_expansion([], [], q2, 0.25, -t * exp_i(th),
                       lambda k: cal_e_raw(x, t * q.power(k - 1), q2, tr), bound, tr)
    return math.sqrt(math.pi / (2 * L)) * body


ident("plancherel_9", "FOURIER",
      "doubled-base pairing expanded in two-variable q-exponentials",
      _pl9_lhs, _pl9_rhs, _s_pl9)


def _s_pl10(rng):
    return {"q": qdraw(rng, 0.35, 0.6), "theta": runif(rng, 0.4, 2.7), "t": runif(rng, 0.1, 0.45)}


def _pl10_lhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    t, th = p["t"], p["theta"]
    x = math.cos(th)

    def f(a):
        return (cal_e_raw(x, t * q.power(a), q2, tr)
                * ramanujan_a(q.power(-a - 0.5) * t * exp_i(th), q, tr))

    return gaussian_line(f, 1 / (2 * L), tr)


def _pl10_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    t, th = p["t"], p["theta"]
    body = m_weighted([q.q * exp_i(2 * th)], [], QParam(q.q * q.q), 0.125, -t * exp_i(-th), tr)
    return math.sqrt(math.pi / L) * body


ident("plancherel_10", "FOURIER",
      "mixed-base cal-E/Ramanujan pairing with a quarter-power series value",
      _pl10_lhs, _pl10_rhs, _s_pl10)


def _s_pl11(rng):
    return {"q": qdraw(rng, 0.35, 0.6), "theta": runif(rng, 0.4, 2.7), "t": runif(rng, 0.1, 0.4),
            "a": runif(rng, 0.1, 0.8)}


def _pl11_lhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    t = p["t"]
    return (math.sqrt(math.pi / _L(p)) * qp(t * t * q.q, q2, tr)
            * cal_e(math.cos(p["theta"]), t, q, tr))


def _pl11_rhs(p, tr):
    q = QParam(p["q"])
    t, th, a = p["t"], p["theta"], p["a"]

    def f(al):
        left = poch_gauss(-a * t * exp_i(th) * q.power(0.5), al, q, tr)
        right = confluent_phi_weighted(a, -t * exp_i(-th) * q.power(0.5),
                                       -t * exp_i(th), -al, q, tr)
        return left * right

    return real_line(f, tr)


ident("plancherel_11", "FOURIER",
      "cal-E from a one-sided confluent pairing with a free parameter",
      _pl11_lhs, _pl11_rhs, _s_pl11, default_tol=1e-7)


def _s_pl12(rng):
    return {"q": qdraw(rng, 0.35, 0.6), "theta": runif(rng, 0.4, 2.7), "t": runif(rng, 0.1, 0.4),
            "w": cring(rng, 0.1, 0.5), "z": cring(rng, 0.1, 0.5)}


def _pl12_rhs(p, tr):
    q = QParam(p["q"])
    t, th, w, z = p["t"], p["theta"], p["w"], p["z"]

    def f(al):
        left = confluent_phi_weighted(w / z, -t * exp_i(th) * q.power(0.5), z, al, q, tr)
        right = confluent_phi_weighted(z / w, -t * exp_i(-th) * q.power(0.5), w, -al, q, tr)
        return left * right

    return real_line(f, tr)


ident("plancherel_12", "FOURIER",
      "cal-E from a two-sided confluent pairing with two free parameters",
      _pl11_lhs, _pl12_rhs, _s_pl12, default_tol=1e-7)


def _s_pl13(rng):
    return {"q": qdraw(rng, 0.35, 0.6), "theta": runif(rng, 0.4, 2.7), "t": runif(rng, 0.1, 0.4),
            "a": runif(rng, 0.1, 0.7), "c": runif(rng, 0.1, 0.7)}


def _pl13_rhs(p, tr):
    q = QParam(p["q"])
    t, th, a, c = p["t"], p["theta"], p["a"], p["c"]

    def f(al):
        left = confluent_phi_weighted(a, -c * t * exp_i(-th) * q.power(0.5),
                                      -t * exp_i(th), al, q, tr)
        right = confluent_phi_weighted(c, -a * t * exp_i(th) * q.power(0.5),
                                       -t * exp_i(-th), -al, q, tr)
        return left * right

    return real_line(f, tr)


ident("plancherel_13", "FOURIER",
      "cal-E from a symmetric confluent pairing with two free parameters",
      _pl11_lhs, _pl13_rhs, _s_pl13, default_tol=1e-7)


def _s_pl14(rng):
    return {"q": qdraw(rng, 0.35, 0.6), "nu": runif(rng, 0.3, 1.0), "w": runif(rng, 0.2, 0.8)}


def _pl14_lhs(p, tr):
    q2 = QParam(p["q"] ** 2)
    nu, w = p["nu"], p["w"]
    return modified_bessel_i(2, nu, 2 * w, q2, tr)


def _pl14_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    L = _L(p)
    nu, w = p["nu"], p["w"]

    def f(al):
        # lower parameter -i q^(nu+1) q^al with matching argument
        left = confluent_phi_weighted(w, -1j * q.power(nu + 1), 1j * q.power(nu + 0.5),
                                      al, q, tr)
        right = ramanujan_a_shifted(1j * w * q.power(nu), -al / 2.0, q, tr)
        return left * right

    # the two factors absorb q^(3 al^2/4); the engine supplies the rest
    return (math.sqrt(L / math.pi) * w ** nu / qp(q2.q, q2, tr)
            * gaussian_line(f, 2 / L, tr))


ident("plancherel_14", "FOURIER",
      "modified doubled-base kind-2 function from a Ramanujan/confluent pairing "
      "(equality inserted, the free parameter tied to the argument, and the "
      "left side read as the modified function over the doubled-base factorial)",
      _pl14_lhs, _pl14_rhs, _s_pl14,
      default_tol=1e-7, corrected=True)


def _s_pl15(rng):
    return {"q": qdraw(rng, 0.35, 0.6), "nu1": runif(rng, 0.3, 1.0), "nu2": runif(rng, 0.3, 1.0)}


def _pl15_lhs(p, tr):
    q = QParam(p["q"])
    n1, n2 = p["nu1"], p["nu2"]
    z1 = 2j * q.power((n2 - n1) / 2.0)
    z2 = 2j * q.power((n1 - n2) / 2.0)

    def f(a):
        pref1 = cmath.exp((n1 + a) * cmath.log(z1 / 2.0))
        pref2 = cmath.exp((n2 - a) * cmath.log(z2 / 2.0))
        val1 = pref1 * bessel2_normalized_gauss(n1, (z1 / 2.0) ** 2, a, q, tr)
        val2 = pref2 * bessel2_normalized_gauss(n2, (z2 / 2.0) ** 2, -a, q, tr)
        return q.power(a * (n1 - n2)) * val1 * val2

    return real_line(f, tr)


def _pl15_rhs(p, tr):
    q = QParam(p["q"])
    L = _L(p)
    n1, n2 = p["nu1"], p["nu2"]
    return (math.sqrt(math.pi / L) * cmath.exp(1j * math.pi * (n1 + n2) / 2.0)
            / (qp(q.q, q, tr) ** 2 * q.power((n1 - n2) ** 2 / 2.0)))


ident("plancherel_15", "FOURIER",
      "closed-form pairing of two kind-2 q-Bessel functions at imaginary arguments",
      _pl15_lhs, _pl15_rhs, _s_pl15)


# ===========================================================================
# beta-type integral for the Ramanujan function
# ===========================================================================

def _s_ab(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "u": runif(rng, 0.1, 0.75), "v": runif(rng, 0.1, 0.75)}


def _ab_lhs(p, tr):
    q = QParam(p["q"])
    u, v = p["u"], p["v"]

    def f(a):
        return ramanujan_a_shifted(u, a, q, tr) * ramanujan_a_shifted(v, a, q, tr)

    return real_line(f, tr)


def _ab_rhs(p, tr):
    q = QParam(p["q"])
    u, v = p["u"], p["v"]
    rq = math.sqrt(q.q)
    return (math.sqrt(math.pi / (2 * _L(p))) * qp(rq * u, q, tr) * qp(rq * v, q, tr)
            / qp(u * v, q, tr))


ident("airy_beta_integral", "FOURIER",
      "beta-type Gaussian integral of two Ramanujan functions in product form",
      _ab_lhs, _ab_rhs, _s_ab)
