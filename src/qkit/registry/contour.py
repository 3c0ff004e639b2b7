"""CONTOUR group: circle-contour representations of polynomials and series."""

from __future__ import annotations

import cmath
import math

from ..core import QParam, partial_theta
from ..polys import qhermite_inv, stieltjes_wigert
from ..series import (jackson_bessel, m_weighted, m_weighted_bilateral, phi, psi_bilateral,
                      ramanujan_a)
from ..quad import circle_contour
from ._common import cring, ident, qdraw, qfac, qp, qpm, qpn, resample, rint, runif


# --- inverse-base Hermite and Stieltjes-Wigert -------------------------------

def _chn_sample(rng):
    # the n-th Laurent coefficient sits q^(n(n+1)/2) below the integrand
    # scale, so large n at small q drowns in roundoff; keep the product
    # q^(-n^2/4 - n/2) comfortably under the tolerance reserve
    return {"q": qdraw(rng, 0.42, 0.75), "n": rint(rng, 0, 5), "xi": runif(rng, -0.6, 0.6),
            "r": runif(rng, 0.6, 1.4)}


def _chn_lhs(p, tr):
    q = QParam(p["q"])
    return qhermite_inv(p["n"], math.sinh(p["xi"]), q)


def _chn_rhs(p, tr):
    q = QParam(p["q"])
    n, xi = p["n"], p["xi"]
    e2 = math.exp(2 * xi)

    def f(z):
        return qpm([q.q, -q.q * z, -1.0 / z], q, tr) * qpn(q.q * z * e2, q, n) / z ** (n + 1)

    val = circle_contour(f, p["r"], tr)
    return (-1.0) ** n * math.exp(-n * xi) * q.power(-n * (n + 1) / 2.0) * val


ident("contour_qinvhermite", "CONTOUR",
      "inverse-base Hermite polynomial as a circle integral of a theta-type product "
      "(measure corrected to dz/z^(n+1), as the derivation requires)",
      _chn_lhs, _chn_rhs, _chn_sample, corrected=True)


def _csn_sample(rng):
    return {"q": qdraw(rng), "n": rint(rng, 0, 8), "x": cring(rng, 0.3, 1.5),
            "r": runif(rng, 0.6, 1.4)}


def _csn_rhs(p, tr):
    q = QParam(p["q"])
    n, x = p["n"], p["x"]

    def f(z):
        return qpm([q.q, -q.q * z, -1.0 / z], q, tr) * qpn(x / z, q, n) / z

    return circle_contour(f, p["r"], tr) / qfac(q, n)


ident("contour_sw", "CONTOUR",
      "Stieltjes-Wigert polynomial as a circle integral of a theta-type product",
      lambda p, tr: stieltjes_wigert(p["n"], p["x"], QParam(p["q"])),
      _csn_rhs, _csn_sample)


# --- Pochhammer ratio --------------------------------------------------------

def _cab_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.2, 0.7), "a": runif(rng, 1.5, 4.0),
                "b": cring(rng, 0.05, 0.4), "n": rint(rng, -3, 5), "rho": runif(rng, 0.45, 0.9)}

    def ok(p):
        return abs(p["b"] / p["a"]) < p["rho"] - 0.05

    return resample(rng, draw, ok)


def _cab_lhs(p, tr):
    q = QParam(p["q"])
    return qpn(p["a"], q, p["n"]) / qpn(p["b"], q, p["n"])


def _cab_rhs(p, tr):
    q = QParam(p["q"])
    a, b, n = p["a"], p["b"], p["n"]

    def f(z):
        num = qpm([q.q, b / a, a * z, q.q / (a * z)], q, tr)
        den = qpm([b, q.q / a, z, b / (a * z)], q, tr)
        return num / den / z ** (n + 1)

    return circle_contour(f, p["rho"], tr)


ident("contour_poch_ratio", "CONTOUR",
      "ratio of finite Pochhammers extracted from the bilateral-sum kernel",
      _cab_lhs, _cab_rhs, _cab_sample)


# --- phi and psi contour lifts ----------------------------------------------

def _cphi_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.3, 0.7), "a1": cring(rng, 0.1, 0.6),
                "a2": runif(rng, 1.2, 3.0), "b1": cring(rng, 0.05, 0.5),
                "b2": cring(rng, 0.05, 0.4), "x": cring(rng, 0.1, 0.5),
                "rho": runif(rng, 0.55, 0.9)}

    def ok(p):
        return abs(p["b2"] / p["a2"]) < p["rho"] - 0.05 and abs(p["x"]) < p["rho"] - 0.05

    return resample(rng, draw, ok)


def _cphi_lhs(p, tr):
    q = QParam(p["q"])
    return phi([p["a1"], p["a2"]], [p["b1"], p["b2"]], q, p["x"], tr)


def _cphi_rhs(p, tr):
    q = QParam(p["q"])
    a1, a2, b1, b2, x = p["a1"], p["a2"], p["b1"], p["b2"], p["x"]
    pref = qpm([q.q, b2 / a2], q, tr) / qpm([b2, q.q / a2], q, tr)

    def f(z):
        inner = phi([a1], [b1], q, x / z, tr)
        return inner * qpm([a2 * z, q.q / (a2 * z)], q, tr) / qpm([z, b2 / (a2 * z)], q, tr) / z

    return pref * circle_contour(f, p["rho"], tr)


ident("contour_phi_r1s1", "CONTOUR",
      "2phi2 as a contour integral over a 1phi1 kernel",
      _cphi_lhs, _cphi_rhs, _cphi_sample)


def _cphi21_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.3, 0.7), "a": cring(rng, 0.1, 0.7),
                "b": runif(rng, 1.2, 3.0), "c": cring(rng, 0.05, 0.5),
                "x": cring(rng, 0.1, 0.5), "rho": runif(rng, 0.55, 0.9)}

    def ok(p):
        return abs(p["c"] / p["b"]) < p["rho"] - 0.05 and abs(p["x"]) < p["rho"] - 0.05

    return resample(rng, draw, ok)


def _cphi21_lhs(p, tr):
    q = QParam(p["q"])
    return phi([p["a"], p["b"]], [p["c"]], q, p["x"], tr)


def _cphi21_rhs(p, tr):
    q = QParam(p["q"])
    a, b, c, x = p["a"], p["b"], p["c"], p["x"]
    pref = qpm([q.q, c / b], q, tr) / qpm([c, q.q / b], q, tr)

    def f(z):
        num = qpm([a * x / z, b * z, q.q / (b * z)], q, tr)
        den = qpm([x / z, z, c / (b * z)], q, tr)
        return num / den / z

    return pref * circle_contour(f, p["rho"], tr)


ident("contour_phi21", "CONTOUR",
      "2phi1 as a contour integral with the binomial-theorem kernel",
      _cphi21_lhs, _cphi21_rhs, _cphi21_sample)


def _cpsi_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.3, 0.6), "a1": runif(rng, 2.0, 4.0),
                "a2": runif(rng, 1.5, 4.0), "b1": cring(rng, 0.05, 0.3),
                "b2": cring(rng, 0.05, 0.3), "x": cring(rng, 0.35, 0.8),
                "rho": runif(rng, 0.55, 0.9)}

    def ok(p):
        rho, x = p["rho"], abs(p["x"])
        if not abs(p["b2"] / p["a2"]) < rho - 0.05:
            return False
        # inner bilateral series needs |b1/a1| < |x|/rho and |x| < rho
        return abs(p["b1"] / p["a1"]) < x / rho - 0.03 and x < rho - 0.05 and \
            abs(p["b1"] * p["b2"] / (p["a1"] * p["a2"])) < x - 0.03

    return resample(rng, draw, ok)


def _cpsi_lhs(p, tr):
    q = QParam(p["q"])
    return psi_bilateral([p["a1"], p["a2"]], [p["b1"], p["b2"]], q, p["x"], tr)


def _cpsi_rhs(p, tr):
    q = QParam(p["q"])
    a1, a2, b1, b2, x = p["a1"], p["a2"], p["b1"], p["b2"], p["x"]
    pref = qpm([q.q, b2 / a2], q, tr) / qpm([b2, q.q / a2], q, tr)

    def f(z):
        inner = psi_bilateral([a1], [b1], q, x / z, tr)
        return inner * qpm([a2 * z, q.q / (a2 * z)], q, tr) / qpm([z, b2 / (a2 * z)], q, tr) / z

    return pref * circle_contour(f, p["rho"], tr)


ident("contour_psi_m1", "CONTOUR",
      "2psi2 as a contour integral over a 1psi1 kernel",
      _cpsi_lhs, _cpsi_rhs, _cpsi_sample)


def _cpsi22_rhs(p, tr):
    q = QParam(p["q"])
    a1, a2, b1, b2, x = p["a1"], p["a2"], p["b1"], p["b2"], p["x"]
    pref = qpm([q.q, q.q, b1 / a1, b2 / a2], q, tr) / qpm([b1, b2, q.q / a1, q.q / a2], q, tr)

    def f(z):
        num = qpm([a2 * z, q.q / (a2 * z), a1 * x / z, q.q * z / (a1 * x)], q, tr)
        den = qpm([z, x / z, b2 / (a2 * z), b1 * z / (a1 * x)], q, tr)
        return num / den / z

    return pref * circle_contour(f, p["rho"], tr)


ident("contour_psi22", "CONTOUR",
      "2psi2 as a closed-kernel contour integral (inner bilateral series summed)",
      _cpsi_lhs, _cpsi22_rhs, _cpsi_sample)


def _cphi11_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.3, 0.7), "a": runif(rng, 1.2, 3.0),
                "b": cring(rng, 0.05, 0.4), "x": cring(rng, 0.2, 0.8),
                "r": runif(rng, 0.5, 1.5)}

    def ok(p):
        ax = abs(p["a"] * p["x"])
        return p["r"] * abs(p["b"]) < ax - 0.03 and ax < p["a"] * p["r"] - 0.03

    return resample(rng, draw, ok)


def _cphi11_lhs(p, tr):
    q = QParam(p["q"])
    return phi([p["a"]], [p["b"]], q, p["x"], tr)


def _cphi11_rhs(p, tr):
    q = QParam(p["q"])
    a, b, x = p["a"], p["b"], p["x"]

    def f(z):
        num = qpm([q.q, b / a, z, a * x / z, q.q * z / (a * x)], q, tr)
        den = qpm([b, q.q / a, x / z, b * z / (a * x)], q, tr)
        return num / den / z

    return circle_contour(f, p["r"], tr)


ident("contour_phi11", "CONTOUR",
      "1phi1 as a contour integral with a five-product kernel",
      _cphi11_lhs, _cphi11_rhs, _cphi11_sample)


def _caq_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.3, 0.7), "a": cring(rng, 0.2, 1.2), "r": runif(rng, 0.8, 1.6)}

    def ok(p):
        return abs(p["a"]) * math.sqrt(p["q"]) < p["r"] - 0.05

    return resample(rng, draw, ok)


def _caq_rhs(p, tr):
    q = QParam(p["q"])
    a = p["a"]
    sq = math.sqrt(q.q)

    def f(z):
        return qpm([q.q, sq / z, sq * z], q, tr) / qp(a * sq / z, q, tr) / z

    return circle_contour(f, p["r"], tr)


ident("contour_poch_aq", "CONTOUR",
      "(aq;q)_inf as a contour integral of a theta product over an e_q kernel",
      lambda p, tr: qp(p["a"] * p["q"], QParam(p["q"]), tr),
      _caq_rhs, _caq_sample)


def _com_sample(rng):
    return {"q": qdraw(rng, 0.2, 0.7), "x": cring(rng, 0.3, 1.5), "r": runif(rng, 1.2, 1.9)}


def _com_rhs(p, tr):
    q = QParam(p["q"])
    x = p["x"]
    q2 = QParam(q.q * q.q)

    def f(z):
        return qpm([q2.q, -q.q * x * z, -q.q / (x * z)], q2, tr) / (z - 1.0)

    return circle_contour(f, p["r"], tr)


ident("contour_partial_theta", "CONTOUR",
      "partial theta as a contour integral against 1/(z-1) over radius > 1",
      lambda p, tr: partial_theta(p["x"], QParam(p["q"]), tr),
      _com_rhs, _com_sample)


# --- Bessel and Ramanujan-function contour representations -------------------

def _cj2_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "nu": runif(rng, 0.3, 1.5),
            "w": runif(rng, 1.1, 1.9), "rfrac": runif(rng, 0.2, 0.6)}


def _cj2_rhs(p, tr):
    q = QParam(p["q"])
    nu, w = p["nu"], p["w"]
    qnu = q.power(nu)
    r = p["rfrac"] * w * w / 4.0

    def f(z):
        num = qpm([z, -q.q * qnu * w * w / (4.0 * z), -4.0 * z / (w * w * qnu)], q, tr)
        return num / qp(-4.0 * z / (w * w), q, tr) / z

    return (w / 2.0) ** nu * circle_contour(f, r, tr)


ident("contour_bessel2", "CONTOUR",
      "kind-2 q-Bessel function as a theta-kernel contour integral",
      lambda p, tr: jackson_bessel(2, p["nu"], p["w"], QParam(p["q"]), tr),
      _cj2_rhs, _cj2_sample)


def _cA_sample(rng):
    return {"q": qdraw(rng, 0.2, 0.7), "w": cring(rng, 0.2, 1.4), "r": runif(rng, 0.6, 1.4)}


def _cA_rhs(p, tr):
    q = QParam(p["q"])
    w = p["w"]
    sq = math.sqrt(q.q)

    def f(z):
        return qpm([q.q, -sq * z, -sq / z, sq * w / z], q, tr) / z

    return circle_contour(f, p["r"], tr)


ident("contour_airy", "CONTOUR",
      "Ramanujan function as a contour integral of a four-factor product",
      lambda p, tr: ramanujan_a(p["w"], QParam(p["q"]), tr),
      _cA_rhs, _cA_sample, default_tol=1e-10)


def _cj22_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.3, 0.7), "nu": runif(rng, 0.3, 1.5),
                "w": cring(rng, 0.4, 1.5), "rfrac": runif(rng, 0.3, 0.7)}

    def ok(p):
        qnu = p["q"] ** p["nu"]
        return qnu + 0.05 < qnu + p["rfrac"] * (1.0 - qnu) < 0.97

    return resample(rng, draw, ok)


def _cj22_lhs(p, tr):
    q = QParam(p["q"])
    w = p["w"]
    return jackson_bessel(2, p["nu"], w, q, tr) * cmath.exp(-p["nu"] * cmath.log(w / 2.0))


def _cj22_rhs(p, tr):
    q = QParam(p["q"])
    nu, w = p["nu"], p["w"]
    qnu = q.power(nu)
    q2 = QParam(q.q * q.q)
    r = qnu.real + p["rfrac"] * (1.0 - qnu.real)

    def f(z):
        num = qpm([-qnu, -q.q * z, -1.0 / z], q, tr) * qp(q.q * qnu * w * w / (4.0 * z), q2, tr)
        den = qpm([-q.q, z, -qnu / z], q, tr)
        return num / den / z

    # kernel carries 1/(4 pi i): half of the engine's 1/(2 pi i)
    return 0.5 * circle_contour(f, r, tr)


ident("contour_bessel2_alt", "CONTOUR",
      "normalized kind-2 q-Bessel as a contour integral with a half-weight kernel",
      _cj22_lhs, _cj22_rhs, _cj22_sample)


# --- weighted series and bilateral contour lifts ------------------------------

def _cw_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "nu": rng.choice([0.5, 1.0, 1.5]),
            "alpha": cring(rng, 0.1, 0.7), "beta": cring(rng, 0.05, 0.5),
            "x": cring(rng, 0.3, 1.2), "r": runif(rng, 1.2, 1.8)}


def _cw_lhs(p, tr):
    q = QParam(p["q"])
    nu, al, be, x = p["nu"], p["alpha"], p["beta"], p["x"]
    # the q^(nu k^2) and binom(k,2) weights together are q^((nu+1/2)k^2) q^(-k/2)
    return m_weighted([al], [be], q, nu + 0.5, x * q.power(-0.5), tr)


def _cw_rhs(p, tr):
    q = QParam(p["q"])
    nu, al, be, x = p["nu"], p["alpha"], p["beta"], p["x"]
    q2nu = QParam(q.power(2 * nu).real)
    qnu = q.power(nu)

    def f(z):
        inner = phi([al], [be], q, 1.0 / z, tr)
        return inner * qpm([q2nu.q, -qnu * x * z, -qnu / (x * z)], q2nu, tr) / z

    return circle_contour(f, p["r"], tr)


ident("contour_weighted_series", "CONTOUR",
      "q^(nu k^2)-weighted 1phi1-type sum as a contour integral over its kernel",
      _cw_lhs, _cw_rhs, _cw_sample)


def _cwb_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.3, 0.6), "nu": rng.choice([0.5, 1.0]),
                "a": runif(rng, 2.0, 5.0), "b": cring(rng, 0.05, 0.35),
                "x": cring(rng, 0.4, 1.5), "r": runif(rng, 1.15, 1.6)}

    def ok(p):
        return p["r"] < abs(p["a"] / p["b"]) - 0.2

    return resample(rng, draw, ok)


def _bilateral_weighted(p, tr, use_b, binom_weight):
    """sum_(k in Z) (a;q)_k x^k q^(nu k^2) / (b;q)_k, times q^(k(k+s)/2) for a binomial weight.

    It is m_weighted_bilateral with the weight nu, or nu + 1/2 for the binomial weight
    q^(k(k+s)/2) = q^(k^2/2) (q^(s/2))^k, and argument -x q^(s/2).
    """
    q = QParam(p["q"])
    s = {None: 0.0, "half": -1.0, "half-up": 1.0}[binom_weight]
    ell = p.get("nu", 0.0) + (0.0 if binom_weight is None else 0.5)
    betas = [p["b"]] if use_b else []
    return m_weighted_bilateral([p["a"]], betas, q, ell, -p["x"] * q.power(s / 2.0), tr)


def _cwb_lhs(p, tr):
    return _bilateral_weighted(p, tr, use_b=True, binom_weight=None)


def _cwb_rhs(p, tr):
    q = QParam(p["q"])
    nu, a, b, x = p["nu"], p["a"], p["b"], p["x"]
    q2nu = QParam(q.power(2 * nu).real)
    qnu = q.power(nu)

    def f(z):
        inner = psi_bilateral([a], [b], q, 1.0 / z, tr)
        return inner * qpm([q2nu.q, -qnu * x * z, -qnu / (x * z)], q2nu, tr) / z

    return circle_contour(f, p["r"], tr)


ident("contour_weighted_bilateral", "CONTOUR",
      "bilateral q^(nu k^2)-weighted sum as a contour integral over a 1psi1 kernel",
      _cwb_lhs, _cwb_rhs, _cwb_sample)


def _c313_lhs(p, tr):
    return _bilateral_weighted(p, tr, use_b=True, binom_weight="half")


def _c313_rhs(p, tr):
    q = QParam(p["q"])
    a, b, x = p["a"], p["b"], p["x"]

    def f(z):
        num = qpm([q.q, q.q, b / a, a / z, q.q * z / a, -x * z, -q.q / (x * z)], q, tr)
        den = qpm([b, q.q / a, 1.0 / z, b * z / a], q, tr)
        return num / den / z

    return circle_contour(f, p["r"], tr)


def _c313_sample(rng):
    def draw(rng):
        return {"q": qdraw(rng, 0.3, 0.6), "a": runif(rng, 2.0, 5.0),
                "b": cring(rng, 0.05, 0.35), "x": cring(rng, 0.4, 1.5),
                "r": runif(rng, 1.15, 1.6)}

    def ok(p):
        return p["r"] < abs(p["a"] / p["b"]) - 0.2

    return resample(rng, draw, ok)


ident("contour_bilateral_binom", "CONTOUR",
      "binomial-weighted bilateral Pochhammer-ratio sum as a contour integral",
      _c313_lhs, _c313_rhs, _c313_sample)


def _c314_lhs(p, tr):
    return _bilateral_weighted(p, tr, use_b=False, binom_weight="half")


def _c314_rhs(p, tr):
    q = QParam(p["q"])
    a, x = p["a"], p["x"]

    def f(z):
        num = qpm([q.q, q.q, a / z, q.q * z / a, -x * z, -q.q / (x * z)], q, tr)
        den = qpm([q.q / a, 1.0 / z], q, tr)
        return num / den / z

    return circle_contour(f, p["r"], tr)


def _c314_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.6), "a": runif(rng, 1.5, 5.0),
            "x": cring(rng, 0.4, 1.5), "r": runif(rng, 1.15, 1.9)}


ident("contour_bilateral_noparam", "CONTOUR",
      "binomial-weighted bilateral Pochhammer sum as a contour integral",
      _c314_lhs, _c314_rhs, _c314_sample)


def _c315_lhs(p, tr):
    pp = dict(p)
    pp["x"] = -1.0
    return _bilateral_weighted(pp, tr, use_b=False, binom_weight="half-up")


def _c315_rhs(p, tr):
    q = QParam(p["q"])
    a = p["a"]

    def f(z):
        return qpm([a / z, q.q * z / a, q.q * z], q, tr) / z

    pref = qp(q.q, q, tr) ** 2 / qp(q.q / a, q, tr)
    return pref * circle_contour(f, p["r"], tr)


def _c315_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.6), "a": runif(rng, 1.5, 5.0), "r": runif(rng, 1.15, 1.9)}


ident("contour_alternating_sum", "CONTOUR",
      "alternating bilateral Pochhammer sum as a three-product contour integral",
      _c315_lhs, _c315_rhs, _c315_sample)
