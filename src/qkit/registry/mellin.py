"""MELLIN group: vertical-line (Bromwich-type) representations."""

from __future__ import annotations

import cmath
import math

from ..core import QParam
from ..polys import confluent_poly, qhermite_inv, qlaguerre, stieltjes_wigert
from ..quad import vertical_line
from ..series import m_weighted, ramanujan_a
from ._common import cring, ident, qdraw, qfac, qp, qpm, rint, runif


def _zpow(z, e):
    """Principal-branch z^e with Re z > 0 on the line."""
    return cmath.exp(e * cmath.log(z))


# --- Ramanujan function --------------------------------------------------------

def _ma_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "x": runif(rng, 0.2, 1.2), "rho": runif(rng, 0.35, 0.7)}


def _ma_lhs(p, tr):
    q = QParam(p["q"])
    return ramanujan_a(p["x"], q, tr) / qpm([q.q, -q.q, -q.q], q, tr)


def _ma_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    s = math.log(q.q * p["x"]) / math.log(q.q ** 2)

    def f(z):
        return _zpow(z, -s) / (qp(z, q2, tr) * qp(-q.q / cmath.sqrt(z), q, tr))

    return vertical_line(f, p["rho"], tr)


ident("mellin_airy", "MELLIN",
      "Ramanujan function over a triple product as a vertical-line integral",
      _ma_lhs, _ma_rhs, _ma_sample)


# --- Stieltjes-Wigert ------------------------------------------------------------

def _msw_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "x": runif(rng, 0.2, 1.2), "n": rint(rng, 0, 3),
            "rho": runif(rng, 0.35, 0.7)}


def _msw_lhs(p, tr):
    q = QParam(p["q"])
    return stieltjes_wigert(p["n"], p["x"], q) / qp(-q.q, q, tr) ** 2


def _msw_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    n = p["n"]
    s = math.log(q.q * p["x"]) / math.log(q.q ** 2)

    def f(z):
        zh = cmath.sqrt(z)
        return qp(q.power(n + 1) * zh, q, tr) * _zpow(z, -s) / (qp(z, q2, tr) * qp(-q.q / zh, q, tr))

    return vertical_line(f, p["rho"], tr)


ident("mellin_sw", "MELLIN",
      "Stieltjes-Wigert polynomial as a vertical-line integral",
      _msw_lhs, _msw_rhs, _msw_sample)


# --- q-Laguerre --------------------------------------------------------------------

def _mql_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "x": runif(rng, 0.2, 1.0), "n": rint(rng, 0, 2),
            "nu": 0.5, "rho": runif(rng, 0.35, 0.7)}


def _mql_lhs(p, tr):
    q = QParam(p["q"])
    n, nu = p["n"], p["nu"]
    return (qp(q.power(nu + 1 + n), q, tr)
            * qlaguerre(n, nu, p["x"] * q.power(-nu), q) / qp(-q.q, q, tr) ** 2)


def _mql_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    n, nu = p["n"], p["nu"]
    s = math.log(q.q * p["x"]) / math.log(q.q ** 2)

    def f(z):
        zh = cmath.sqrt(z)
        num = qp(q.power(n + 1) * zh, q, tr) * qp(q.power(nu + 1) / zh, q, tr)
        return num * _zpow(z, -s) / (qp(z, q2, tr) * qp(-q.q / zh, q, tr))

    return vertical_line(f, p["rho"], tr)


ident("mellin_qlaguerre", "MELLIN",
      "q-Laguerre polynomial (shifted argument) as a vertical-line integral",
      _mql_lhs, _mql_rhs, _mql_sample)


# --- inverse-base Hermite ------------------------------------------------------------

def _mim_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "xi": runif(rng, -0.6, 0.6), "n": rint(rng, 0, 2),
            "rho": runif(rng, 0.35, 0.7)}


def _mim_lhs(p, tr):
    q = QParam(p["q"])
    n, xi = p["n"], p["xi"]
    return (math.exp(-n * xi) * qhermite_inv(n, math.sinh(xi), q)
            / (qp(-q.q, q, tr) ** 2 * qfac(q, n)))


def _mim_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    n, xi = p["n"], p["xi"]
    expo = xi / q.ln_q + (n - 1) / 2.0

    def f(z):
        zh = cmath.sqrt(z)
        return qp(q.power(n + 1) * zh, q, tr) * _zpow(z, expo) / (qp(z, q2, tr) * qp(-q.q / zh, q, tr))

    return vertical_line(f, p["rho"], tr)


ident("mellin_qinvhermite", "MELLIN",
      "inverse-base Hermite polynomial as a vertical-line integral",
      _mim_lhs, _mim_rhs, _mim_sample)


# --- weighted confluent series: half and unit weights ----------------------------------

def _mch_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "alpha": cring(rng, 0.1, 0.5), "beta": cring(rng, 0.05, 0.4),
            "x": runif(rng, 0.3, 1.2), "rho": runif(rng, 0.6, 0.85)}


def _mch_lhs(p, tr):
    q = QParam(p["q"])
    als, bes = [p["alpha"]], [p["beta"]]
    pref = qpm(bes, q, tr) / (qp(q.q, q, tr) * qpm(als, q, tr))
    return pref * m_weighted(als, bes, q, 0.5, p["x"], tr)


def _mch_rhs(p, tr):
    q = QParam(p["q"])
    al, be = p["alpha"], p["beta"]
    s = math.log(math.sqrt(q.q) * p["x"]) / q.ln_q

    def f(z):
        return qp(be / z, q, tr) * _zpow(z, -s) / (qp(z, q, tr) * qp(al / z, q, tr))

    return vertical_line(f, p["rho"], tr)


ident("mellin_confluent_half", "MELLIN",
      "half-weight confluent series as a single-base vertical-line integral",
      _mch_lhs, _mch_rhs, _mch_sample)


def _mc1_lhs(p, tr):
    q = QParam(p["q"])
    als, bes = [p["alpha"]], [p["beta"]]
    pref = qpm(bes, q, tr) / qpm([q.q, -q.q, -q.q] + als, q, tr)
    return pref * m_weighted(als, bes, q, 1.0, p["x"], tr)


def _mc1_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    al, be = p["alpha"], p["beta"]
    s = math.log(q.q * p["x"]) / math.log(q.q ** 2)

    def f(z):
        zh = cmath.sqrt(z)
        return (qp(be / zh, q, tr) * _zpow(z, -s)
                / (qp(z, q2, tr) * qp(-q.q / zh, q, tr) * qp(al / zh, q, tr)))

    return vertical_line(f, p["rho"], tr)


ident("mellin_confluent_one", "MELLIN",
      "unit-weight confluent series as a double-base vertical-line integral",
      _mc1_lhs, _mc1_rhs, _mch_sample)


# --- confluent polynomial family ----------------------------------------------------------

def _mcp_sample(rng):
    return {"q": qdraw(rng, 0.3, 0.7), "alpha": cring(rng, 0.1, 0.5), "beta": cring(rng, 0.05, 0.4),
            "x": runif(rng, 0.3, 1.2), "n": rint(rng, 0, 3), "rho": runif(rng, 0.6, 0.85)}


def _mcp_lhs(p, tr):
    q = QParam(p["q"])
    als, bes = [p["alpha"]], [p["beta"]]
    pref = qpm(bes, q, tr) / qpm([-q.q, -q.q] + als, q, tr)
    return pref * confluent_poly(p["n"], als, bes, p["x"], q)


def _mcp_rhs(p, tr):
    q = QParam(p["q"])
    q2 = QParam(q.q * q.q)
    al, be, n = p["alpha"], p["beta"], p["n"]
    s = math.log(q.q * p["x"]) / math.log(q.q ** 2)

    def f(z):
        zh = cmath.sqrt(z)
        num = qp(q.power(n + 1) * zh, q, tr) * qp(be / zh, q, tr)
        return num * _zpow(z, -s) / (qp(z, q2, tr) * qp(-q.q / zh, q, tr) * qp(al / zh, q, tr))

    return vertical_line(f, p["rho"], tr)


ident("mellin_confluent_poly", "MELLIN",
      "confluent polynomial family as a vertical-line integral",
      _mcp_lhs, _mcp_rhs, _mcp_sample)
