"""Large-degree asymptotics with multiplicative 1 + O(q^n) errors.

Each registered family pairs a scaled polynomial/function sequence with
its n-free limit; the error sequence e_n = |lhs(n)/limit - 1| is
computed directly and its geometric decay rate is fitted and checked
against the band [0.8 q, 1.25 q].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import QParam, qpoch_inf, theta4
from .errors import DomainError, QKitError
from .polys import qhermite_inv_exp, qlaguerre, stieltjes_wigert
from .series import bessel2_normalized_native, phi, ramanujan_a

__all__ = ["AsympFamily", "RateReport", "FAMILIES", "asymp_error", "asymp_rate"]

# errors below this are noise relative to binary64 evaluation
_NOISE_FLOOR = 100.0 * 2.220446049250313e-16


@dataclass(frozen=True)
class AsympFamily:
    """A scaled sequence, its limit, the expected rate, and a canonical point."""

    id: str
    lhs: object  # (n, params) -> complex
    limit: object  # (params) -> complex
    canonical: dict
    n_range: tuple


@dataclass
class RateReport:
    family_id: str
    params: dict
    errors: list
    fitted_rate: float
    band: tuple
    status: str  # pass | fail | inconclusive

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# --- the fifteen families ---------------------------------------------------

def _sw_fixed_lhs(n, p):
    q = QParam(p["q"])
    return stieltjes_wigert(n, p["x"], q)


def _sw_fixed_limit(p):
    q = QParam(p["q"])
    return ramanujan_a(p["x"], q) / qpoch_inf(q.q, q)


def _sw_even_lhs(n, p):
    q = QParam(p["q"])
    x = p["x"]
    return stieltjes_wigert(2 * n, x * q.power(-2 * n), q) * q.power(n * n) / (-x) ** n


def _sw_odd_lhs(n, p):
    q = QParam(p["q"])
    x = p["x"]
    return stieltjes_wigert(2 * n + 1, x * q.power(-2 * n), q) * q.power(n * n) / (-x) ** n


def _theta_over_qfac2(p):
    q = QParam(p["q"])
    return theta4(p["x"], q) / qpoch_inf(q.q, q) ** 2


def _hinv_scaled_lhs(n, p):
    q = QParam(p["q"])
    xi = p["xi"]
    e = math.exp(xi) * q.power(n / 2.0).real
    return q.power(n * n / 2.0) * (-math.exp(xi)) ** n * qhermite_inv_exp(n, e, q)


def _hinv_scaled_limit(p):
    q = QParam(p["q"])
    return ramanujan_a(math.exp(2 * p["xi"]), q)


def _hinv_even_lhs(n, p):
    q = QParam(p["q"])
    return q.power(n * n) * (-1.0) ** n * qhermite_inv_exp(2 * n, math.exp(p["xi"]), q)


def _hinv_theta_limit(p):
    # the doubled-degree limits carry a single base factorial (settled numerically)
    q = QParam(p["q"])
    return theta4(math.exp(2 * p["xi"]), q) / qpoch_inf(q.q, q)


def _hinv_odd_lhs(n, p):
    q = QParam(p["q"])
    xi = p["xi"]
    e = math.exp(xi) * q.power(0.5).real
    return (q.power(n * n + n + 0.5) * (-1.0) ** (n - 1) * math.exp(xi)
            * qhermite_inv_exp(2 * n + 1, e, q))


def _lag_fixed_lhs(n, p):
    q = QParam(p["q"])
    return qlaguerre(n, p["alpha"], p["x"], q)


def _lag_fixed_limit(p):
    q = QParam(p["q"])
    return bessel2_normalized_native(p["alpha"], p["x"], q)


def _lag_scaled_lhs(n, p):
    q = QParam(p["q"])
    x, al = p["x"], p["alpha"]
    return q.power(n * n) * qlaguerre(n, al, x * q.power(-2 * n - al), q) / (-x) ** n


def _lag_scaled_limit(p):
    q = QParam(p["q"])
    return ramanujan_a(1.0 / p["x"], q) / qpoch_inf(q.q, q)


def _lag_even_lhs(n, p):
    q = QParam(p["q"])
    x, al = p["x"], p["alpha"]
    return q.power(n * n) * qlaguerre(2 * n, al, x * q.power(-2 * n - al), q) / (-x) ** n


def _lag_odd_lhs(n, p):
    q = QParam(p["q"])
    x, al = p["x"], p["alpha"]
    return q.power(n * n) * qlaguerre(2 * n + 1, al, x * q.power(-2 * n - al), q) / (-x) ** n


def _aq_scaled_lhs(n, p):
    q = QParam(p["q"])
    z = p["z"]
    return q.power(n * n) * ramanujan_a(z * q.power(-2 * n), q) / (-z) ** n


def _aq_scaled_limit(p):
    q = QParam(p["q"])
    return theta4(p["z"], q) / qpoch_inf(q.q, q)


def _bessel_order_lhs(n, p):
    # fully normalized form J2_mu(2 sqrt(w) q^(-mu/2)) (sqrt(w) q^(-mu/2))^(-mu),
    # which keeps every intermediate bounded
    q = QParam(p["q"])
    w, nu = p["w"], p["nu"]
    mu = n + nu
    return bessel2_normalized_native(mu, w * q.power(-mu).real, q)


def _bessel_order_limit(p):
    q = QParam(p["q"])
    return ramanujan_a(p["w"], q) / qpoch_inf(q.q, q)


def _bessel_arg_lhs(n, p):
    q = QParam(p["q"])
    w, nu = p["w"], p["nu"]
    # (arg/2)^nu = w^(nu/2) q^(-nu(n+nu/2)): the w^(nu/2) cancels against the
    # w^(n+nu/2) denominator, leaving 1/w^n
    return (q.power(n * n + n * nu + nu * nu / 2.0) * q.power(-nu * (n + nu / 2.0))
            * bessel2_normalized_native(nu, w * q.power(-2 * n - nu).real, q)
            / ((-1.0) ** n * w ** n))


def _bessel_arg_limit(p):
    q = QParam(p["q"])
    return theta4(p["w"], q) / qpoch_inf(q.q, q) ** 2


def _phi1_lhs(n, p):
    # argument read as -z q^(n+1); with the lower parameter b q^n the limit
    # keeps no b-dependence (settled numerically)
    q = QParam(p["q"])
    a, b, z = p["a"], p["b"], p["z"]
    return phi([a * q.power(-n)], [b * q.power(n)], q, -z * q.power(n + 1))


def _phi1_limit(p):
    q = QParam(p["q"])
    return ramanujan_a(p["a"] * p["z"], q)


def _phi2_lhs(n, p):
    q = QParam(p["q"])
    a, b, z = p["a"], p["b"], p["z"]
    val = phi([a * q.power(-2 * n)], [b * q.power(n)], q, -z * q.q)
    return val * q.power(n * n) / (-a * z) ** n


def _phi2_limit(p):
    # like the first family, the b q^n lower parameter leaves no b-dependence
    q = QParam(p["q"])
    return theta4(p["a"] * p["z"], q) / qpoch_inf(q.q, q)


FAMILIES = {
    f.id: f
    for f in [
        AsympFamily("SwFixed", _sw_fixed_lhs, _sw_fixed_limit,
                    {"q": 0.5, "x": 0.3}, (6, 14)),
        AsympFamily("SwEven", _sw_even_lhs, _theta_over_qfac2,
                    {"q": 0.5, "x": 0.7}, (3, 9)),
        AsympFamily("SwOdd", _sw_odd_lhs, _theta_over_qfac2,
                    {"q": 0.5, "x": 0.7}, (3, 9)),
        AsympFamily("QinvHermiteScaled", _hinv_scaled_lhs, _hinv_scaled_limit,
                    {"q": 0.5, "xi": 0.2}, (4, 12)),
        AsympFamily("QinvHermiteEven", _hinv_even_lhs, _hinv_theta_limit,
                    {"q": 0.5, "xi": 0.2}, (3, 8)),
        AsympFamily("QinvHermiteOdd", _hinv_odd_lhs, _hinv_theta_limit,
                    {"q": 0.5, "xi": 0.2}, (3, 8)),
        AsympFamily("QLaguerreFixed", _lag_fixed_lhs, _lag_fixed_limit,
                    {"q": 0.5, "alpha": 0.5, "x": 0.4}, (5, 13)),
        AsympFamily("QLaguerreScaled", _lag_scaled_lhs, _lag_scaled_limit,
                    {"q": 0.5, "alpha": 0.5, "x": 1.4}, (3, 9)),
        AsympFamily("QLaguerreEven", _lag_even_lhs, _theta_over_qfac2,
                    {"q": 0.5, "alpha": 0.5, "x": 0.7}, (3, 8)),
        AsympFamily("QLaguerreOdd", _lag_odd_lhs, _theta_over_qfac2,
                    {"q": 0.5, "alpha": 0.5, "x": 0.7}, (3, 8)),
        AsympFamily("AqScaled", _aq_scaled_lhs, _aq_scaled_limit,
                    {"q": 0.4, "z": 0.7}, (4, 10)),
        AsympFamily("BesselOrderScaled", _bessel_order_lhs, _bessel_order_limit,
                    {"q": 0.5, "nu": 0.6, "w": 0.5}, (4, 12)),
        AsympFamily("BesselArgScaled", _bessel_arg_lhs, _bessel_arg_limit,
                    {"q": 0.5, "nu": 0.6, "w": 0.7}, (3, 9)),
        AsympFamily("Phi11First", _phi1_lhs, _phi1_limit,
                    {"q": 0.5, "a": 0.7, "b": 0.2, "z": 0.5}, (3, 9)),
        AsympFamily("Phi11Second", _phi2_lhs, _phi2_limit,
                    {"q": 0.5, "a": 0.7, "b": 0.2, "z": 0.5}, (3, 8)),
    ]
}


def _family(family_id: str) -> AsympFamily:
    try:
        return FAMILIES[family_id]
    except KeyError:
        raise QKitError(f"unknown asymptotic family {family_id!r}") from None


def asymp_error(family_id: str, n: int, params: dict) -> float:
    """Relative deviation e_n = |lhs(n)/limit - 1| of one family member."""
    if n < 1:
        raise DomainError("asymptotic error needs n >= 1")
    fam = _family(family_id)
    limit = complex(fam.limit(params))
    if abs(limit) < 1e-250:
        raise DomainError(f"degenerate limit for {family_id} at {params}")
    lhs = complex(fam.lhs(n, params))
    return abs(lhs / limit - 1.0)


def asymp_rate(family_id: str, params: dict = None, n_range: tuple = None) -> RateReport:
    """Fit the geometric decay rate of the error sequence over a window.

    The usable window drops errors at the binary64 noise floor; the fit is
    the geometric mean of successive error ratios.  Windows that collapse
    below 3 points report 'inconclusive' rather than failing.
    """
    fam = _family(family_id)
    params = dict(fam.canonical if params is None else params)
    lo, hi = n_range if n_range is not None else fam.n_range
    if hi - lo + 1 < 4:
        raise DomainError("rate fit needs an n-range of length >= 4")
    q = params["q"]
    errors = [(n, asymp_error(family_id, n, params)) for n in range(lo, hi + 1)]
    usable = [(n, e) for n, e in errors if e > _NOISE_FLOOR]
    band = (0.8 * q, 1.25 * q)
    if len(usable) < 3:
        return RateReport(family_id, params, [e for _, e in errors], float("nan"),
                          band, "inconclusive")
    (n0, e0), (n1, e1) = usable[0], usable[-1]
    rate = (e1 / e0) ** (1.0 / (n1 - n0))
    status = "pass" if band[0] <= rate <= band[1] else "fail"
    return RateReport(family_id, params, [e for _, e in errors], rate, band, status)
