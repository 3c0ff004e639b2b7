"""Quadrature engines for the integral representations.

Every engine maps its integral onto one composite trapezoid core, which
halves the step (reusing the points it has) until two successive
estimates agree.  For integrands analytic in a strip the trapezoid rule
converges exponentially on the real line and over a period (Trefethen &
Weideman, SIAM Review 56, 2014), so each engine only chooses the map: a
Gaussian-weighted line (gaussian_line), a line where f carries its own
decay (real_line, halfline_log after x = e^u, and vertical_line after
y = sinh u), the tanh-sinh map of a finite interval (finite_interval;
Takahasi & Mori 1974), and the angle over one period (circle_contour).
Each engine takes only its geometry and the truncation.  gaussian_line
starts from two nodes per sigma, where its first comparison usually
confirms convergence; a harder integrand keeps halving under the same
stop rule.
The windows of gaussian_line and finite_interval start where their
weight falls below tolerance, and like real_line's they are probed
outward while the integrand is not negligible near their ends.  Every
point of one core call lies on one lattice, the start window's grid and
its halvings, and a memo evaluates each point once: the probe walks that
lattice one step at a time, testing nodes of the first two levels, which
the first comparison needs anyway, and the widening after convergence
snaps outward to it.  All engines are pure given their integrand
closures.
"""

from __future__ import annotations

import cmath
import math

from .core import DEFAULT_TRUNCATION, Truncation, ensure_finite
from .errors import QuadratureError

__all__ = [
    "gaussian_line",
    "circle_contour",
    "vertical_line",
    "halfline_log",
    "finite_interval",
    "real_line",
]

# Hard cap on integrand evaluations per engine call.
_EVAL_BUDGET = 1 << 20

# Outer limit of the tanh-sinh map: beyond it exp(-pi |sinh t|) underflows,
# so every mapped point there has weight exactly 0 and f is not called.  The
# window itself starts much closer in, at finite_interval's t0.
_TANH_SINH_T = math.asinh(750.0 / math.pi)


def _trapezoid(integrand, lo: float, hi: float, h0: float, tr: Truncation, name: str,
               probe: float = 0.0, atol: float = 1e-300) -> complex:
    """Composite trapezoid integral of g = integrand over [lo, hi] with step halving.

    Every point lies on one lattice, node i of level k at lo + i (h 2^-k)
    with h = (hi - lo)/n, n = max(8, ceil((hi - lo)/h0)), so a point is
    the same float at every level, and a memo keyed by the point evaluates
    g at most once per call.  The step halves until two successive
    estimates differ by at most max(tol |T|, 2e-16 max|g| W, atol) on the
    window of length W.  probe > 0 marks a window that truncates an
    infinite range: its ends are first pushed out one step h at a time,
    up to 400 max(probe, W/8) per side, while g is not negligible at the
    end node or at the level-1 nodes beside it.  Those are points of the
    first comparison, T(h) against T(h/2), so inside the final window the
    probe costs nothing.  After convergence the window is widened 1.3x
    about its centre, snapped outward to the lattice and reusing every
    node it has, until |g| at both ends, times the window length, is
    within ten times that same threshold.  An OverflowError of g, such as
    a map that leaves the double range while the probe walks out, raises
    QuadratureError.
    """
    memo = {}

    def g(x: float) -> complex:
        v = memo.get(x)
        if v is None:
            try:
                v = memo[x] = complex(integrand(x))
            except OverflowError:
                raise QuadratureError(f"{name} integrand overflows at {x:.4g}") from None
        return v

    n = max(8, math.ceil((hi - lo) / h0))
    h = (hi - lo) / n
    a, b = 0, n  # the window in level-0 indices
    if probe > 0.0:
        # Integrands whose analytic factor grows against their decay fall off
        # only exponentially, so the caller's window can be far too narrow.
        half = 0.5 * h

        def edge_mag(j: int) -> float:
            worst = 0.0
            # the end node first, so that finite_interval's end check, not the
            # finiteness test here, reports a point that rounds onto an end
            for i in (2 * j, 2 * j - 1, 2 * j + 1):
                x = lo + i * half
                v = g(x)
                m = abs(v.real) + abs(v.imag)
                if not math.isfinite(m):
                    raise QuadratureError(f"{name} integrand not finite near {x:.3g}")
                worst = max(worst, m)
            return worst

        negligible = 0.02 * tr.tol * max(1.0, abs(g(lo + n * half)))
        reach = math.ceil(400 * max(probe, (hi - lo) / 8.0) / h)
        for _ in range(reach):
            if edge_mag(a) <= negligible:
                break
            a -= 1
        for _ in range(reach):
            if edge_mag(b) <= negligible:
                break
            b += 1

    for _ in range(200):  # window widening loop
        width = (b - a) * h
        vals = [g(lo + i * h) for i in range(a, b + 1)]
        fmax = max(abs(v.real) + abs(v.imag) for v in vals)
        total = (sum(vals) - 0.5 * (vals[0] + vals[-1])) * h
        hk = h
        for level in range(1, 25):
            hk *= 0.5
            mvals = [g(lo + i * hk) for i in range(a << level | 1, b << level, 2)]
            prev, total = total, 0.5 * total + hk * sum(mvals)
            if len(memo) > _EVAL_BUDGET:
                raise QuadratureError(f"{name} exceeded evaluation budget", estimates=(prev, total))
            fmax = max(fmax, max(abs(v.real) + abs(v.imag) for v in mvals))
            threshold = max(tr.tol * abs(total), 2e-16 * fmax * width, atol)
            if abs(total - prev) <= threshold:
                break
        else:
            raise QuadratureError(f"{name} trapezoid did not stabilize", estimates=(prev, total))
        if probe <= 0.0 or max(abs(vals[0]), abs(vals[-1])) * width <= 10.0 * threshold:
            return ensure_finite(total, name)
        c = 0.5 * (a + b)
        a, b = math.floor(c - 1.3 * (c - a)), math.ceil(c + 1.3 * (b - c))
    raise QuadratureError(f"{name} domain extension did not terminate")


def gaussian_line(f, sigma2: float, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Integrate f(y) exp(-y^2/(2 sigma2)) over the real line, sigma2 > 0.

    The window +-sigma sqrt(2 max(ln(1/tol), 1)) is where the Gaussian
    alone falls below tolerance; f is not evaluated to size it.  Where f
    is large at the ends, the core's probe pushes the window out, and the
    widening after convergence certifies it.
    The trapezoid starts from h0 = sigma/2, two nodes per sigma.  The
    weight alone leaves a trapezoid error of 2 exp(-2 pi^2 sigma^2/h^2)
    of its mass, about 1e-34 at h = sigma/2 and below 2^-53 down to
    h = 0.72 sigma, so h0 resolves the Gaussian and only f can ask for
    more.  The start step is otherwise free: the grids sigma/2, sigma/4,
    sigma/8, ... are nested and the core halves the step reusing every
    point, so an integrand that h0 does not resolve pays only for the
    levels it needs, about 2W/h evaluations for a final step h on a window
    of length W, while one that it does resolve stops at the first
    comparison, T(h0) against T(h0/2).  The agreement rule cannot see a
    frequency that aliases onto both compared grids alike: e^(iay) near
    a = 8 pi/sigma, one period per step h0/2, is the first, where both
    estimates are near a unit phase times the mass.  e^(iay) near
    a = 4 pi/sigma aliases onto h0 alone, so the comparison fails there
    and the step halves.  An integrand that carries its own decay belongs
    to real_line.
    """
    if not 0.0 < sigma2 < math.inf:
        raise QuadratureError(f"gaussian_line needs sigma2 > 0, got {sigma2}")

    def integrand(y: float) -> complex:
        return complex(f(y)) * math.exp(-y * y / (2.0 * sigma2))

    sigma = math.sqrt(sigma2)
    ymax = sigma * math.sqrt(2.0 * max(math.log(1.0 / tr.tol), 1.0))
    return _trapezoid(integrand, -ymax, ymax, sigma / 2.0, tr, "gaussian_line", probe=sigma)


def circle_contour(f, r: float, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """(1/(2 pi i)) closed contour integral of f over the circle |z| = r > 0.

    The circle is positively oriented.  The integral equals the mean of
    f(z) z over the angle; the trapezoid rule in the angle is exact for
    trigonometric polynomials and converges exponentially for analytic f.
    It starts from 64 panels.
    """
    if not r > 0:
        raise QuadratureError(f"contour radius must be positive, got {r}")

    def g(theta: float) -> complex:
        z = r * cmath.exp(1j * theta)
        return complex(f(z)) * z

    two_pi = 2.0 * math.pi
    return _trapezoid(g, 0.0, two_pi, two_pi / 64, tr, "circle_contour") / two_pi


def vertical_line(f, rho: float, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """(1/(2 pi i)) integral of f over the vertical line rho - i*inf .. rho + i*inf.

    The Bromwich-type line needs 0 < rho < 1.  With y = sinh(u) the line
    integral becomes the integral over R of f(rho + i sinh u) cosh u, which
    the trapezoid core integrates from the window +-2 under its relative
    target.  Integrands decaying like exp(-c ln^2 |y|) or like a power of
    |y| decay like a Gaussian or an exponential in u, which the window
    probe and widening certify.
    """
    if not 0.0 < rho < 1.0:
        raise QuadratureError(f"vertical line needs 0 < rho < 1, got {rho}")

    def g(u: float) -> complex:
        return complex(f(complex(rho, math.sinh(u)))) * math.cosh(u)

    # the contour runs upward: dz = i dy, and the 1/(2 pi i) brings 1/(2 pi)
    return _trapezoid(g, -2.0, 2.0, 0.5, tr, "vertical_line", probe=2.0) / (2.0 * math.pi)


def real_line(f, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Integral of f over R from the window +-2, probed and widened.

    Suitable for integrands with (at least) exponential two-sided decay,
    e.g. lognormal weights after the x = e^u substitution, or the FOURIER
    sides whose f carries its own decay, a Gaussian on one side and an
    exponential on the other.  The accuracy
    target has an absolute floor of tol, so integrals that vanish (odd
    Gram entries) still certify.
    """
    return _trapezoid(f, -2.0, 2.0, 0.5, tr, "real_line", probe=2.0, atol=tr.tol)


def halfline_log(f, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Integral of f over (0, inf) via the substitution x = e^u."""

    def g(u: float) -> complex:
        x = math.exp(u)
        return complex(f(x)) * x

    return real_line(g, tr)


def finite_interval(f, a: float, b: float, tr: Truncation = DEFAULT_TRUNCATION) -> complex:
    """Integral of f over the finite interval [a, b] by the tanh-sinh rule.

    x = m + d tanh(pi/2 sinh t), m = (a+b)/2, d = (b-a)/2, maps the line
    onto (a, b) with double-exponential decay of the mapped integrand, and
    the trapezoid core integrates over t.  The map's weight
    (pi/2) d cosh t 4e/(1+e)^2, e = exp(-pi |sinh t|), falls to about
    1e-4 tol at |t| = t0 = asinh(ln(1e4/tol)/pi), so the window starts at
    +-t0 and is probed outward while the mapped integrand is not
    negligible near its ends; after convergence it is widened until both
    ends certify, as for real_line.  This cut assumes that f grows at most
    like a power of the distance to an end, so that the mapped integrand
    still decays double-exponentially beyond the point where it is
    negligible.  f is not called where e underflows (|t| beyond
    asinh(750/pi)).  The accuracy target has an absolute floor of tol, as
    for real_line.

    Near each end the point is formed as a + 2de/(1+e) or b - 2de/(1+e).
    Only the distance to an end at 0 keeps full relative accuracy: at an
    end b != 0 the distance is rounded to the spacing of floats near b,
    and once 2de/(1+e) is below half that spacing the point is b itself.
    f is never called at an end: such a point keeps its weight and takes f
    at the nearest float inside.  That is exact to rounding while f is
    flat over the last float spacing.  Where |f| there, times the spacing,
    exceeds tol times the largest mapped value so far (at least 1), f is
    also called at the next float inward, and if it changes across that
    spacing by more than the same bound over the spacing, or is not finite,
    the engine raises QuadratureError naming the end.  (x (1-x))^(-1/2) on
    [0, 1] does so at x = 1, where the points that round onto 1 hold 1.5e-8
    of its integral.

    Integrands with an inverse-square-root edge factor on (-1, 1) should
    be evaluated through the x = cos(theta) substitution by the caller;
    the orthogonality helpers in the identity registry do exactly that.
    """
    m = 0.5 * (a + b)
    d = 0.5 * (b - a)
    peak = 1.0

    def f_at_end(end: float) -> complex:
        inside = math.nextafter(end, m)
        fi = complex(f(inside))
        gap = abs(end - inside)
        # a second call only where the gap's share could matter
        if not abs(fi) * gap <= tr.tol * peak:
            if not abs(fi - complex(f(math.nextafter(inside, m)))) * gap <= tr.tol * peak:
                raise QuadratureError(
                    f"finite_interval integrand is not negligible at the end {end!r}, "
                    "where the tanh-sinh points round onto it")
        return fi

    def g(t: float) -> complex:
        nonlocal peak
        s = math.sinh(t)
        e = math.exp(-math.pi * abs(s))
        if e == 0.0:
            return 0.0
        near_end = 2.0 * d * e / (1.0 + e)
        x = b - near_end if s > 0.0 else a + near_end
        fx = f_at_end(x) if x == a or x == b else complex(f(x))
        v = fx * (d * 0.5 * math.pi * math.cosh(t) * 4.0 * e / (1.0 + e) ** 2)
        if abs(v) > peak:
            peak = abs(v)
        return v

    t0 = min(math.asinh(math.log(1e4 / tr.tol) / math.pi), _TANH_SINH_T)
    return _trapezoid(g, -t0, t0, 0.5, tr, "finite_interval", probe=0.5, atol=tr.tol)
