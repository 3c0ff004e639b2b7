import cmath
import collections
import inspect
import math

import pytest
from hypothesis import given, settings, strategies as st

from qkit import (QParam, QuadratureError, Truncation, q_exp_small, qpoch_finite, qpoch_inf,
                  qpoch_multi, ramanujan_a)
import qkit.registry.fourier
from qkit.identities import _truncation_for, get_identity, run_suite
from qkit.polys import qhermite
from qkit.registry import prelim
from qkit import quad
from qkit.quad import (
    circle_contour,
    finite_interval,
    gaussian_line,
    halfline_log,
    real_line,
    vertical_line,
)

TR = Truncation(tol=1e-12)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def counted(f):
    """f wrapped so that calls[0] counts its evaluations."""
    calls = [0]

    def g(*args):
        calls[0] += 1
        return f(*args)

    return g, calls


def _fourier_suite_evals(monkeypatch, name):
    """Integrand evaluations of one quad engine over run_suite("FOURIER", 1, 55).

    The engine is wrapped where the FOURIER registry calls it, and every
    point of the suite must pass.
    """
    engine = getattr(qkit.registry.fourier, name)
    calls = [0]

    def counting(f, *args):
        def g(y):
            calls[0] += 1
            return f(y)
        return engine(g, *args)

    monkeypatch.setattr(qkit.registry.fourier, name, counting)
    reports = run_suite("FOURIER", 1, 55)
    assert all(r.status == "pass" for r in reports), [
        (r.id, r.status) for r in reports if r.status != "pass"]
    return calls[0]


class TestGaussianLine:
    def test_constant(self):
        q = QParam(0.5)
        L = q.log_inv
        val = gaussian_line(lambda y: 1.0, L, TR)
        assert rel(val, math.sqrt(2 * math.pi * L)) < 1e-11

    def test_pure_phase(self):
        q = QParam(0.5)
        L = q.log_inv
        alpha = 2.0
        val = gaussian_line(lambda y: cmath.exp(1j * alpha * y), L, TR)
        expected = math.sqrt(2 * math.pi * L) * q.power(alpha * alpha / 2)
        assert rel(val, expected) < 1e-11

    def test_symmetric_exponential_pair(self):
        # reproduces the closed product form of the weighted reciprocal pair
        q = QParam(0.5)
        L = q.log_inv
        z, alpha = 0.3, 0.7

        def f(y):
            return cmath.exp(1j * alpha * y * q.ln_q) / qpoch_inf(
                z * cmath.exp(1j * y * q.ln_q), q, TR)

        val = math.sqrt(L / (2 * math.pi)) * gaussian_line(f, 1 / L, TR)
        expected = q.power(alpha * alpha / 2) * qpoch_inf(-z * q.power(alpha + 0.5), q, TR)
        assert rel(val, expected) < 1e-9

    def test_pure_phase_work(self):
        # two nodes per sigma = 0.83 put 7.5 per period of e^(2iy), so the
        # first comparison stops
        q = QParam(0.5)
        L = q.log_inv
        f, calls = counted(lambda y: cmath.exp(2j * y))
        val = gaussian_line(f, L, TR)
        assert rel(val, math.sqrt(2 * math.pi * L) * q.power(2.0)) < 1e-11
        assert calls[0] <= 100

    @pytest.mark.parametrize("qv", [0.3, 0.5, 0.7])
    def test_first_alias_refines(self, qv):
        # e^(iay) at a = 4 pi/sigma has one period per step of the start
        # grid sigma/2, which sees it as a constant; the next grid does not,
        # so the step must halve rather than stop at the first comparison
        q = QParam(qv)
        s2 = q.log_inv
        a = 4 * math.pi / math.sqrt(s2)
        mass = math.sqrt(2 * math.pi * s2)
        smooth, smooth_calls = counted(lambda y: cmath.exp(2j * y))
        gaussian_line(smooth, s2, TR)
        f, calls = counted(lambda y: cmath.exp(1j * a * y))
        val = gaussian_line(f, s2, TR)
        assert abs(val - mass * q.power(a * a / 2)) <= 1e-11 * mass
        assert calls[0] > 1.5 * smooth_calls[0]

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.2, 0.8), st.floats(0.0, 12.0))
    def test_pure_phase_property(self, qv, a):
        # the coarse start grid must not converge falsely when two nodes per
        # sigma understate the frequency: the draw crosses the start grid's
        # alias 4 pi/sigma for sigma > 1.05 and stays below 8 pi/sigma, where
        # both compared grids alias alike; the value q^(a^2/2) falls far
        # below the mass, so the error is measured against the mass
        q = QParam(qv)
        mass = math.sqrt(2 * math.pi * q.log_inv)
        val = gaussian_line(lambda y: cmath.exp(1j * a * y), q.log_inv, TR)
        assert abs(val - mass * q.power(a * a / 2)) <= 1e-11 * mass

    def test_near_pole_refines(self):
        # 1/(y^2 + d^2) is analytic only in |Im y| < d: the stop rule, not the
        # start grid, must drive the step down as d shrinks
        q = QParam(0.5)  # sigma^2 = ln 2
        s2 = q.log_inv
        work = {}
        for d in (0.5, 0.05, 0.02):
            f, calls = counted(lambda y, d=d: 1.0 / (y * y + d * d))
            val = gaussian_line(f, s2, TR)
            expected = (math.pi / d) * math.exp(d * d / (2 * s2)) * math.erfc(
                d / math.sqrt(2 * s2))
            assert rel(val, expected) < 1e-12, d
            work[d] = calls[0]
        assert work[0.02] >= 8 * work[0.5]
        # halving reuses every point, so the coarse start costs the hardest
        # case almost nothing
        assert work[0.02] <= 8800

    def test_fourier_suite_work(self, monkeypatch):
        # the FOURIER suite point pins the work of the start grid and of the
        # lattice probe: 7,567 integrand evaluations, while the off-lattice
        # probe of three points per edge test made 9,083 and fails the bound
        assert _fourier_suite_evals(monkeypatch, "gaussian_line") <= 8000

    def test_zero_variance(self):
        with pytest.raises(QuadratureError):
            gaussian_line(lambda y: 1.0, 0.0, TR)

    @pytest.mark.parametrize("sigma2", [-1.0, math.nan, math.inf])
    def test_invalid_variance(self, sigma2):
        with pytest.raises(QuadratureError, match="sigma2 > 0"):
            gaussian_line(lambda y: 1.0, sigma2, TR)

    def test_budget_guard(self):
        q = QParam(0.5)
        with pytest.raises(QuadratureError):
            gaussian_line(lambda y: cmath.exp(0.49 * y * y / q.log_inv), q.log_inv,
                          Truncation(tol=1e-13))


class TestCircleContour:
    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_radius_validation(self, r):
        with pytest.raises(QuadratureError):
            circle_contour(lambda z: 1 / z, r, TR)

    def test_cauchy(self):
        val = circle_contour(lambda z: 1 / z, 1.0, TR)
        assert abs(val - 1) < 1e-14

    def test_theta_kernel_moments(self):
        # the contour kernel reproduces q^(c k^2) u^k
        q2 = QParam(0.25)
        for (k, u) in ((0, 1.0), (2, 0.9)):
            def f(z):
                return qpoch_multi([0.25, -0.5 * z * u, -0.5 / (z * u)], q2, None, TR) / z ** (k + 1)

            val = circle_contour(f, 1.0, TR)
            assert rel(val, 0.5 ** (k * k) * u**k) < 1e-11

    def test_cauchy_work(self):
        # the first comparison is at N = 128 and every earlier angle is reused
        f, calls = counted(lambda z: 1 / z)
        circle_contour(f, 1.0, TR)
        assert calls[0] < 192

    def test_radius_independence(self):
        q = QParam(0.3)
        w = 0.5
        sq = math.sqrt(q.q)

        def f(z):
            return qpoch_multi([q.q, -sq * z, -sq / z, sq * w / z], q, None, TR) / z

        a = circle_contour(f, 1.0, TR)
        b = circle_contour(f, 1.3, TR)
        assert abs(a - b) < 1e-9
        assert rel(a, ramanujan_a(w, q, TR)) < 1e-10


class TestVerticalLine:
    def test_ramanujan_representation(self):
        q = QParam(0.5)
        q2 = QParam(0.25)
        x = 0.7
        s = math.log(q.q * x) / math.log(q.q**2)

        def f(z):
            return (cmath.exp(-s * cmath.log(z))
                    / (qpoch_inf(z, q2, TR) * qpoch_inf(-q.q / cmath.sqrt(z), q, TR)))

        f, calls = counted(f)
        val = vertical_line(f, 0.5, Truncation(tol=1e-9))
        ref = ramanujan_a(x, q, TR) / qpoch_multi([q.q, -q.q, -q.q], q, None, TR)
        assert rel(val, ref) < 1e-11
        assert calls[0] <= 500

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("f, exact, err", [
        (lambda z: 1.0 / (z * (1.0 - z)), 1.0, 1e-10),
        (lambda z: 1e-6 / (z * (1.0 - z)), 1e-6, 1e-10),
        (lambda z: cmath.exp(z * z / 2.0 - 0.7 * z), math.exp(-0.245) / math.sqrt(2.0 * math.pi), 1e-12),
    ], ids=["power_decay", "small_power_decay", "gaussian_decay"])
    def test_closed_forms(self, rho, f, exact, err):
        # residue 1 (1e-6) at z = 0; the Gaussian is entire, so rho does not
        # move its value.  The target is relative, so a small integral keeps
        # its digits.
        val = vertical_line(f, rho, Truncation(tol=1e-9))
        assert abs(val - exact) < err * abs(exact)

    def test_rho_validation(self):
        with pytest.raises(QuadratureError):
            vertical_line(lambda z: 1.0, 1.2)


class TestRealLineFamily:
    def test_halfline_log_gaussian(self):
        val = halfline_log(lambda x: math.exp(-math.log(x) ** 2), TR)
        assert rel(val, math.sqrt(math.pi) * math.exp(0.25)) < 1e-11

    def test_finite_interval_weight_normalization(self):
        # integral of the q-Hermite weight over its support
        q = QParam(0.5)

        def f(th):
            e2 = cmath.exp(2j * th)
            return (qpoch_inf(e2, q, TR) * qpoch_inf(e2.conjugate(), q, TR)).real

        f, calls = counted(f)
        val = finite_interval(f, 0.0, math.pi, TR).real / (2 * math.pi)
        assert rel(val, 1.0 / qpoch_inf(q.q, q, TR).real) < 1e-10
        assert calls[0] <= 250

    def test_real_line_gaussian(self):
        val = real_line(lambda u: math.exp(-u * u), TR)
        assert rel(val, math.sqrt(math.pi)) < 1e-11

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.0, 6.0))
    def test_real_line_phase_property(self, a):
        # the FOURIER sides that carry their own decay oscillate on real_line:
        # its coarse start must not converge falsely on sech(y) e^(iay), whose
        # integral pi sech(pi a/2) falls far below the mass pi
        val = real_line(lambda y: cmath.exp(1j * a * y) / math.cosh(y), Truncation(tol=1e-13))
        assert abs(val - math.pi / math.cosh(math.pi * a / 2)) <= 1e-11 * math.pi

    @pytest.mark.parametrize("a", [1.0, 0.2, 0.05])
    def test_real_line_slow_decay(self, a):
        # sech(a u) falls below the probe's threshold only near
        # |u| = ln(1e15)/a, about 690 at a = 0.05: the probe walks there one
        # step at a time, on nodes that the first comparison needs anyway
        f, calls = counted(lambda u: 1.0 / math.cosh(a * u))
        val = real_line(f, Truncation(tol=1e-13))
        assert rel(val, math.pi / a) <= 1e-13
        if a == 0.05:
            assert calls[0] <= 6000

    def test_fourier_real_line_work(self, monkeypatch):
        # the 24 FOURIER sides that carry their own decay: 3,752 integrand
        # evaluations on the node lattice, 5,315 with the off-lattice probe
        assert _fourier_suite_evals(monkeypatch, "real_line") <= 4000

    def test_finite_interval_between_nodes(self):
        # sin^2(4t) vanishes at every node of a 5-point Simpson rule on [0, pi]
        val = finite_interval(lambda t: math.sin(4 * t) ** 2, 0.0, math.pi, TR)
        assert abs(val - math.pi / 2) < 1e-12

    @pytest.mark.parametrize("f, exact", [
        (lambda x: x ** -0.5, 2.0),
        (math.log, -1.0),
        (lambda x: x ** -0.9, 10.0),
        (math.exp, math.e - 1.0),
        (lambda x: math.log(1 - x), -1.0),
    ], ids=["inv_sqrt", "log", "pow_-0.9", "exp", "log_at_1"])
    def test_finite_interval_nonvanishing_ends(self, f, exact):
        # integrands that do not vanish at the ends: the window probe must
        # carry the start window out until the mapped integrand is negligible;
        # points that round onto the end 1 take f at the float inside it
        val = finite_interval(f, 0.0, 1.0, TR)
        assert abs(val - exact) < 1e-12

    @pytest.mark.parametrize("f, a, b, end", [
        (lambda x: (x * (1 - x)) ** -0.5, 0.0, 1.0, "1.0"),
        (lambda x: (-x * (1 + x)) ** -0.5, -1.0, 0.0, "-1.0"),
        (lambda x: math.nan if x > 1000.5 else 1.0, 1000.0, 1001.0, "1001.0"),
    ], ids=["at_b", "at_a", "nan_at_b"])
    def test_finite_interval_singular_nonzero_end(self, f, a, b, end):
        # points near an end other than 0 round onto it, so the part of an
        # inverse square root singularity there cannot be reached, and a NaN
        # next to it must not be dropped: a quadrature failure naming the
        # end, with f never called at the end
        def guarded(x):
            assert x != a and x != b
            return f(x)

        with pytest.raises(QuadratureError, match=f"end {end},"):
            finite_interval(guarded, a, b, TR)

    @pytest.mark.parametrize("a, tol", [(1000.0, 1e-13), (8.0, 1e-15)], ids=["1000", "8"])
    def test_finite_interval_bounded_nonzero_end(self, a, tol):
        # points that round onto the end b = a + 1 keep their weight, so a
        # bounded integrand loses no mass there and f is never called at b
        def one(x):
            assert a < x < a + 1
            return 1.0

        val = finite_interval(one, a, a + 1.0, Truncation(tol=tol))
        assert abs(val - 1.0) < 1e-14

    def test_real_line_between_nodes(self):
        # sin^2(2 pi u) vanishes at every half-integer
        val = real_line(lambda u: math.sin(2 * math.pi * u) ** 2 * math.exp(-u * u), TR)
        expected = math.sqrt(math.pi) / 2 * (1 - math.exp(-4 * math.pi**2))
        assert abs(val - expected) < 1e-12

    def test_qhermite_gram_work(self):
        # acceptance criterion 8's (4, 4) entry
        q = QParam(0.5)

        def f(th):
            e2 = cmath.exp(2j * th)
            w = (qpoch_inf(e2, q, TR) * qpoch_inf(e2.conjugate(), q, TR)).real
            return qhermite(4, math.cos(th), q).real ** 2 * w

        f, calls = counted(f)
        val = finite_interval(f, 0.0, math.pi, TR).real / (2 * math.pi)
        norm = qpoch_finite(q.q, q, 4).real / qpoch_inf(q.q, q, TR).real
        assert rel(val, norm) < 1e-10
        assert calls[0] <= 250

    def test_zero_gram_entry_certifies(self, monkeypatch):
        # an exactly vanishing q-Laguerre entry needs the absolute target:
        # integrands carry jumps of about tol |g| from their products
        calls = []

        def counting_halfline(f, tr):
            f, n = counted(f)
            calls.append(n)
            return halfline_log(f, tr)

        monkeypatch.setattr(prelim, "halfline_log", counting_halfline)
        tr = _truncation_for(get_identity("qlaguerre_orthogonality").tol())
        val = prelim._ql_gram({"alpha": 0.5, "m": 1, "n": 2, "q": 0.335676}, tr)
        assert abs(val - 1.0) < 1e-9
        assert calls[0][0] <= 2000


class TestParsevalRoundtrip:
    def test_forward_then_inverse_returns_integrand(self):
        # closed transform of the product side, inverted numerically, must
        # reproduce the weighted reciprocal integrand at sample points
        q = QParam(0.5)
        L = q.log_inv
        z = 0.3
        tr = Truncation(tol=1e-11)
        from qkit.series import poch_gauss

        for i in range(10):
            x0 = -1.4 + 0.3 * i

            def f(a):
                return poch_gauss(-z * q.power(0.5), a, q, tr) * cmath.exp(-1j * a * x0)

            val = math.sqrt(L / (2 * math.pi)) * real_line(f, tr)
            expected = math.exp(x0 * x0 / (2 * q.ln_q)) / qpoch_inf(z * cmath.exp(1j * x0), q, tr)
            assert rel(val, expected) < 1e-11


def test_engines_take_the_integrand_first():
    # the benchmark tracer counts integrand evaluations by wrapping the first
    # positional argument of every quad engine; the rest is the geometry and
    # the truncation, with no keyword-only option and no q or hint
    for name in quad.__all__:
        params = list(inspect.signature(getattr(quad, name)).parameters.values())
        assert params[0].name == "f", name
        assert params[-1].name == "tr", name
        for p in params:
            assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, (name, p.name)
            assert p.name not in ("q", "hint"), (name, p.name)


@pytest.mark.parametrize("integrate", [
    lambda: vertical_line(lambda z: 1.0, 0.5, TR),
    lambda: halfline_log(lambda x: 1.0, TR),
    lambda: gaussian_line(lambda y: math.exp(y * y), 1.0, TR),
    lambda: real_line(lambda y: math.exp(y * y), TR),
], ids=["vertical_line", "halfline_log", "gaussian_line", "real_line"])
def test_non_decaying_integrand_raises(integrate):
    # the window probe walks out until the map or the integrand overflows: a
    # quadrature failure, which the suite reports as skipped(budget), not error
    with pytest.raises(QuadratureError, match="overflows"):
        integrate()


_ENDS = (math.nextafter(1.0, 0.0), math.nextafter(math.nextafter(1.0, 0.0), 0.0))


@pytest.mark.parametrize("integrate, f, repeats_by_design", [
    (lambda f: gaussian_line(f, 1.0, TR), lambda y: math.cosh(3.0 * y), ()),
    (lambda f: real_line(f, TR), lambda u: 1.0 / math.cosh(0.3 * u), ()),
    (lambda f: halfline_log(f, TR), lambda x: 1.0 / (1.0 + x * x), ()),
    (lambda f: vertical_line(f, 0.5, Truncation(tol=1e-9)), lambda z: 1.0 / (z * (1.0 - z)), ()),
    (lambda f: finite_interval(f, 0.0, 1.0, TR), lambda x: x ** -0.5, _ENDS),
    (lambda f: circle_contour(f, 1.0, TR), lambda z: 1.0 / z, ()),
], ids=["gaussian_line", "real_line", "halfline_log", "vertical_line", "finite_interval",
        "circle_contour"])
def test_no_point_evaluated_twice(integrate, f, repeats_by_design):
    # every point of one call lies on one lattice and is evaluated once, the
    # probed and widened window included; each integrand but the contour's
    # makes the probe move.  finite_interval takes f at the float inside the
    # end 1 for every point that rounds onto it (and at the next float
    # inward where that value matters), by design.
    args = []

    def recording(x):
        args.append(x)
        return f(x)

    integrate(recording)
    repeated = [x for x, n in collections.Counter(args).items()
                if n > 1 and x not in repeats_by_design]
    assert not repeated, (len(repeated), repeated[:5])
