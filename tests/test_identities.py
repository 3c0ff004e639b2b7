import ast
import functools
import importlib
import inspect
import math
import pathlib
import random
import sys

import pytest

from qkit import identities
from qkit.errors import (ConvergenceError, DomainError, PoleError, QuadratureError,
                         TruncationError)
from qkit.identities import (
    GROUPS,
    IdentityRecord,
    all_identities,
    catalog,
    evaluate_identity,
    get_identity,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
    run_suite,
    sample_params,
)


class TestCatalog:
    def test_size(self):
        assert len(catalog()) >= 110

    def test_unique_ids(self):
        ids = [c[0] for c in catalog()]
        assert len(ids) == len(set(ids))

    def test_group_sizes(self):
        sizes = {g: sum(c[1] == g for c in catalog()) for g in GROUPS}
        assert sizes == {"PRELIM": 25, "CONTOUR": 18, "MELLIN": 7, "FOURIER": 91, "SERIES": 35}

    def test_groups_nonempty(self):
        cat = catalog()
        for g in GROUPS:
            assert any(c[1] == g for c in cat)

    def test_stable_ordering(self):
        assert catalog() == catalog()

    def test_unknown_id(self):
        from qkit.errors import QKitError

        with pytest.raises(QKitError):
            get_identity("no_such_identity")


# the seed of each group's suite test in test_acceptance
SUITE_SEEDS = {"FOURIER": 55, "PRELIM": 42, "CONTOUR": 777, "MELLIN": 101, "SERIES": 99}


def _reached_routes():
    """{id: (lhs names, rhs names)}: the qkit engines each side reaches at sample 0.

    Every public function of qkit.core, qkit.series, qkit.polys and qkit.quad
    is wrapped in each loaded qkit namespace that binds it, so calls between
    engines are seen too.  A name is "module.function", with "[route]" added
    for a function that takes a route argument (its default when not passed).
    """
    engines = {}
    for name in ("core", "series", "polys", "quad"):
        module = importlib.import_module(f"qkit.{name}")
        for attr, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ \
                    and not attr.startswith("_"):
                engines[fn] = f"{name}.{attr}"
    reached = []  # the set of the side being evaluated, if any

    def spy(fn, label):
        sig = inspect.signature(fn)
        takes_route = "route" in sig.parameters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if reached:
                if takes_route:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    reached[-1].add(f"{label}[{bound.arguments['route']}]")
                else:
                    reached[-1].add(label)
            return fn(*args, **kwargs)
        return wrapper

    spies = {fn: spy(fn, label) for fn, label in engines.items()}
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "qkit" or mod_name.startswith("qkit."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in spies:
                        mp.setattr(module, attr, spies[value])
        for rec in all_identities():
            params = sample_params(rec.id, SUITE_SEEDS[rec.group], 0)
            tr = identities._truncation_for(rec.tol())
            sides = []
            for side in (rec.lhs, rec.rhs):
                reached.append(set())
                side(params, tr)
                sides.append(reached.pop())
            out[rec.id] = tuple(sides)
    return out


class TestRouteIndependence:
    # two catalogued entries are series lemmas living inside the transform
    # theorems; everything else in the quadrature groups pits an integral
    # against a series/product evaluation
    SERIES_LEMMAS = {"bessel2_alt_series", "fourier_confluent_laguerre"}

    # the only ids whose sides reach the same engines: each sets one engine
    # against itself at different arguments
    SAME_ENGINE = {
        "fourier_eq_parseval": "gaussian_line over products in alpha vs over products in x",
        "plancherel_3": "gaussian_line over the q1-side exponentials vs the q2-side ones",
        "laguerre_conn_alpha_beta": "qlaguerre at order alpha vs a sum of it at order beta",
        "qbinom_alternating": "a row sum of (q;q)_k vs a ratio of (q;q)_n and (q^2;q^2)_(n/2)",
        "qbinom_half_base": "a row sum of (q;q)_k vs one factorial in base q^(1/2)",
        "qbinom_qinvhermite_zero": "a row sum of (q;q)_k vs one factorial in base q^2",
        "sw_symmetry": "stieltjes_wigert at t vs at q^(-2n)/t",
    }

    @pytest.fixture(scope="class")
    def routes(self):
        return _reached_routes()

    def test_sides_differ_in_the_engines_they_reach(self, routes):
        same = {i for i, (lhs, rhs) in routes.items() if lhs == rhs}
        assert same == set(self.SAME_ENGINE), sorted(same ^ set(self.SAME_ENGINE))

    def test_transform_groups_have_a_quadrature_side(self, routes):
        for rec in all_identities():
            quad = [any(name.startswith("quad.") for name in side) for side in routes[rec.id]]
            if rec.id in self.SERIES_LEMMAS:
                assert not any(quad), rec.id
            elif rec.group in ("FOURIER", "MELLIN", "CONTOUR"):
                assert any(quad), rec.id


class TestSamplers:
    def test_domain_safety(self):
        # samplers must emit valid points for every draw
        for rec in all_identities():
            rng = random.Random(f"dom:{rec.id}")
            for _ in range(10000):
                params = rec.sampler(rng)
                assert isinstance(params, dict) and params

    def test_deterministic_draws(self):
        for rec in all_identities()[::7]:
            a = sample_params(rec.id, 42, 3)
            b = sample_params(rec.id, 42, 3)
            assert a == b


class TestEvaluate:
    def test_triple_product_entry(self):
        rep = evaluate_identity("triple_product", {"q": 0.5, "z": 1 + 0.3j})
        assert rep.passed and rep.rel_err <= 1e-11
        assert rep.reason is None and "reason" not in report_to_dict(rep)

    def test_sw_symmetry_entry(self):
        rep = evaluate_identity("sw_symmetry", {"q": 0.4, "t": 0.6, "n": 7})
        assert rep.passed and rep.rel_err <= 1e-12

    def test_fourier_airy_entry(self):
        rep = evaluate_identity("fourier_airy_3", {"q": 0.6, "z": 0.4})
        assert rep.passed and rep.rel_err <= 1e-8

    def test_h_kernel_int_2_far_window(self):
        # the window probe used to overflow the bare product pair at this draw
        rep = evaluate_identity("fourier_h_kernel_int_2",
                                sample_params("fourier_h_kernel_int_2", 1972007450, 0))
        assert rep.passed, rep.status

    def test_b3_x_3_products_at_the_double_floor(self):
        # the integrand's mass is about 1e3 times the integral, so the
        # products inside it must be accurate far below the engine tol
        rep = evaluate_identity("fourier_b3_x_3", sample_params("fourier_b3_x_3", 100, 0))
        assert rep.passed, (rep.status, rep.rel_err)

    def test_qsquare_contour_needs_euler_tail_at_the_floor(self):
        # circle_contour extracts one Laurent mode of a large-mass integrand;
        # an Euler tail cut at the engine tol is a polynomial whose error
        # lands in that mode
        rep = evaluate_identity("qsquare_contour_rep", sample_params("qsquare_contour_rep", 56, 0))
        assert rep.passed, (rep.status, rep.rel_err)

    def test_qhermite_genfun_sums_past_a_vanishing_term(self):
        # at theta = pi/2 every odd H_n(0|q) is 0, and a rule that stops on small
        # terms stopped at n = 9 with rel_err 5.3e-4
        rep = evaluate_identity("qhermite_genfun", {"q": 0.5, "theta": math.pi / 2, "t": 0.45})
        assert rep.passed, (rep.status, rep.rel_err)

    def test_qinvhermite_genfun_sums_past_vanishing_terms(self):
        # every odd h_n(0|q) is 0; stopping on small terms gave 1.08e-10 against tol 1e-10
        params = dict(sample_params("qinvhermite_genfun", 0, 0), xi=0.0)
        rep = evaluate_identity("qinvhermite_genfun", params)
        assert rep.passed, (rep.status, rep.rel_err)

    def test_reports_are_data_not_exceptions(self):
        # an out-of-domain parameter point must come back as a skip
        rep = evaluate_identity("ramanujan_1psi1",
                                {"q": 0.4, "a": 2.0, "b": 0.3, "z": 1.4})
        assert rep.status.startswith("skipped")
        assert rep.reason.startswith("lhs: ConvergenceError: |z| = 1.4 outside")


def test_registry_reads_no_truncation_budget():
    # registry sides sum through the certified engines; a read of tr.tol or
    # tr.max_terms there is a hand-rolled stopping rule
    registry = pathlib.Path(identities.__file__).parent / "registry"
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted(registry.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("tol", "max_terms")]
    assert not reads, reads


class TestFailureClassification:
    def _forced(self, monkeypatch, lhs, rhs):
        rec = IdentityRecord("raiser", "PRELIM", "test", lhs, rhs, None)
        monkeypatch.setattr(identities, "get_identity", lambda identity_id: rec)
        return evaluate_identity("raiser", {})

    @pytest.mark.parametrize("exc, status", [
        (DomainError("outside"), "skipped(domain)"),
        (PoleError("pole"), "skipped(domain)"),
        (ConvergenceError("annulus"), "skipped(domain)"),
        (TruncationError("budget"), "skipped(budget)"),
        (ZeroDivisionError("division"), "error"),
        (OverflowError("range"), "error"),
        (ValueError("math domain"), "error"),
    ])
    def test_status_follows_exception_type(self, monkeypatch, exc, status):
        def raising(p, tr):
            raise exc

        rep = self._forced(monkeypatch, raising, raising)
        assert rep.status == status and not rep.passed
        assert rep.reason == f"lhs: {type(exc).__name__}: {exc}"

    def test_budget_keeps_reason_and_bound(self, monkeypatch):
        def truncated(p, tr):
            raise TruncationError("tail bound 3.0e-09 still above tol", achieved_bound=3e-9)

        rep = self._forced(monkeypatch, truncated, truncated)
        assert rep.status == "skipped(budget)"
        d = report_to_dict(rep)
        assert d["reason"] == "lhs: TruncationError: tail bound 3.0e-09 still above tol"
        assert d["achieved_bound"] == 3e-9 and "estimates" not in d

    def test_budget_keeps_quadrature_estimates(self, monkeypatch):
        def unstable(p, tr):
            raise QuadratureError("did not stabilize", estimates=(1.0, 1.5 + 2j))

        rep = self._forced(monkeypatch, lambda p, tr: 1.0, unstable)
        assert rep.status == "skipped(budget)"
        d = report_to_dict(rep)
        assert d["reason"] == "rhs: QuadratureError: did not stabilize"
        assert d["estimates"] == [[1.0, 0.0], [1.5, 2.0]] and "achieved_bound" not in d



class TestRunSuite:
    def test_prelim_all_pass(self):
        reports = run_suite("PRELIM", samples_per_identity=3, seed=42)
        assert reports and all(r.passed for r in reports)

    def test_mellin_with_tol_override(self):
        reports = run_suite("MELLIN", samples_per_identity=2, seed=7, tol_override=1e-5)
        assert reports and all(r.passed for r in reports)
        assert identities._truncation_for(1e-5).tol == 1e-8

    def test_determinism_byte_identical(self):
        a = run_suite("SERIES", samples_per_identity=2, seed=9)
        b = run_suite("SERIES", samples_per_identity=2, seed=9)
        assert reports_to_json(a) == reports_to_json(b)
        assert reports_to_csv(a) == reports_to_csv(b)

    def test_parallel_matches_serial(self):
        a = run_suite("SERIES", samples_per_identity=1, seed=5, threads=1)
        b = run_suite("SERIES", samples_per_identity=1, seed=5, threads=2)
        assert reports_to_json(a) == reports_to_json(b)

    def test_report_schema(self):
        import json

        reports = run_suite("SERIES", samples_per_identity=1, seed=1)
        payload = json.loads(reports_to_json(reports))
        expected = {"id", "group", "params", "lhs", "rhs", "abs_err", "rel_err",
                    "status", "corrected", "wall_ms"}
        for entry in payload:
            assert set(entry) == expected
            assert isinstance(entry["lhs"], list) and len(entry["lhs"]) == 2
