"""Verification registry: identity records, residual reports, suite runner.

Every in-scope formula is registered as an (lhs, rhs, sampler) record in
one of the groups PRELIM, CONTOUR, MELLIN, FOURIER, SERIES.  Both sides
of a record are evaluated with independent machinery (a quadrature side
never reuses the series side's intermediates) and compared as a relative
residual.  That independence is checked from the engines each side
reaches when it runs, not from declared tags.  Suite runs are
deterministic given a seed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

from .core import Truncation
from .errors import DomainError, QKitError

__all__ = [
    "IdentityRecord",
    "ResidualReport",
    "GROUPS",
    "register",
    "get_identity",
    "catalog",
    "evaluate_identity",
    "run_suite",
    "reports_to_json",
    "reports_to_csv",
]

GROUPS = ("PRELIM", "CONTOUR", "MELLIN", "FOURIER", "SERIES")

# Default tolerance ladder per group; records may override.
GROUP_TOL = {
    "PRELIM": 1e-10,
    "CONTOUR": 1e-8,
    "MELLIN": 1e-6,
    "FOURIER": 1e-8,
    "SERIES": 1e-10,
}


@dataclass(frozen=True)
class IdentityRecord:
    """A registered identity: two evaluator closures plus a domain sampler.

    lhs/rhs take (params: dict, tr: Truncation) and return a complex
    value.  sampler takes a random.Random and returns a params dict that
    satisfies every domain constraint of the identity.  The independence
    of the two sides is not declared here: the tests derive it from the
    qkit functions (and their route arguments) each side reaches.
    """

    id: str
    group: str
    anchor: str
    lhs: object
    rhs: object
    sampler: object
    default_tol: float = 0.0
    corrected: bool = False

    def tol(self) -> float:
        return self.default_tol if self.default_tol > 0 else GROUP_TOL[self.group]


@dataclass
class ResidualReport:
    """Outcome of evaluating one identity at one parameter point."""

    id: str
    group: str
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    status: str  # pass | fail | error | skipped(budget) | skipped(domain)
    corrected: bool
    wall_ms: float = 0.0
    # Set only when a side raised: "<side>: <exception type>: <message>",
    # and the diagnostics the exception carries, if any.
    reason: str | None = None
    achieved_bound: float | None = None  # TruncationError
    estimates: tuple | None = None  # QuadratureError: the last two estimates

    @property
    def passed(self) -> bool:
        return self.status == "pass"


_REGISTRY: dict[str, IdentityRecord] = {}


def register(record: IdentityRecord) -> IdentityRecord:
    if record.group not in GROUPS:
        raise QKitError(f"unknown group {record.group!r}")
    if record.id in _REGISTRY:
        raise QKitError(f"duplicate identity id {record.id!r}")
    _REGISTRY[record.id] = record
    return record


def _load_registry():
    # Importing the registry package populates _REGISTRY via register().
    from . import registry  # noqa: F401


def get_identity(identity_id: str) -> IdentityRecord:
    _load_registry()
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise QKitError(f"unknown identity id {identity_id!r}") from None


def all_identities() -> list:
    _load_registry()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def catalog() -> list:
    """Stable-ordered sequence of (id, group, anchor) for every identity."""
    return [(r.id, r.group, r.anchor) for r in all_identities()]


def _rel_err(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def _truncation_for(tol: float) -> Truncation:
    # engines get a thin slice of the identity tolerance: integrals with
    # internal cancellation amplify the integrand's own evaluation error
    # by the mass-to-value ratio, so the slice must leave a wide reserve.
    return Truncation(tol=max(1e-14, tol * 1e-3), max_terms=100000)


def evaluate_identity(identity_id: str, params: dict, tol: float = 0.0) -> ResidualReport:
    """Evaluate both sides of one identity and report the residual.

    Parameter-domain violations raised by either side (DomainError and
    its subclasses PoleError, ConvergenceError) yield skipped(domain);
    other qkit failures (budget exhaustion, overflow) yield
    skipped(budget); a stray ArithmeticError or ValueError yields error,
    which counts as a failure.  Failures are data, not exceptions: the
    report keeps which side raised what, and the exception's
    achieved_bound or estimates.
    """
    rec = get_identity(identity_id)
    use_tol = tol if tol > 0 else rec.tol()
    tr = _truncation_for(use_tol)
    start = time.perf_counter()
    side = "lhs"
    try:
        lhs = complex(rec.lhs(params, tr))
        side = "rhs"
        rhs = complex(rec.rhs(params, tr))
    except (QKitError, ArithmeticError, ValueError) as exc:
        if isinstance(exc, DomainError):
            status = "skipped(domain)"
        elif isinstance(exc, QKitError):
            status = "skipped(budget)"
        else:
            status = "error"
        wall = (time.perf_counter() - start) * 1000.0
        return ResidualReport(
            rec.id, rec.group, dict(params), complex("nan"), complex("nan"),
            float("nan"), float("nan"), status, rec.corrected, wall,
            reason=f"{side}: {type(exc).__name__}: {exc}",
            achieved_bound=getattr(exc, "achieved_bound", None),
            estimates=getattr(exc, "estimates", None),
        )
    wall = (time.perf_counter() - start) * 1000.0
    abs_err = abs(lhs - rhs)
    rel = _rel_err(lhs, rhs)
    status = "pass" if rel <= use_tol else "fail"
    return ResidualReport(
        rec.id, rec.group, dict(params), lhs, rhs, abs_err, rel, status, rec.corrected, wall
    )


def sample_params(identity_id: str, seed: int, index: int) -> dict:
    """Deterministic parameter draw #index for one identity."""
    rec = get_identity(identity_id)
    rng = random.Random(f"{seed}:{identity_id}:{index}")
    return rec.sampler(rng)


def _evaluate_task(task):
    identity_id, params, tol = task
    return evaluate_identity(identity_id, params, tol)


def run_suite(group: str, samples_per_identity: int = 3, seed: int = 0,
              tol_override: float = 0.0, threads: int = 1) -> list:
    """Evaluate every identity of a group at sampled points.

    Deterministic given the seed: parameter draws depend only on
    (seed, identity id, sample index), and reports are ordered by
    (identity id, sample index) regardless of evaluation parallelism.
    """
    if group not in GROUPS:
        raise QKitError(f"unknown group {group!r}")
    records = [r for r in all_identities() if r.group == group]
    tasks = []
    for rec in records:
        for k in range(samples_per_identity):
            params = sample_params(rec.id, seed, k)
            tasks.append((rec.id, params, tol_override))
    if threads > 1 and len(tasks) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(_evaluate_task, tasks, chunksize=1))
    else:
        reports = [_evaluate_task(t) for t in tasks]
    return reports


def _param_value_to_json(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def report_to_dict(rep: ResidualReport) -> dict:
    """Schema: {id, group, params, lhs:[re,im], rhs:[re,im], abs_err, rel_err,
    status, corrected, wall_ms}, plus reason on a report whose evaluation
    raised and achieved_bound or estimates:[[re,im], [re,im]] when the
    exception carried them.

    wall_ms is serialized as 0 so that fixed-seed runs are byte-identical;
    measured timings are reported separately on stderr by the CLI.
    """
    out = {
        "id": rep.id,
        "group": rep.group,
        "params": {k: _param_value_to_json(v) for k, v in sorted(rep.params.items())},
        "lhs": [rep.lhs.real, rep.lhs.imag],
        "rhs": [rep.rhs.real, rep.rhs.imag],
        "abs_err": rep.abs_err,
        "rel_err": rep.rel_err,
        "status": rep.status,
        "corrected": rep.corrected,
        "wall_ms": 0.0,
    }
    if rep.reason is not None:
        out["reason"] = rep.reason
    if rep.achieved_bound is not None:
        out["achieved_bound"] = rep.achieved_bound
    if rep.estimates is not None:
        out["estimates"] = [[complex(e).real, complex(e).imag] for e in rep.estimates]
    return out


def reports_to_json(reports) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2,
                      allow_nan=True, sort_keys=False)


def reports_to_csv(reports) -> str:
    import csv
    import io

    cols = ["id", "group", "params", "lhs", "rhs", "abs_err", "rel_err",
            "status", "corrected", "wall_ms"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for rep in reports:
        d = report_to_dict(rep)
        writer.writerow([
            d["id"], d["group"], json.dumps(d["params"], sort_keys=True),
            json.dumps(d["lhs"]), json.dumps(d["rhs"]),
            repr(d["abs_err"]), repr(d["rel_err"]), d["status"],
            d["corrected"], repr(d["wall_ms"]),
        ])
    return buf.getvalue()
