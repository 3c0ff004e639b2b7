"""qkit benchmark: four serial, closed-loop verification workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fourier_suite --seed 55 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 55 --seconds 20

One client evaluates one point at a time in a single process (no threads,
no pool).  The seed makes the points; the same seed gives the same points.
With --trace 0 the run makes one pass over every point, then repeats the
cheapest points until --seconds is spent, and reports the end-to-end
metrics; a point's latency is the median over its repetitions.  Before
every point it also times a fixed reference kernel, and the bounded
latency figure is the geometric mean of the point latencies divided by the
reference kernel's median time.  With --trace 1 it makes
one untraced and one traced pass and reports the per-layer metrics of
perfbench/layers.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full result (provenance,
per-point detail, digests, spans) is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

from workloads import WORKLOADS, Outcome  # noqa: E402

# Seed reserved for confirming a claim on inputs not used while making it.
CONFIRM_SEED = 7919
SETUP_PROBES = 11
REPEAT_SHARE = 8
TAIL_BEYOND = 10


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def require_source():
    if not os.path.isfile(os.path.join(SRC, "qkit", "__init__.py")):
        fail(f"qkit sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)


# --- set-up -------------------------------------------------------------------

def probe_setup(name):
    """Child-process entry: time the workload's import and registry load."""
    start = time.perf_counter()
    WORKLOADS[name].setup()
    print(repr(time.perf_counter() - start))


def measure_setup(name):
    """Median set-up time over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe-setup", name],
                             cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


# --- host-speed reference -------------------------------------------------------

_REF_RNG = random.Random(20240517)
_REF_A = [_REF_RNG.choice("abcdefgh") for _ in range(300)]
_REF_B = [_REF_RNG.choice("abcdefgh") for _ in range(300)]


def reference_kernel():
    """Fixed pure-Python work that does not use qkit: a complex product loop
    and six difflib matches, about 1 ms each.

    On a shared 2-vCPU Xeon VM the speed of the host swings by up to 2x over
    minutes, and it slows dict-heavy code more than arithmetic loops.  The
    loop alone tracked the FOURIER points best and the difflib match the
    catalog points; over repeated passes, dividing the geometric-mean point
    latency by the median time of such a kernel, taken between the same
    points, cut its spread (IQR/median) from 0.14-0.6 to 0.03-0.07.
    """
    acc = 0.0
    for j in range(200):
        prod, aq = 1.0 + 0.0j, complex(0.3, 0.001 * j)
        for _ in range(40):
            prod *= 1.0 - aq
            aq *= 0.5
        acc += abs(prod) + math.exp(-j * 1e-3)
    for _ in range(6):
        acc += difflib.SequenceMatcher(None, _REF_A, _REF_B).ratio()
    return acc


def time_reference(samples):
    start = time.perf_counter()
    reference_kernel()
    samples.append(time.perf_counter() - start)


# --- running points -----------------------------------------------------------


def run_point(point):
    """Run one point; a stray exception is one failed point, not a dead workload."""
    start = time.perf_counter()
    try:
        outcome = point.run()
    except Exception as exc:  # noqa: BLE001 - every point must be accounted for
        outcome = Outcome("error", None, {"point": point.label,
                                          "error": f"{type(exc).__name__}: {exc}",
                                          "traceback": traceback.format_exc()})
    return time.perf_counter() - start, outcome


def run_pass(points, on_point=None):
    start = time.perf_counter()
    results = []
    for point in points:
        if on_point is not None:
            on_point(point.label)
        results.append(run_point(point))
    return time.perf_counter() - start, results


def tail(values):
    """Highest whole percentile with at least TAIL_BEYOND values above it.

    Returns (percentile, value, beyond) by the nearest-rank rule.
    """
    n = len(values)
    ordered = sorted(values)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def git_commit():
    """Commit of the checkout read from .git, or 'unknown' outside a git tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, npoints):
    return {
        "workload": args.workload, "seed": args.seed, "confirm_seed": CONFIRM_SEED,
        "points": npoints, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": git_commit(),
    }


def check_runs(runs):
    """Whether every repetition of a point gave the same record as its first."""
    def key(outcome):
        return json.dumps(outcome.record, sort_keys=True, default=str)

    return all(key(o) == key(r[0][1]) for r in runs for _, o in r[1:])


def digests(outcomes):
    """sha256 of the registry reports as qkit serializes them, and of the other records."""
    outcomes = list(outcomes)
    reports = [o.report for o in outcomes if o.report is not None]
    others = [o.record for o in outcomes if o.report is None]
    out = {}
    if reports:
        from qkit import identities

        out["report_sha256"] = sha256(identities.reports_to_json(reports))
    if others:
        out["records_sha256"] = sha256(json.dumps(others, sort_keys=True, default=str))
    return out


def status_counts(outcomes):
    counts = {s: 0 for s in ("pass", "fail", "skipped_budget", "skipped_domain", "error")}
    for o in outcomes:
        counts[o.status] += 1
    return counts


# --- the two kinds of run -------------------------------------------------------

def timed_runs(points, seconds):
    """One full pass, then repeat passes over the cheapest points until time is up.

    A repeat pass takes the cheapest points whose first-pass times sum to at
    most seconds / REPEAT_SHARE, so cheap points are timed many times across
    the run while a point that costs seconds is timed once.  The reference
    kernel is timed before every point.  Returns the first pass's wall time,
    per point the list of (seconds, Outcome), and the reference times.
    """
    refs = []
    start = time.perf_counter()
    first_wall, first = run_pass(points, on_point=lambda _label: time_reference(refs))
    runs = [[r] for r in first]
    cap = seconds / REPEAT_SHARE
    repeat, cost = [], 0.0
    for i in sorted(range(len(points)), key=lambda i: first[i][0]):
        if cost + first[i][0] > cap:
            break
        repeat.append(i)
        cost += first[i][0]
    repeat.sort()
    while repeat and time.perf_counter() - start + cost <= seconds:
        began = time.perf_counter()
        for i in repeat:
            time_reference(refs)
            runs[i].append(run_point(points[i]))
        cost = time.perf_counter() - began
    return first_wall, runs, refs


def end_to_end(args, points):
    setup_s, setup_samples = measure_setup(args.workload)
    first_wall, runs, refs = timed_runs(points, args.seconds)
    med_ms = [statistics.median(t for t, _ in r) * 1000.0 for r in runs]
    ref_ms = statistics.median(refs) * 1000.0
    geomean_ms = math.exp(statistics.fmean(math.log(v) for v in med_ms))
    outcomes = [o for r in runs for _, o in r]
    counts = status_counts(outcomes)
    attempted = len(outcomes)
    failed = attempted - counts["pass"]
    deterministic = check_runs(runs)
    margins = [o.margin for o in outcomes if o.margin is not None]
    pct, tail_ms, beyond = tail(med_ms)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "point_geomean_ref": (geomean_ms / ref_ms, "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # Printed and recorded, not bounded in BENCHMARK.json: the raw times
    # follow the host's speed swings (see reference_kernel), and failures
    # (hence a negative margin) already make `correct` false.
    extra = {
        "point_geomean_ms": (geomean_ms, "ms"),
        "reference_ms": (ref_ms, "ms"),
        "wall_s": (sum(med_ms) / 1000.0, "s"),
        "point_p50_ms": (statistics.median(med_ms), "ms"),
        "point_tail_ms": (tail_ms, "ms"),
        "failed_frac": (failed / attempted, "1"),
        "accuracy_margin_dec": ((min(margins), "dec") if margins else (None, "dec")),
    }
    notes = {"point_tail_ms": f"p{pct} of {len(points)} points, {beyond} beyond",
             "accuracy_margin_dec": "" if margins else "exact workload: no float tolerance"}
    first = [r[0][1] for r in runs]
    detail = {
        "provenance": provenance(args, len(points)),
        "first_pass_wall_s": first_wall, "setup_samples_s": setup_samples,
        "status_counts": counts, "deterministic": deterministic,
        "tail_percentile": pct, "tail_beyond": beyond,
        **digests(first),
        "points": [{"label": pt.label, "median_ms": md, "reps": len(r),
                    "status": r[0][1].status, "margin": r[0][1].margin}
                   for pt, md, r in zip(points, med_ms, runs)],
        "errors": [o.record for o in outcomes if o.status == "error"],
    }
    correct = failed == 0 and deterministic
    return correct, attempted, failed, metrics, extra, notes, detail


def traced(args, points):
    from tracer import Tracer, TracingError, load_layers

    base_wall, base_results = run_pass(points)
    tracer = Tracer(load_layers())
    try:
        tracer.install()
        try:
            traced_wall, traced_results = run_pass(points, on_point=tracer.begin_point)
        finally:
            tracer.uninstall()
        layer = tracer.layer_metrics(args.workload)
    except TracingError as exc:
        fail(str(exc), code=3)
    outcomes = [o for _, o in base_results + traced_results]
    counts = status_counts(o for _, o in traced_results)
    attempted = len(outcomes)
    failed = sum(o.status != "pass" for o in outcomes)
    deterministic = check_runs([list(pair) for pair in zip(base_results, traced_results)])
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in layer.items()}
    for status, n in counts.items():
        metrics[f"identities.status.{status}"] = (n, "count")
    metrics["tracing_overhead_s"] = (traced_wall - base_wall, "s")
    detail = {
        "provenance": provenance(args, len(points)),
        "untraced_wall_s": base_wall, "traced_wall_s": traced_wall,
        "status_counts": counts, "deterministic": deterministic,
        **digests(o for _, o in base_results),
        "spans": tracer.dump(),
        "errors": [o.record for o in outcomes if o.status == "error"],
    }
    correct = failed == 0 and deterministic
    return correct, attempted, failed, metrics, {}, {}, detail


def run_workload(args):
    require_source()
    workload = WORKLOADS[args.workload]
    points = workload.build(workload.setup(), args.seed)
    kind = traced if args.trace else end_to_end
    correct, attempted, failed, metrics, extra, notes, detail = kind(args, points)

    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()}
    detail["correct"] = correct
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)

    prov = detail["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  points {len(points)}  "
          f"trace {args.trace}  (confirm seed {CONFIRM_SEED})")
    print(f"  nproc {prov['nproc']}  python {prov['python']}  commit {prov['commit'][:12]}")
    for key, (value, unit) in {**metrics, **extra}.items():
        shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else value)
        note = notes.get(key)
        print(f"  {key:<42} {shown} {unit}" + (f"  ({note})" if note else ""))
    for key in ("report_sha256", "records_sha256"):
        if key in detail:
            print(f"  {key:<42} {detail[key]}")
    print(f"  attempted {attempted}  failed {failed}  correct {correct}  "
          f"-> .perfbench_out/{name}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def run_all(args):
    """Run every workload, each in a fresh process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}", code=proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=55)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        require_source()
        probe_setup(args.probe_setup)
    elif args.workload == "all":
        run_all(args)
    elif args.workload:
        run_workload(args)
    else:
        parser.error("--workload is required")


if __name__ == "__main__":
    main()
