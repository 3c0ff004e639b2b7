"""Span tracer that measures qkit's layers from outside the package.

``Tracer.install`` wraps every public function of the traced modules and the
FPS methods named in ``layers.json``.  Registry modules bind names with
``from ..quad import gaussian_line`` and ``core`` calls ``qpoch_inf`` through
its own globals, so the wrapper replaces the function object in every loaded
``qkit.*`` namespace that holds it, not only in the defining module.

Spans are aggregated in memory per point and per (caller span, span) pair
as [calls, total_s, self_s, errors, evals, coeffs]; a span's self time is
its duration minus the time covered by the wrapped calls made inside it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import sys
import time

TRACED_MODULES = ("core", "series", "polys", "quad", "identities", "exactq", "asymptotics")

# Indices into a span record.
CALLS, TOTAL, SELF, ERRORS, EVALS, COEFFS = range(6)

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")


class TracingError(RuntimeError):
    """A listed function is missing, or a layer went unexercised."""


def load_layers():
    with open(LAYERS_FILE, encoding="utf-8") as fh:
        return json.load(fh)["layers"]


def _resolve(target):
    """'qkit.exactq:FPS.__mul__' -> ('exactq.FPS.__mul__', the function)."""
    modname, _, attr = target.partition(":")
    owner = importlib.import_module(modname)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = vars(owner).get(parts[-1]) if owner is not None else None
    if not inspect.isfunction(fn):
        raise TracingError(f"traced function {target} no longer exists")
    return f"{modname.removeprefix('qkit.')}.{attr}", fn


class Tracer:
    def __init__(self, layers):
        self.layers = layers
        self.stack = []  # one [child_s, span name] cell per open span
        self.points = {}  # point label -> {(caller span, span): record}
        self.current = self.points.setdefault("<outside>", {})
        self._patched = []  # (namespace owner, attribute, original)

    def begin_point(self, label):
        self.current = self.points.setdefault(label, {})

    # -- wrapping -----------------------------------------------------------------

    def _targets(self):
        """Every function to wrap, as {function: span name}."""
        targets = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"qkit.{short}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    targets[obj] = f"{short}.{name}"
        for layer in self.layers.values():
            for target in layer["functions"]:
                span, fn = _resolve(target)
                targets[fn] = span
        return targets

    def _wrap(self, span, fn):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        engine = span.startswith("quad.")
        fps_init = span == "exactq.FPS.__init__"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter = None
            if engine and args:
                # count integrand evaluations by wrapping the closure handed in
                counter = [0]
                args = (_counted(args[0], counter),) + args[1:]
            caller = stack[-1][1] if stack else "<point>"
            cell = [0.0, span]
            stack.append(cell)
            failed = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                key = (caller, span)
                rec = tracer.current.get(key)
                if rec is None:
                    rec = tracer.current[key] = [0, 0.0, 0.0, 0, 0, 0]
                rec[CALLS] += 1
                rec[TOTAL] += dur
                rec[SELF] += dur - cell[0]
                if failed:
                    rec[ERRORS] += 1
                if counter is not None:
                    rec[EVALS] += counter[0]
                if fps_init and not failed:
                    rec[COEFFS] += len(args[0].coeffs)

        return wrapper

    def install(self):
        targets = self._targets()
        wrappers = {id(fn): (fn, self._wrap(span, fn)) for fn, span in targets.items()}
        owners = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "qkit" or name.startswith("qkit."))]
        owners += [importlib.import_module("qkit.exactq").FPS]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ----------------------------------------------------------------

    def totals(self):
        """Span records summed over points and callers."""
        out = {}
        for spans in self.points.values():
            for (_caller, span), rec in spans.items():
                acc = out.setdefault(span, [0, 0.0, 0.0, 0, 0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
        return out

    def layer_metrics(self, workload):
        """Per-layer metrics; raises if a layer meant for this workload saw no call."""
        totals = self.totals()
        metrics = {}
        idle = []
        for name, layer in self.layers.items():
            spans = [_resolve(t)[0] for t in layer["functions"]]
            acc = [0, 0.0, 0.0, 0, 0, 0]
            for span in spans:
                for i, v in enumerate(totals.get(span, ())):
                    acc[i] += v
            if acc[CALLS] == 0 and workload in layer["workloads"]:
                idle.append(name)
            fields = {"calls": acc[CALLS], "self_s": acc[SELF], "evals": acc[EVALS],
                      "errors": acc[ERRORS], "coeffs": acc[COEFFS]}
            for field in layer["metrics"]:
                metrics[f"{name}.{field}"] = fields[field]
        if idle:
            raise TracingError(f"no calls on {workload} for: {', '.join(idle)}")
        return metrics

    def dump(self):
        keys = ("calls", "total_s", "self_s", "errors", "evals", "coeffs")
        return {label: {f"{caller} > {span}": dict(zip(keys, rec))
                        for (caller, span), rec in sorted(spans.items())}
                for label, spans in self.points.items() if spans}


def _counted(integrand, counter):
    """The engine argument with its integrand closure wrapped in a call counter."""
    if dataclasses.is_dataclass(integrand):
        return dataclasses.replace(integrand, f=_counted(integrand.f, counter))

    def f(*args):
        counter[0] += 1
        return integrand(*args)

    return f
