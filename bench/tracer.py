"""Timing wrappers installed on `rayspace` from outside, for a traced pass.

`Tracer.install` replaces every module attribute of the loaded `rayspace`
modules that names one of the functions below with a timing wrapper, so a
call is seen whichever module it is looked up in (`families.propagate_system`
and `optics.propagate_system` are the same function); `restore` puts the
originals back.  Nothing under `src/` is changed.

Two kinds of boundary are recorded:

- spans (name, start, end, parent, self time) for calls into `cli`, `scene`,
  `families` and `variational`; there are a few thousand per pass, so they
  are kept individually and written out at the end of the run;
- the per-ray boundaries of `optics`, `surfaces` and `lines` run half a
  million times per wavefront pass, so they are only aggregated, per parent
  span name, as call count, total time, self time and failures.

Self time is the duration minus the time of the wrapped calls directly
inside.  Rays are counted by wrapping the family that `transform_family`
returns, so each traced ray is counted once; the source family inside it is
not counted again.  `one_form_integral` and `defect_grid` additionally count
the evaluations of their own family argument, call by call.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from collections import defaultdict

_perf = time.perf_counter

SPANS = {
    "cli": ("main",),
    "scene": ("load_scene",),
    "families": (
        "is_rectangular",
        "defect_grid",
        "defect",
        "reconstruct_wavefront",
        "one_form_integral",
        "orthogonality_residual",
        "is_regular_point",
    ),
    "variational": (
        "characteristic_function",
        "design_focusing_mirror",
        "verify_focus",
        "law_residual",
        "stationarity_residual",
        "initial_path",
        "path_through",
    ),
}
AGGREGATES = {
    "optics": ("propagate_system", "reflect_direction", "refract_direction"),
    "surfaces": ("intersect",),
    "lines": ("line_through", "chart_jacobian"),
}
_COUNTS_FAMILY_ARG = ("families.one_form_integral", "families.defect_grid")
SURFACE_KINDS = ("plane", "sphere", "quadric", "sinusoid")

# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "families.ray_evals": ("count", "lower"),
    "families.one_form_integral.calls": ("count", "lower"),
    "families.one_form_integral.evals_per_call": ("count", "lower"),
    "families.one_form_integral.levels_mean": ("levels", "lower"),
    "families.one_form_integral.useful_ratio": ("ratio", "higher"),
    "families.one_form_integral.self_ms": ("ms", "lower"),
    "families.reconstruct_wavefront.s": ("s", "lower"),
    "families.orthogonality_residual.s": ("s", "lower"),
    "families.defect_grid.ms": ("ms", "lower"),
    "families.defect_grid.evals": ("count", "lower"),
    "optics.propagate_system.calls": ("count", "lower"),
    "optics.propagate_system.us": ("us", "lower"),
    "optics.propagate_system.self_us": ("us", "lower"),
    "optics.reflect_direction.calls": ("count", "lower"),
    "optics.reflect_direction.us": ("us", "lower"),
    "optics.refract_direction.calls": ("count", "lower"),
    "optics.refract_direction.us": ("us", "lower"),
    **{
        f"surfaces.intersect.{kind}.{stat}": (unit, "lower")
        for kind in SURFACE_KINDS
        for stat, unit in (("calls", "count"), ("us", "us"))
    },
    "surfaces.intersect.failures": ("count", "lower"),
    "lines.line_through.calls": ("count", "lower"),
    "lines.line_through.us": ("us", "lower"),
    "lines.chart_jacobian.calls": ("count", "lower"),
    "lines.chart_jacobian.ms": ("ms", "lower"),
    "variational.characteristic_function.calls": ("count", "lower"),
    "variational.characteristic_function.ms": ("ms", "lower"),
    "variational.characteristic_function.failures": ("count", "lower"),
    "variational.design_focusing_mirror.self_ms": ("ms", "lower"),
    "variational.verify_focus.ms": ("ms", "lower"),
    "scene.load_scene.ms": ("ms", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Spans and aggregates of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, self seconds, attrs]
        self.aggregates = defaultdict(lambda: [0, 0.0, 0.0, 0])  # (parent, name) -> calls, s, self s, failures
        self.ray_evals = 0
        self._stack = []  # [enclosing span index, seconds spent in wrapped children]
        self._patched = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for modname, names in SPANS.items():
            for name in names:
                fn = getattr(sys.modules[f"rayspace.{modname}"], name)
                label = f"{modname}.{name}"
                wrappers[id(fn)] = (fn, self._span(label, fn, label in _COUNTS_FAMILY_ARG))
        for modname, names in AGGREGATES.items():
            for name in names:
                fn = getattr(sys.modules[f"rayspace.{modname}"], name)
                wrappers[id(fn)] = (fn, self._aggregate(f"{modname}.{name}", fn))
        fn = sys.modules["rayspace.families"].transform_family
        wrappers[id(fn)] = (fn, self._transform_family(fn))

        modules = [m for n, m in sys.modules.items() if n == "rayspace" or n.startswith("rayspace.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- wrappers ------------------------------------------------------

    def _counting(self, family, box=None):
        inner = family.eval
        if box is None:

            def counted(k1, k2):
                self.ray_evals += 1
                return inner(k1, k2)

        else:

            def counted(k1, k2):
                box[0] += 1
                return inner(k1, k2)

        return dataclasses.replace(family, eval=counted)

    def _transform_family(self, fn):
        def wrapper(*args, **kwargs):
            return self._counting(fn(*args, **kwargs))

        return wrapper

    def _span(self, name, fn, count_family):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            attrs = {"argv": list(args[0])} if name == "cli.main" and args else {}
            if count_family:
                box = [0]
                args = (self._counting(args[0], box), *args[1:])
            parent = stack[-1][0] if stack else None
            record = [name, 0.0, 0.0, parent, 0.0, attrs]
            frame = [len(spans), 0.0]
            spans.append(record)
            stack.append(frame)
            ok = False
            start = _perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = _perf()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                record[1], record[2], record[4] = start, end, end - start - frame[1]
                if count_family:
                    attrs["evals"] = box[0]
                if not ok:
                    attrs["failed"] = True

        return wrapper

    def _aggregate(self, name, fn):
        spans, stack, stats = self.spans, self._stack, self.aggregates
        by_kind = name == "surfaces.intersect"

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [parent, 0.0]
            stack.append(frame)
            ok = False
            start = _perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = _perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                label = name
                if by_kind:
                    surface = args[1] if len(args) > 1 else kwargs["surface"]
                    label = f"{name}.{type(surface).__name__.lower()}"
                entry = stats[(spans[parent][0] if parent is not None else "-", label)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if not ok:
                    entry[3] += 1

        return wrapper

    # -- results -------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "self": st, **a}
                for n, s, e, p, st, a in self.spans
            ],
            "aggregates": [
                {"parent": p, "name": n, "calls": c, "s": t, "self_s": st, "failures": f}
                for (p, n), (c, t, st, f) in sorted(self.aggregates.items())
            ],
        }


def refinement(evals: int):
    """(levels, evaluations at the accepted level) of one one_form_integral call.

    Level l evaluates 2**(l + 1) + 1 nodes, so l levels cost
    2**(l + 2) - 4 + l evaluations in all; None if no level count fits.
    """
    level = 1
    while (total := 2 ** (level + 2) - 4 + level) <= evals:
        if total == evals:
            return level, 2 ** (level + 1) + 1
        level += 1
    return None


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """Per-layer figures of one traced pass, keyed as in LAYER_METRICS."""
    spans = defaultdict(list)
    for record in tracer.spans:
        spans[record[0]].append(record)
    calls = defaultdict(int)
    seconds = defaultdict(float)
    self_seconds = defaultdict(float)
    failures = defaultdict(int)
    for (_, name), (c, t, st, f) in tracer.aggregates.items():
        calls[name] += c
        seconds[name] += t
        self_seconds[name] += st
        failures[name] += f

    def total(name, field=None):
        return sum(r[4] if field == "self" else r[2] - r[1] for r in spans[name])

    def per_call_us(name):
        return 1e6 * seconds[name] / calls[name] if calls[name] else 0.0

    ofi = spans["families.one_form_integral"]
    evals = [r[5]["evals"] for r in ofi]
    fitted = [fit for fit in map(refinement, evals) if fit is not None]
    cf = spans["variational.characteristic_function"]
    m = {
        "families.ray_evals": tracer.ray_evals,
        "families.one_form_integral.calls": len(ofi),
        "families.one_form_integral.evals_per_call": sum(evals) / len(evals) if evals else 0.0,
        "families.one_form_integral.levels_mean": (
            statistics.fmean(level for level, _ in fitted) if fitted else 0.0
        ),
        "families.one_form_integral.useful_ratio": (
            sum(useful for _, useful in fitted) / sum(evals) if evals else 0.0
        ),
        "families.one_form_integral.self_ms": 1e3 * total("families.one_form_integral", "self"),
        "families.reconstruct_wavefront.s": total("families.reconstruct_wavefront"),
        "families.orthogonality_residual.s": total("families.orthogonality_residual"),
        "families.defect_grid.ms": 1e3 * total("families.defect_grid"),
        "families.defect_grid.evals": sum(r[5]["evals"] for r in spans["families.defect_grid"]),
        "optics.propagate_system.calls": calls["optics.propagate_system"],
        "optics.propagate_system.us": per_call_us("optics.propagate_system"),
        "optics.propagate_system.self_us": (
            1e6 * self_seconds["optics.propagate_system"] / calls["optics.propagate_system"]
            if calls["optics.propagate_system"]
            else 0.0
        ),
    }
    for name in ("optics.reflect_direction", "optics.refract_direction", "lines.line_through"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.us"] = per_call_us(name)
    for kind in SURFACE_KINDS:
        m[f"surfaces.intersect.{kind}.calls"] = calls[f"surfaces.intersect.{kind}"]
        m[f"surfaces.intersect.{kind}.us"] = per_call_us(f"surfaces.intersect.{kind}")
    m["surfaces.intersect.failures"] = sum(failures[f"surfaces.intersect.{k}"] for k in SURFACE_KINDS)
    m["lines.chart_jacobian.calls"] = calls["lines.chart_jacobian"]
    m["lines.chart_jacobian.ms"] = 1e3 * seconds["lines.chart_jacobian"]
    m["variational.characteristic_function.calls"] = len(cf)
    m["variational.characteristic_function.ms"] = 1e3 * total("variational.characteristic_function")
    m["variational.characteristic_function.failures"] = sum(1 for r in cf if r[5].get("failed"))
    m["variational.design_focusing_mirror.self_ms"] = 1e3 * total("variational.design_focusing_mirror", "self")
    m["variational.verify_focus.ms"] = 1e3 * total("variational.verify_focus")
    m["scene.load_scene.ms"] = 1e3 * total("scene.load_scene")
    m["cli.main.calls"] = len(spans["cli.main"])
    m["cli.main.self_ms"] = 1e3 * total("cli.main", "self")
    m["trace.overhead_ratio"] = overhead_ratio
    return m
