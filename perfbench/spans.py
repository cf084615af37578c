"""Span recorder that wraps flowforce's public functions from outside.

The package binds names with ``from .x import y``, so a function is
replaced at every module binding that holds it, not only where it is
defined; methods are replaced on their class.  Each span records its
name, start, end, parent span and the id of the CLI command it ran
under.  Spans stay in memory until the caller summarizes them.
"""

import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (defining module, function) -> span name.  Both extensions share one
# name because the per-layer metric is their combined self time.
FUNCTIONS = {
    ("flowforce.spectral", "analyze"): "spectral.analyze",
    ("flowforce.spectral", "hilbert_strip"): "spectral.hilbert_strip",
    ("flowforce.spectral", "harmonic_extension"): "spectral.extension",
    ("flowforce.spectral", "conjugate_extension"): "spectral.extension",
    ("flowforce.surface_equation", "residual"): "surface_equation.residual",
    ("flowforce.surface_equation", "jacobian_fd"): "surface_equation.jacobian_fd",
    ("flowforce.surface_equation", "check_admissibility"):
        "surface_equation.check_admissibility",
    ("flowforce.dispersion", "kernel_is_simple"): "dispersion.kernel_is_simple",
    ("flowforce.dispersion", "dispersion_table"): "dispersion.dispersion_table",
    ("flowforce.continuation", "trace_branch"): "continuation.trace_branch",
    ("flowforce.continuation", "newton_correct"): "continuation.newton_correct",
    ("flowforce.fields", "reconstruct"): "fields.reconstruct",
    ("flowforce.fields", "validate_solution"): "fields.validate_solution",
}


def _eval_points_modes(func, x, *args, **kwargs):
    return int(np.size(x)) * func.n_modes


def _invert_points(curve, targets, *args, **kwargs):
    return int(np.size(targets))


# (defining module, class, method) -> (span name, counter, measure).
# The measure sees the call's arguments and returns the counter's increment.
METHODS = {
    ("flowforce.spectral", "PeriodicFunction", "eval_at"):
        ("spectral.eval_at", "spectral.eval_at.point_modes", _eval_points_modes),
    ("flowforce.fields", "SurfaceCurve", "invert"):
        ("fields.invert", "fields.invert.points", _invert_points),
}

CONSTRUCTION_COUNTER = "spectral.PeriodicFunction.count"

# a span record: [name, start, end, parent index, command id, returned]
NAME, START, END, PARENT, COMMAND, OK = range(6)


class Tracer:
    """Collects spans and counters while installed into flowforce."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.command = 0
        self._stack = []
        self._undo = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        return self._wrap(name, fn)(*args, **kwargs)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def metrics(self):
        """Per-layer numbers of the spans recorded since the last reset."""
        stats = summarize(self.spans)

        def calls(name):
            return stats.get(name, {}).get("calls", 0)

        def self_s(name):
            return stats.get(name, {}).get("self", 0.0)

        def total(name):
            return stats.get(name, {}).get("total", 0.0)

        newton = {i for i, rec in enumerate(self.spans)
                  if rec[NAME] == "continuation.newton_correct"}
        converged = sum(1 for i in newton if self.spans[i][OK])
        cli_names = [name for name in stats if name.startswith("cli.")]
        return {
            "spectral.PeriodicFunction.count": self.counts[CONSTRUCTION_COUNTER],
            "spectral.eval_at.calls": calls("spectral.eval_at"),
            "spectral.eval_at.self_s": self_s("spectral.eval_at"),
            "spectral.eval_at.point_modes": self.counts["spectral.eval_at.point_modes"],
            "spectral.analyze.calls": calls("spectral.analyze"),
            "spectral.hilbert_strip.calls": calls("spectral.hilbert_strip"),
            "spectral.extension.self_s": self_s("spectral.extension"),
            "surface_equation.residual.calls": calls("surface_equation.residual"),
            "surface_equation.residual.self_s": self_s("surface_equation.residual"),
            "surface_equation.jacobian_fd.calls": calls("surface_equation.jacobian_fd"),
            "surface_equation.jacobian_fd.self_s": self_s("surface_equation.jacobian_fd"),
            "surface_equation.check_admissibility.calls":
                calls("surface_equation.check_admissibility"),
            "dispersion.kernel_is_simple.calls": calls("dispersion.kernel_is_simple"),
            "dispersion.kernel_is_simple.self_s": self_s("dispersion.kernel_is_simple"),
            "continuation.newton_correct.self_s": self_s("continuation.newton_correct"),
            "continuation.newton_iters": sum(
                1 for rec in self.spans
                if rec[NAME] == "surface_equation.jacobian_fd" and rec[PARENT] in newton
            ),
            "continuation.steps_attempted": len(newton),
            "continuation.steps_converged": converged,
            "continuation.step_success_ratio": converged / len(newton) if newton else 0.0,
            "fields.reconstruct.calls": calls("fields.reconstruct"),
            "fields.invert.calls": calls("fields.invert"),
            "fields.invert.points": self.counts["fields.invert.points"],
            "fields.invert.self_s": self_s("fields.invert"),
            "fields.validate_solution.self_s": self_s("fields.validate_solution"),
            "cli.dispersion.s": total("cli.dispersion"),
            "cli.kernel-check.s": total("cli.kernel-check"),
            "cli.branch.s": total("cli.branch"),
            "cli.validate.s": total("cli.validate"),
            "cli.reconstruct.s": total("cli.reconstruct"),
            "cli.self_s": sum(self_s(name) for name in cli_names),
        }

    def _wrap(self, name, fn, counter=None, measure=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.counts[counter] += measure(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, False]
            stack.append(len(self.spans))
            self.spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                record[OK] = True
                return result
            finally:
                record[END] = perf_counter()
                stack.pop()

        return wrapper

    def _count_constructions(self, post_init):
        counts = self.counts

        @functools.wraps(post_init)
        def wrapper(obj):
            counts[CONSTRUCTION_COUNTER] += 1
            post_init(obj)

        return wrapper

    def __enter__(self):
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "flowforce" or key.startswith("flowforce.")
        ]
        wrappers = {}
        for (module, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrappers[id(original)] = (original, self._wrap(name, original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(mod, attr, hit[1])
        for (module, cls_name, attr), (name, counter, measure) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            self._replace(cls, attr, self._wrap(name, vars(cls)[attr], counter, measure))
        cls = sys.modules["flowforce.spectral"].PeriodicFunction
        self._replace(cls, "__post_init__", self._count_constructions(vars(cls)["__post_init__"]))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)


def summarize(spans):
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the time its direct children
    cover; spans nest strictly because the program is single-threaded.
    """
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    stats = {}
    for i, rec in enumerate(spans):
        duration = rec[END] - rec[START]
        entry = stats.setdefault(rec[NAME], {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - covered[i]
    return stats
