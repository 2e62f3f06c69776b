"""Span recorder for the traced run.

The recorder wraps ellab's module-level public functions by attribute, so a
call made through the module (``ct.certify(...)``, or a same-module call by
global name) opens a span.  Each span records its name, start, end, the index
of its parent span, whether the call returned, and a few counts read from the
arguments or the result.  Self time is a span's duration minus the durations
of its direct children.

A target that the program no longer defines is recorded as absent; its
metrics read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

# module -> public functions wrapped in the traced run
TARGETS = {
    "cli": ("main",),
    "nonlinearity": ("evaluate_many", "compute_indices", "check_hypotheses"),
    "constants": ("synthesize", "certify"),
    "modelspace": ("curvature_bound", "sharpness_quantity", "appendix_solution"),
    "pdelab": ("solve_radial_bvp", "check_estimate", "profile_table"),
    "relations": ("boundary_sweep", "implication_suite"),
    "reporting": ("dump", "write_csv"),
    "acceptance": ("run_suite",),
}

NAME, START, END, PARENT, OK, EXTRA = range(6)


def _certify_points(args, kwargs, result):
    ver = result.verification
    eps = ver["eps_points"] if "eps" in ver["worst_at"] else 1
    return {"points": ver["u_points"] * eps}


def _solve_counts(args, kwargs, result):
    return {"newton_iterations": result.meta["newton_iterations"],
            "nodes": len(result.u)}


def _path_arg(index):
    def extract(args, kwargs, result):
        path = args[index] if len(args) > index else kwargs["path"]
        return {"path": os.fspath(path)}
    return extract


EXTRACTORS = {
    "constants.certify": _certify_points,
    "pdelab.solve_radial_bvp": _solve_counts,
    "reporting.dump": _path_arg(1),
    "reporting.write_csv": _path_arg(0),
}


class Recorder:
    """Records spans of wrapped calls while `active` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod_name, names in TARGETS.items():
            module = importlib.import_module("ellab." + mod_name)
            for fn_name in names:
                fn = getattr(module, fn_name, None)
                if not callable(fn):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                self._saved.append((module, fn_name, fn))
                setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn))

    def uninstall(self) -> None:
        for module, fn_name, fn in self._saved:
            setattr(module, fn_name, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        extract = EXTRACTORS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, True, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[OK] = False
                raise
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if extract is not None:
                try:
                    span[EXTRA] = extract(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass  # the result no longer carries the count
            return result

        return wrapper

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def reparent(root: list, spans: list[list]) -> list[list]:
    """Spans of one op under a root span that covers the whole op."""
    out = [root]
    for s in spans:
        s = list(s)
        s[PARENT] = 0 if s[PARENT] < 0 else s[PARENT] + 1
        out.append(s)
    return out


class LayerTotals:
    """Per-name sums over the traced ops, turned into per-op layer metrics."""

    def __init__(self):
        self.ops = 0
        self.op_s = 0.0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.solve_ok = 0
        self.solve_failed_s = 0.0
        self.solve_total_s = 0.0
        self.newton_iterations = 0
        self.nodes = 0
        self.certify_points = 0
        self.bytes: dict[str, int] = {"reporting.dump": 0, "reporting.write_csv": 0}

    def add_op(self, spans: list[list]) -> None:
        """Fold one op's spans (root first) into the totals."""
        self.ops += 1
        self.op_s += spans[0][END] - spans[0][START]
        for s, own in zip(spans, self_times(spans)):
            name = s[NAME]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            extra = s[EXTRA] or {}
            if name == "pdelab.solve_radial_bvp":
                dur = s[END] - s[START]
                self.solve_total_s += dur
                if s[OK]:
                    self.solve_ok += 1
                    self.newton_iterations += extra.get("newton_iterations", 0)
                    self.nodes += extra.get("nodes", 0)
                else:
                    self.solve_failed_s += dur
            elif name == "constants.certify":
                self.certify_points += extra.get("points", 0)
            elif name in self.bytes and "path" in extra:
                try:
                    self.bytes[name] += os.path.getsize(extra["path"])
                except OSError:
                    pass  # the call raised before writing

    def metrics(self) -> dict[str, float]:
        n = max(self.ops, 1)

        def per_op_ms(name):
            return 1000.0 * self.self_s.get(name, 0.0) / n

        out = {"cli.main.self_ms": per_op_ms("cli.main")}
        for mod_name, names in TARGETS.items():
            for fn_name in names:
                name = f"{mod_name}.{fn_name}"
                if mod_name != "cli":
                    out[f"{name}.self_ms"] = per_op_ms(name)
        solves = self.calls.get("pdelab.solve_radial_bvp", 0)
        out.update({
            "nonlinearity.evaluate_many.calls":
                self.calls.get("nonlinearity.evaluate_many", 0) / n,
            "constants.certify.calls": self.calls.get("constants.certify", 0) / n,
            "constants.certify.points": self.certify_points / n,
            "pdelab.solve_radial_bvp.calls": solves / n,
            "pdelab.solve_radial_bvp.failed_ms": 1000.0 * self.solve_failed_s / n,
            # no solve attempted means no solve wasted
            "pdelab.solve_radial_bvp.useful_frac":
                self.solve_ok / solves if solves else 1.0,
            "pdelab.newton_iterations": self.newton_iterations / n,
            "pdelab.nodes_per_s":
                self.nodes / self.solve_total_s if self.solve_total_s else 0.0,
            "reporting.dump.bytes": self.bytes["reporting.dump"] / n,
            "reporting.write_csv.bytes": self.bytes["reporting.write_csv"] / n,
            "trace.op_ms": 1000.0 * self.op_s / n,
            "trace.outside_ms": per_op_ms("op"),
        })
        return out
