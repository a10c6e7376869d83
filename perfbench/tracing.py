"""Per-layer tracing of subrep, done from outside the program.

`install` replaces public functions of subrep with wrappers on every module
that binds them, so calls made through any of those names are seen.  Each
wrapper records a span (name, start, end, parent, thread, request, round) and
counts taken from argument sizes and returned objects.  Spans stay in memory
and are written out when the run ends.  `layer_metrics` turns them into the
per-layer metrics listed in LAYER_METRICS: totals over the traced rounds.

A metric named `<layer>.<function>.s` is the inclusive time of the outermost
spans of that function (a span nested in another of the same group is not
counted twice); `verify.self_s` and `cli.self_s` are self times.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

LAYER_METRICS = (
    ("quadrature.integrate_annular.calls", "count", "lower"),
    ("quadrature.integrate_annular.s", "s", "lower"),
    ("quadrature.evaluations", "count", "lower"),
    ("quadrature.shells", "count", "lower"),
    ("quadrature.evals_per_shell", "ratio", "lower"),
    ("quadrature.nodes", "count", "lower"),
    ("quadrature.annulus_nodes.s", "s", "lower"),
    ("quadrature.max_rule_nodes", "count", "lower"),
    ("quadrature.over_budget", "count", "lower"),
    ("quadrature.integrate_box.calls", "count", "lower"),
    ("quadrature.integrate_box.s", "s", "lower"),
    ("quadrature.box_points", "count", "lower"),
    ("functions.points", "count", "lower"),
    ("functions.s", "s", "lower"),
    ("weights.ball_mass_many.calls", "count", "lower"),
    ("weights.radii", "count", "lower"),
    ("weights.ball_mass_many.s", "s", "lower"),
    ("weights.estimate_a1.s", "s", "lower"),
    ("operators.riesz_potential.calls", "count", "lower"),
    ("operators.riesz_potential.s", "s", "lower"),
    ("operators.potential_Tw.calls", "count", "lower"),
    ("operators.potential_Tw.s", "s", "lower"),
    ("operators.rough_maximal.calls", "count", "lower"),
    ("operators.rough_maximal.s", "s", "lower"),
    ("operators.maximal_Mwc.calls", "count", "lower"),
    ("operators.maximal_Mwc.s", "s", "lower"),
    ("operators.frac_field.builds", "count", "lower"),
    ("operators.frac_field.build_s", "s", "lower"),
    ("operators.frac_field.points", "count", "lower"),
    ("operators.frac_field.values_s", "s", "lower"),
    ("norms.lp_norm.s", "s", "lower"),
    ("norms.lorentz_norm.s", "s", "lower"),
    ("norms.sphere_lorentz_weak.s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("cli.load_config.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.pool_overlap", "ratio", "higher"),
)

# metric -> span names whose outermost spans it times
_TIMES = {
    "quadrature.integrate_annular.s": ("quadrature.integrate_annular",),
    "quadrature.annulus_nodes.s": ("quadrature.annulus_nodes",),
    "quadrature.integrate_box.s": ("quadrature.integrate_box",),
    "functions.s": ("functions.values", "functions.gradient"),
    "weights.ball_mass_many.s": ("weights.ball_mass_many",),
    "weights.estimate_a1.s": ("weights.estimate_a1",),
    "operators.riesz_potential.s": ("operators.riesz_potential",),
    "operators.potential_Tw.s": ("operators.potential_Tw",),
    "operators.rough_maximal.s": ("operators.rough_maximal",),
    "operators.maximal_Mwc.s": ("operators.maximal_Mwc",),
    "operators.frac_field.build_s": ("operators.frac_field.build",),
    "operators.frac_field.values_s": ("operators.frac_field.values",),
    "norms.lp_norm.s": ("norms.lp_norm",),
    "norms.lorentz_norm.s": ("norms.lorentz_norm",),
    "norms.sphere_lorentz_weak.s": ("norms.sphere_lorentz_weak",),
    "cli.load_config.s": ("cli.load_config",),
}

# metric -> span name whose calls it counts
_CALLS = {
    "quadrature.integrate_annular.calls": "quadrature.integrate_annular",
    "quadrature.integrate_box.calls": "quadrature.integrate_box",
    "weights.ball_mass_many.calls": "weights.ball_mass_many",
    "operators.riesz_potential.calls": "operators.riesz_potential",
    "operators.potential_Tw.calls": "operators.potential_Tw",
    "operators.rough_maximal.calls": "operators.rough_maximal",
    "operators.maximal_Mwc.calls": "operators.maximal_Mwc",
    "operators.frac_field.builds": "operators.frac_field.build",
}

# metric -> (span names, count key) it sums
_SUMS = {
    "quadrature.evaluations": (("quadrature.integrate_annular",), "evaluations"),
    "quadrature.shells": (("quadrature.integrate_annular",), "shells"),
    "quadrature.over_budget": (("quadrature.integrate_annular",), "over_budget"),
    "quadrature.nodes": (("quadrature.annulus_nodes",), "nodes"),
    "quadrature.box_points": (("quadrature.integrate_box",), "box_points"),
    "functions.points": (("functions.values", "functions.gradient"), "points"),
    "weights.radii": (("weights.ball_mass_many",), "radii"),
    "operators.frac_field.points": (("operators.frac_field.values",), "points"),
}

CHECK_SPAN = "verify.check"
RUN_SPAN = "cli.run_command"


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    thread: int
    request: int
    round: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread.  A span opened on a thread with no
    open span of its own takes the current root (the request, or the
    `subrep run` command whose thread pool runs the checks) as its parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.origin = time.perf_counter()
        self.request = 0
        self.round = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[int] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._stack()
        parent = stack[-1].id if stack else self._root
        s = Span(next(self._ids), name, time.perf_counter(), parent,
                 threading.get_ident(), self.request, self.round)
        stack.append(s)
        saved_root = self._root
        if root:
            self._root = s.id
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            if root:
                self._root = saved_root
            self.spans.append(s)

    def write(self, path) -> None:
        rows = [
            [s.id, s.name, s.start - self.origin, s.end - self.origin, s.parent,
             s.thread, s.request, s.round, s.counts]
            for s in sorted(self.spans, key=lambda s: s.id)
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent", "thread",
                                   "request", "round", "counts"], "spans": rows}, fh)


def _rows(arg) -> int:
    shape = np.shape(arg)
    return shape[0] if len(shape) == 2 else 1


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None, root=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, root=root) as s:
            if before is not None:
                args = before(s, args)
            out = fn(*args, **kwargs)
            if after is not None:
                after(s, args, kwargs, out)
            return out

    return wrapper


def _annular_counts(s, args, kwargs, res) -> None:
    scheme = args[3] if len(args) > 3 else kwargs["scheme"]
    s.counts["evaluations"] = res.evaluations
    s.counts["shells"] = res.shells
    s.counts["over_budget"] = int(res.error > scheme.rel_tol * abs(res.value) + scheme.abs_floor)


def _node_counts(s, args, kwargs, out) -> None:
    s.counts["nodes"] = len(out[1])


def _count_box_points(s, args):
    fn = args[0]
    s.counts["box_points"] = 0

    def counted(pts):
        s.counts["box_points"] += len(pts)
        return fn(pts)

    return (counted,) + tuple(args[1:])


def _count_rows(s, args):
    s.counts["points"] = _rows(args[1])
    return args


def _count_radii(s, args):
    s.counts["radii"] = int(np.atleast_1d(np.asarray(args[2])).size)
    return args


def install(tracer: Tracer) -> None:
    """Wrap subrep's public functions on every module that binds them."""
    from subrep import cli, functions, norms, operators, quadrature, verify, weights

    def patch(modules, attr, name, **hooks):
        original = getattr(modules[0], attr)
        for m in modules[1:]:
            if getattr(m, attr) is not original:
                raise RuntimeError(f"{m.__name__}.{attr} is not {modules[0].__name__}.{attr}")
        wrapped = _wrap(tracer, name, original, **hooks)
        for m in modules:
            setattr(m, attr, wrapped)

    patch([quadrature, operators, weights, verify], "integrate_annular",
          "quadrature.integrate_annular", after=_annular_counts)
    patch([quadrature, functions, norms, verify], "integrate_box",
          "quadrature.integrate_box", before=_count_box_points)
    patch([quadrature, operators], "annulus_nodes", "quadrature.annulus_nodes", after=_node_counts)
    patch([functions.TestFunction], "values", "functions.values", before=_count_rows)
    patch([functions.TestFunction], "gradient", "functions.gradient", before=_count_rows)
    patch([weights.Weight], "ball_mass_many", "weights.ball_mass_many", before=_count_radii)
    patch([weights, verify], "estimate_a1", "weights.estimate_a1")
    for op in ("riesz_potential", "potential_Tw", "rough_maximal", "maximal_Mwc"):
        patch([operators, verify, cli], op, f"operators.{op}")
    patch([operators.FracDerivativeField], "__init__", "operators.frac_field.build")
    patch([operators.FracDerivativeField], "values", "operators.frac_field.values",
          before=_count_rows)
    for fn in ("lp_norm", "lorentz_norm"):
        patch([norms, verify, cli], fn, f"norms.{fn}")
    patch([norms, verify], "sphere_lorentz_weak", "norms.sphere_lorentz_weak")
    for attr in dir(verify):
        if attr.startswith("check_"):
            patch([verify], attr, CHECK_SPAN)
    patch([cli], "load_config", "cli.load_config")
    patch([cli], "run_command", RUN_SPAN, root=True)


# -- metrics ---------------------------------------------------------------------


def _outermost_time(spans, names, by_id) -> float:
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            total += s.duration
    return total


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics over every span the tracer holds."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for metric, names in _TIMES.items():
        out[metric] = _outermost_time(spans, names, by_id)
    for metric, name in _CALLS.items():
        out[metric] = sum(1 for s in spans if s.name == name)
    for metric, (names, key) in _SUMS.items():
        out[metric] = sum(s.counts.get(key, 0) for s in spans if s.name in names)
    shells = out["quadrature.shells"]
    out["quadrature.evals_per_shell"] = out["quadrature.evaluations"] / shells if shells else 0.0
    out["quadrature.max_rule_nodes"] = max(
        (s.counts["nodes"] for s in spans if s.name == "quadrature.annulus_nodes"), default=0
    )
    out["verify.self_s"] = sum(
        s.duration - sum(c.duration for c in children.get(s.id, ()))
        for s in spans if s.name == CHECK_SPAN
    )
    run_time = cli_self = check_time = 0.0
    for s in spans:
        if s.name != RUN_SPAN:
            continue
        checks = [c for c in children.get(s.id, ()) if c.name == CHECK_SPAN]
        run_time += s.duration
        check_time += sum(c.duration for c in checks)
        cli_self += s.duration - _union_length([(c.start, c.end) for c in checks])
    out["cli.self_s"] = cli_self
    out["cli.pool_overlap"] = check_time / run_time if run_time else 0.0
    return {name: {"value": out[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
