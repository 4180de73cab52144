"""Outside-in span tracer for the dbarcone package.

The package's modules import each other's functions by name
(`from .variety import project_batch`), so wrapping a function in its home
module alone misses most calls.  `Tracer.install` therefore replaces every
module attribute in `dbarcone.*` that is the wrapped function, and wraps
methods on their class, which every caller reaches through the instance.
Nothing under `src/` changes; `uninstall` restores the originals.

A span's self time is its duration minus the time covered by its child
spans.  Spans nest re-entrantly (`coeff_matrix` inside `coeff_matrix` via
pulled-back forms, `SparsePolynomial.eval` inside both), so self times sum
to the traced wall time instead of double counting.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np


LAYERS = ("variety", "forms", "quadrature", "solver", "charts", "measure", "verify")


def _rows(arg) -> int:
    """Leading dimension of a point batch; a single point counts as 1."""
    shape = getattr(arg, "shape", None)
    if shape is None:
        shape = np.shape(arg)
    return int(shape[0]) if len(shape) >= 2 else 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {}
        self.errors: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []  # frames: [span index, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.op = -1  # index of the benchmark op the spans belong to
        # span log, kept in memory and written once at exit
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def active(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.span_name[f[0]] == nid for f in self._stack)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, rows_arg: int | None = None, rows_key: str | None = None,
             before=None, after=None):
        """Span `name` around `fn`.  `rows_arg` is the position of the
        argument whose leading dimension is added to the counter `rows_key`;
        `before` may rewrite the arguments, `after` sees the result."""
        nid = self._id(name)
        tr = self
        if rows_arg is not None:
            rows_name = list(inspect.signature(fn).parameters)[rows_arg]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rows_arg is not None:
                arg = args[rows_arg] if len(args) > rows_arg else kwargs[rows_name]
                tr.count(rows_key, _rows(arg))
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = tr._stack
            parent = stack[-1] if stack else None
            idx = len(tr.span_name)
            tr.span_name.append(nid)
            tr.span_parent.append(parent[0] if parent is not None else -1)
            tr.span_op.append(tr.op)
            tr.span_start.append(0.0)
            tr.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                key = (name, type(exc).__name__)
                tr.errors[key] = tr.errors.get(key, 0) + 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tr.self_s[nid] += dur - frame[1]
                tr.calls[nid] += 1
                if parent is not None:
                    parent[1] += dur
                tr.span_start[idx] = t0
                tr.span_end[idx] = t1
            if after is not None:
                after(result)
            return result

        return wrapper

    def patch_function(self, module, attr: str, name: str, **kw):
        """Wrap `module.attr` in every dbarcone module that holds it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dbarcone" or mod_name.startswith("dbarcone.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, val))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, **kw):
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **kw))

    def install(self):
        from dbarcone import charts, forms, measure, quadrature, solver, verify, variety

        p = self.patch_method
        f = self.patch_function
        # variety
        p(variety.SparsePolynomial, "eval", "variety.poly_eval", rows_arg=1,
          rows_key="variety.poly_eval_rows")
        p(variety.Variety, "residuals", "variety.residuals")
        p(variety.Variety, "jacobian", "variety.jacobian", rows_arg=1,
          rows_key="variety.jacobian_rows")
        f(variety, "project_batch", "variety.project_batch", rows_arg=1,
          rows_key="variety.project_batch_rows")
        # forms
        p(forms.ZeroOneForm, "coeff_matrix", "forms.coeff_matrix", rows_arg=1,
          rows_key="forms.coeff_rows")
        # quadrature: count the points of the integrand handed in, and time
        # the kernel itself as solver work (it is assembled by the solver)
        kernel = self.wrap("solver.kernel", lambda K, w: K(w))

        plane = inspect.signature(quadrature.integrate_plane)

        def count_points(args, kwargs):
            bound = plane.bind(*args, **kwargs)
            integrand = bound.arguments["integrand"]

            def evaluate(w):
                self.count("quadrature.integrand_points", int(np.size(w)))
                return kernel(integrand.evaluate, w)

            bound.arguments["integrand"] = dataclasses.replace(integrand, evaluate=evaluate)
            return bound.args, bound.kwargs

        f(quadrature, "integrate_plane", "quadrature.integrate", before=count_points)
        # solver
        f(solver, "solve", "solver.solve", before=self._note_residual_solve)
        f(solver, "solve_l2", "solver.solve_l2", before=self._note_residual_solve)
        # charts
        f(charts, "build_chart", "charts.build_chart")
        p(charts.Chart, "slice_batch", "charts.slice_batch", rows_arg=1,
          rows_key="charts.slice_rows")
        p(charts.Chart, "eval", "charts.eval")
        p(charts.Chart, "pullback_form", "charts.pullback_form")
        # measure
        p(measure.ConeAtlas, "__init__", "measure.atlas_build")
        p(measure.ConeAtlas, "assign", "measure.assign", rows_arg=1,
          rows_key="measure.assign_points")
        p(measure.ConeAtlas, "covers", "measure.covers")
        f(measure, "sample_link", "measure.sample_link")
        for attr in ("surface_integral", "l2_norm_form", "l2_norm_function"):
            f(measure, attr, "measure.estimate")
        # verify
        f(verify, "dbar_residual", "verify.residual",
          after=lambda rep: self.count("verify.samples", len(rep.samples)))
        if self.missing:
            print(f"trace: entry points not found: {', '.join(self.missing)}", file=sys.stderr)

    def _note_residual_solve(self, args, kwargs):
        if self.active("verify.residual"):
            self.count("verify.residual_solves")
        return args, kwargs

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.self_s[nid] if nid is not None else 0.0

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in zip(self.names, self.self_s):
            layer = name.split(".", 1)[0]
            out[layer] += s
        return out

    def write_spans(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
