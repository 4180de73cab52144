"""Configuration-driven command-line front end.

Subcommands:
    dbar-cone run <config.json> [--reproducible] [--out PATH]
                  [--format json|csv] [--seed N]
    dbar-cone check <config.json>
    dbar-cone fixtures

Configs are strict JSON (unknown keys rejected); reports are JSON with a
flat per-sample table that can also be projected to CSV.  Identical config
plus seed produce byte-identical reports under --reproducible (which
suppresses the timestamp field)."""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import Any, Optional

import numpy as np

from . import __version__
from .errors import DbarConeError, ParseError, ValidationError
from .fixtures import FORM_BUILTINS, VARIETY_FIXTURES, make_form, make_variety
from .forms import ZeroOneForm
from .measure import sample_link
from .quadrature import QuadratureParams
from .solver import (
    solve,
    solve_l2,
    solve_weighted_via_cone,
    theta_cone,
    theta_map,
)
from .variety import SparsePolynomial, Variety, Weights, weighted_degree
from .verify import dbar_residual, holder_report, l2_report, measure_scaling_check


@dataclass(frozen=True)
class RunConfig:
    variety_spec: Any  # fixture name or normalized dict
    form_spec: dict
    job: dict
    quadrature: dict
    monte_carlo: dict
    seed: int
    output: dict
    # built from the specs above while parsing; left out of == and to_dict
    variety: Variety = field(compare=False, repr=False)
    form: ZeroOneForm = field(compare=False, repr=False)
    params: QuadratureParams = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "variety": self.variety_spec,
            "form": self.form_spec,
            "job": self.job,
            "quadrature": self.quadrature,
            "monte_carlo": self.monte_carlo,
            "seed": self.seed,
            "output": self.output,
        }


def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


def _require_keys(obj: dict, allowed: set, path: str):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _number(obj, path, minimum=None, integer=False, maximum=None):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, "expected a number")
    if isinstance(obj, float) and not math.isfinite(obj):
        _fail(path, "must be finite")
    if integer and int(obj) != obj:
        _fail(path, "expected an integer")
    if minimum is not None and obj < minimum:
        _fail(path, f"must be >= {minimum}")
    if maximum is not None and obj > maximum:
        _fail(path, f"must be <= {maximum}")
    return int(obj) if integer else float(obj)


def _section(obj, table: dict, path: str, n: int) -> dict:
    """Parse a config object against its field table {key: (default,
    parser)}: unknown keys are rejected and absent keys take their default.
    Each parser takes (value, path, n), with n the ambient dimension, and
    returns the normalized value or raises ValidationError naming `path`;
    the values are parsed in table order."""
    _require_keys(obj, set(table), path)
    return {
        key: parse(obj.get(key, default), f"{path}.{key}", n)
        for key, (default, parse) in table.items()
    }


# the job's type and the form's builtin pick the table, so they are checked first
_TAG = (None, lambda v, path, n: v)


def _count(minimum):
    return lambda v, path, n: _number(v, path, minimum=minimum, integer=True)


def _real(minimum=None, maximum=None):
    return lambda v, path, n: _number(v, path, minimum=minimum, maximum=maximum)


def _choice(*options):
    def parse(v, path, n):
        if v not in options:
            _fail(path, "must be " + " or ".join(map(repr, options)))
        return v
    return parse


def _optional(parse):
    return lambda v, path, n: None if v is None else parse(v, path, n)


def _string(v, path, n):
    if not isinstance(v, str):
        _fail(path, "expected a string")
    return v


def _reals(min_len: int, message: str):
    def parse(v, path, n):
        if not isinstance(v, list) or len(v) < min_len:
            _fail(path, message)
        return [_number(x, f"{path}[{i}]", minimum=1e-12) for i, x in enumerate(v)]
    return parse


def _radii(v, path, n):
    radii = _reals(2, "expected a list of at least 2 radii")(v, path, n)
    if len(set(radii)) < len(radii):
        _fail(path, "radii must be pairwise distinct")
    return radii


_COMPLEX = {"re": (0.0, _real()), "im": (0.0, _real())}


def _points(v, path, n):
    if not isinstance(v, list) or not v:
        _fail(path, "expected a non-empty list of points")
    points = []
    for i, pt in enumerate(v):
        if not isinstance(pt, list) or len(pt) != n:
            _fail(f"{path}[{i}]", f"expected {n} coordinates")
        points.append([_section(c, _COMPLEX, f"{path}[{i}][{j}]", n) for j, c in enumerate(pt)])
    return points


def _exponents(v, path, n):
    if not isinstance(v, list) or len(v) != n:
        _fail(path, f"expected a list of {n} integers")
    return tuple(_number(e, f"{path}[{j}]", minimum=0, integer=True) for j, e in enumerate(v))


_TERM = {"exponents": (None, _exponents), **_COMPLEX}


def _parse_terms(obj, path: str, n: int) -> list:
    if not isinstance(obj, list) or not obj:
        _fail(path, "expected a non-empty list of terms")
    terms = [_section(term, _TERM, f"{path}[{i}]", n) for i, term in enumerate(obj)]
    return [(t["exponents"], complex(t["re"], t["im"])) for t in terms]


def _parse_variety(obj, path: str):
    if isinstance(obj, str):
        if obj not in VARIETY_FIXTURES:
            _fail(path, f"unknown fixture {obj!r}; available: {sorted(VARIETY_FIXTURES)}")
        return obj, make_variety(obj)
    _require_keys(obj, {"weights", "polynomials", "pure_dim", "ambient_dim"}, path)
    weights = obj.get("weights")
    if not isinstance(weights, list) or len(weights) < 2:
        _fail(f"{path}.weights", "expected a list of at least 2 positive integers")
    weights = [_number(b, f"{path}.weights[{i}]", minimum=1, integer=True) for i, b in enumerate(weights)]
    n = len(weights)
    if "ambient_dim" in obj and obj["ambient_dim"] != n:
        _fail(f"{path}.ambient_dim", f"does not match weights length {n}")
    pure_dim = obj.get("pure_dim")
    if pure_dim is not None:
        pure_dim = _number(pure_dim, f"{path}.pure_dim", minimum=1, integer=True, maximum=n - 1)
    polys_spec = obj.get("polynomials")
    if not isinstance(polys_spec, list) or not polys_spec:
        _fail(f"{path}.polynomials", "expected a non-empty list of term lists")
    polys = []
    w = Weights(tuple(weights))
    for i, spec in enumerate(polys_spec):
        terms = _parse_terms(spec, f"{path}.polynomials[{i}]", n)
        poly = SparsePolynomial.from_terms(n, terms)
        try:
            weighted_degree(poly, w)
        except DbarConeError as exc:
            _fail(f"{path}.polynomials[{i}]", f"not weighted homogeneous: {exc}")
        polys.append(poly)
    try:
        variety = Variety.build(w, polys, pure_dim=pure_dim)
    except (DbarConeError, ValueError) as exc:
        _fail(path, str(exc))
    normalized = {
        "weights": weights,
        "pure_dim": pure_dim,
        "polynomials": [
            [
                {"exponents": list(e), "re": c.real, "im": c.imag}
                for e, c in poly.terms
            ]
            for poly in polys
        ],
    }
    return normalized, variety


_RADIUS = (1.0, _real(1e-12, 1e150))  # radius**2 stays finite
_FORMS = {
    "zero": {"radius": _RADIUS},
    "bump-dbar": {"radius": _RADIUS, "r0": (0.3, _real(0.0)), "h": (None, _optional(_parse_terms))},
    "raw-bump": {"radius": _RADIUS, "r0": (0.3, _real(0.0))},
}


def _parse_form(obj, n: int, path: str):
    _require_keys(obj, {"builtin"}.union(*_FORMS.values()), path)  # keys no builtin takes
    name = obj.get("builtin")
    if name not in FORM_BUILTINS:
        _fail(f"{path}.builtin", f"unknown builtin {name!r}; available: {FORM_BUILTINS}")
    spec = _section(obj, {"builtin": _TAG, **_FORMS[name]}, path, n)
    if "r0" in spec and spec["r0"] <= 0:
        _fail(f"{path}.r0", "must be > 0")
    if "r0" in spec and spec["r0"] >= spec["radius"]:
        _fail(f"{path}.r0", "must be smaller than radius")
    terms = spec.pop("h", None)
    form = make_form(name, n, h_terms=terms, **{k: v for k, v in spec.items() if k != "builtin"})
    if terms is not None:
        spec["h"] = [{"exponents": list(e), "re": c.real, "im": c.imag} for e, c in terms]
    return spec, form


def _parse_job(obj, n: int, path: str) -> dict:
    if not isinstance(obj, dict) or "type" not in obj:
        _fail(path, "expected an object with a 'type' key")
    types = tuple(_JOBS)
    if obj["type"] not in types:
        _fail(f"{path}.type", f"unknown job type {obj['type']!r}; available: {types}")
    return _section(obj, {"type": _TAG, **_JOBS[obj["type"]][0]}, path, n)


_QUADRATURE = {
    "rel_tol": (1e-8, _real(0.0)),
    "abs_tol": (1e-11, _real(0.0)),
    "max_refinement_depth": (14, _count(1)),
    "singular_exclusion": (None, _optional(_real(0.0))),
    "max_panels": (24000, _count(1)),
}
_MONTE_CARLO = {"anchors": (24, _count(1))}
_OUTPUT = {"path": (None, _optional(_string)), "format": ("json", _choice("json", "csv"))}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; raises ParseError with the line and
    column on malformed JSON and ValidationError naming the offending key on
    contract violations."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    _require_keys(
        raw,
        {"variety", "form", "job", "quadrature", "monte_carlo", "seed", "output"},
        "config",
    )
    for key in ("variety", "form", "job"):
        if key not in raw:
            _fail("config", f"missing required key {key!r}")
    variety_spec, variety = _parse_variety(raw["variety"], "variety")
    n = variety.ambient_dim
    form_spec, form = _parse_form(raw["form"], n, "form")
    job = _parse_job(raw["job"], n, "job")
    quad = _section(raw.get("quadrature", {}), _QUADRATURE, "quadrature", n)
    try:
        params = QuadratureParams(**quad)
    except ValueError as exc:
        _fail("quadrature", str(exc))
    mc = _section(raw.get("monte_carlo", {}), _MONTE_CARLO, "monte_carlo", n)
    seed = _number(raw.get("seed", 0), "seed", minimum=0, integer=True)
    output = _section(raw.get("output", {}), _OUTPUT, "output", n)
    return RunConfig(
        variety_spec=variety_spec,
        form_spec=form_spec,
        job=job,
        quadrature=quad,
        monte_carlo=mc,
        seed=seed,
        output=output,
        variety=variety,
        form=form,
        params=params,
    )


# ---------------------------------------------------------------------------
# job execution


def _point_cols(prefix: str, z) -> dict:
    out = {}
    for k, c in enumerate(np.asarray(z)):
        out[f"{prefix}{k}_re"] = float(np.real(c))
        out[f"{prefix}{k}_im"] = float(np.imag(c))
    return out


def _fields(report, *skip) -> dict:
    """A report dataclass as a flat dict in field order, less `skip`, NaN as None."""
    row = {f.name: getattr(report, f.name) for f in fields(report) if f.name not in skip}
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}


def _run_solve(config: RunConfig, seed: int):
    table = []
    for row in config.job["points"]:
        z = np.array([complex(c["re"], c["im"]) for c in row])
        res = solve(config.variety, config.form, z, config.params)
        table.append(
            {
                **_point_cols("z", z),
                "value_re": res.value.real,
                "value_im": res.value.imag,
                "quadrature_error": res.quadrature_error,
                "truncation_radius": res.truncation_radius_used,
            }
        )
    return {"n_points": len(table)}, table


def _run_residual(config: RunConfig, seed: int):
    variety, form, params, job = config.variety, config.form, config.params, config.job
    anchors = sample_link(variety, job["anchors"], seed).points
    per = max(1, job["samples"] // job["anchors"])
    op = job["operator"]
    solver = solve_l2 if op == "l2" else solve
    handle = lambda z: solver(variety, form, z, params).value  # noqa: E731
    table, all_vals = [], []
    for i, xi in enumerate(anchors):
        rep = dbar_residual(
            variety, form, handle, xi, per, job["fd_step"],
            rng_seed=seed + 101 * i, check_step=(i == 0),
        )
        for smp in rep.samples:
            row = {
                "anchor": i,
                "s_re": smp.s.real,
                "s_im": smp.s.imag,
                "residual_s": smp.residual_s,
            }
            for j, rx in enumerate(smp.residual_x):
                row[f"residual_x{j}"] = rx
            table.append(row)
        all_vals.extend(rep.all_residuals())
    results = {
        "operator": op,
        "max_residual": float(np.max(all_vals)),
        "median_residual": float(np.median(all_vals)),
        "fd_step": job["fd_step"],
    }
    return results, table


def _run_holder(config: RunConfig, seed: int):
    job = config.job
    rep = holder_report(
        config.variety, config.form, job["theta"], job["radius"], job["pairs"], seed,
        params=config.params, scale_factors=tuple(job["scales"]),
    )
    table = [
        {**_point_cols("z", p.z), **_point_cols("w", p.w), **_fields(p, "z", "w")}
        for p in rep.pairs
    ]
    return {**_fields(rep, "radius", "pairs"), "n_pairs": len(rep.pairs)}, table


def _run_l2(config: RunConfig, seed: int):
    rep = l2_report(config.variety, config.form, config.job["radius"], config.job["samples"],
                    seed, params=config.params, n_anchors=config.monte_carlo["anchors"])
    results = _fields(rep, "radius", "n_samples")
    return results, [{k: v for k, v in results.items() if v is not None}]


def _run_scaling(config: RunConfig, seed: int):
    rep = measure_scaling_check(
        config.variety, config.job["radii"], config.job["samples"], seed,
        integrand=config.job["integrand"], n_anchors=config.monte_carlo["anchors"],
    )
    return _fields(rep, "rows"), [_fields(row) for row in rep.rows]


def _run_theta_crosscheck(config: RunConfig, seed: int):
    variety, form, n_points = config.variety, config.form, config.job["points"]
    cone = theta_cone(variety)
    link = sample_link(cone, n_points, seed)
    rng = np.random.default_rng(seed + 7)
    radius = 0.45 * form.support_radius
    worst = 0.0
    table = []
    for i in range(n_points):
        z = link.points[i] / np.linalg.norm(link.points[i])
        z = z * radius * (0.3 + 0.7 * rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        x = theta_map(variety.weights, z)
        rep = solve_weighted_via_cone(variety, form, x, config.params, cone_point=z)
        diff = abs(rep.direct.value - rep.via_cone.value)
        rel = diff / (1.0 + abs(rep.via_cone.value))
        worst = max(worst, rel)
        table.append(
            {
                **_point_cols("z", z),
                **_point_cols("x", x),
                "h_re": rep.direct.value.real,
                "h_im": rep.direct.value.imag,
                "g_re": rep.via_cone.value.real,
                "g_im": rep.via_cone.value.imag,
                "abs_diff": diff,
                "rel_diff": rel,
            }
        )
    return {"worst_rel_diff": worst, "n_points": len(table)}, table


# job type -> (field table, runner); a runner returns (results, table rows)
_JOBS = {
    "solve": ({"points": (None, _points)}, _run_solve),
    "residual": ({
        "anchors": (3, _count(1)),
        "samples": (20, _count(1)),  # a total: each anchor gets samples // anchors, at least 1
        "fd_step": (1e-4, _real(1e-10)),
        "operator": ("main", _choice("main", "l2")),
    }, _run_residual),
    "holder": ({
        "theta": (0.5, _real(1e-6, 1 - 1e-6)),
        "radius": _RADIUS,
        "pairs": (24, _count(1)),
        "scales": ([1.0, 0.1, 0.01], _reals(1, "expected a non-empty list of scale factors")),
    }, _run_holder),
    "l2": ({"radius": _RADIUS, "samples": (1000, _count(16))}, _run_l2),
    "scaling": ({
        "radii": ([0.5, 1.0, 2.0], _radii),
        "samples": (20000, _count(100)),
        "integrand": ("norm2", _choice("norm2", "one")),
    }, _run_scaling),
    "theta-crosscheck": ({"points": (10, _count(1))}, _run_theta_crosscheck),
}


def _run_job(config: RunConfig, seed: int):
    return _JOBS[config.job["type"]][1](config, seed)


def run(
    config: RunConfig,
    out_path: Optional[str] = None,
    out_format: Optional[str] = None,
    seed_override: Optional[int] = None,
    reproducible: bool = False,
) -> tuple[int, dict]:
    """Execute the configured job; returns (exit_code, report).  Raises
    OSError when the report cannot be written, before the job runs when the
    report's directory is missing or the report path is a directory."""
    seed = config.seed if seed_override is None else seed_override
    fmt = out_format or config.output.get("format") or "json"
    path = out_path or config.output.get("path") or f"report.{fmt}"
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    report: dict[str, Any] = {
        "tool": {"name": "dbar-cone", "version": __version__},
        "config": config.to_dict(),
        "seed": seed,
        "reproducible": reproducible,
    }
    if not reproducible:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    code = 0
    try:
        results, table = _run_job(config, seed)
        report["results"] = results
        report["table"] = table
    except (DbarConeError, ValueError, OverflowError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 2
    _write_report(report, path, fmt)
    return code, report


def _write_report(report: dict, path: str, fmt: str):
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        rows = report.get("table", [])
        cols: list[str] = []
        for row in rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["# " + json.dumps({k: v for k, v in report.items() if k != "table"}, sort_keys=True)])
        writer.writerow(cols)
        for row in rows:
            writer.writerow([row.get(c, "") for c in cols])
        text = buf.getvalue()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dbar-cone",
        description="Solve and verify the dbar-equation on (weighted) homogeneous varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a job described by a JSON config")
    p_run.add_argument("config", help="path to the JSON config")
    p_run.add_argument("--reproducible", action="store_true",
                       help="suppress the timestamp so identical runs are byte-identical")
    p_run.add_argument("--out", default=None, help="report output path")
    p_run.add_argument("--format", choices=("json", "csv"), default=None)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_check = sub.add_parser("check", help="parse and validate a config, then exit")
    p_check.add_argument("config")
    sub.add_parser("fixtures", help="list builtin varieties and forms")
    args = parser.parse_args(argv)

    if args.command == "fixtures":
        for name in sorted(VARIETY_FIXTURES):
            v = VARIETY_FIXTURES[name]()
            print(
                f"{name}: ambient C^{v.ambient_dim}, weights {tuple(v.weights.entries)}, "
                f"degrees {tuple(v.degrees)}, dim {v.pure_dim}"
            )
        print("forms:", ", ".join(FORM_BUILTINS))
        return 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
        if args.command == "run" and args.seed is not None:
            _number(args.seed, "--seed", minimum=0, integer=True)
    except (ParseError, ValidationError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if args.command == "check":
        print("config ok")
        return 0

    try:
        code, report = run(
            config,
            out_path=args.out,
            out_format=args.format,
            seed_override=args.seed,
            reproducible=args.reproducible,
        )
    except OSError as exc:  # jobs read no files, so this is the report write
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    if code != 0:
        err = report.get("error", {})
        print(f"error: {err.get('type')}: {err.get('message')}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
