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
from dataclasses import dataclass, field
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

_JOB_TYPES = ("solve", "residual", "holder", "l2", "scaling", "theta-crosscheck")

_QUAD_DEFAULTS = {
    "rel_tol": 1e-8,
    "abs_tol": 1e-11,
    "max_refinement_depth": 14,
    "singular_exclusion": None,
    "max_panels": 24000,
}

_JOB_KEYS = {
    "solve": {"type", "points"},
    "residual": {"type", "anchors", "samples", "fd_step", "operator"},
    "holder": {"type", "theta", "radius", "pairs", "scales"},
    "l2": {"type", "radius", "samples"},
    "scaling": {"type", "radii", "samples", "integrand"},
    "theta-crosscheck": {"type", "points"},
}


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


def _parse_terms(obj, n: int, path: str) -> list:
    if not isinstance(obj, list) or not obj:
        _fail(path, "expected a non-empty list of terms")
    terms = []
    for i, term in enumerate(obj):
        tp = f"{path}[{i}]"
        _require_keys(term, {"exponents", "re", "im"}, tp)
        exps = term.get("exponents")
        if not isinstance(exps, list) or len(exps) != n:
            _fail(f"{tp}.exponents", f"expected a list of {n} integers")
        exps = [_number(e, f"{tp}.exponents[{j}]", minimum=0, integer=True) for j, e in enumerate(exps)]
        re = _number(term.get("re", 0.0), f"{tp}.re")
        im = _number(term.get("im", 0.0), f"{tp}.im")
        terms.append((tuple(exps), complex(re, im)))
    return terms


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
        terms = _parse_terms(spec, n, f"{path}.polynomials[{i}]")
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


def _parse_form(obj, n: int, path: str):
    _require_keys(obj, {"builtin", "h", "r0", "radius"}, path)
    name = obj.get("builtin")
    if name not in FORM_BUILTINS:
        _fail(f"{path}.builtin", f"unknown builtin {name!r}; available: {FORM_BUILTINS}")
    radius = _number(obj.get("radius", 1.0), f"{path}.radius", minimum=1e-12)
    r0 = _number(obj.get("r0", 0.3), f"{path}.r0", minimum=0.0)
    spec = {"builtin": name, "radius": radius}
    kwargs: dict[str, Any] = {"radius": radius}
    if name in ("bump-dbar", "raw-bump"):
        if r0 <= 0:
            _fail(f"{path}.r0", "must be > 0")
        if r0 >= radius:
            _fail(f"{path}.r0", "must be smaller than radius")
        kwargs["r0"] = r0
        spec["r0"] = r0
    if name == "bump-dbar" and "h" in obj and obj["h"] is not None:
        terms = _parse_terms(obj["h"], n, f"{path}.h")
        kwargs["h_terms"] = terms
        spec["h"] = [
            {"exponents": list(e), "re": c.real, "im": c.imag} for e, c in terms
        ]
    elif "h" in obj and obj["h"] is not None:
        _fail(f"{path}.h", f"only the bump-dbar builtin accepts an h polynomial")
    form = make_form(name, n, **kwargs)
    return spec, form


def _parse_job(obj, n: int, path: str) -> dict:
    if not isinstance(obj, dict) or "type" not in obj:
        _fail(path, "expected an object with a 'type' key")
    jt = obj["type"]
    if jt not in _JOB_TYPES:
        _fail(f"{path}.type", f"unknown job type {jt!r}; available: {_JOB_TYPES}")
    _require_keys(obj, _JOB_KEYS[jt], path)
    out = {"type": jt}
    if jt == "solve":
        pts = obj.get("points")
        if not isinstance(pts, list) or not pts:
            _fail(f"{path}.points", "expected a non-empty list of points")
        norm_pts = []
        for i, pt in enumerate(pts):
            if not isinstance(pt, list) or len(pt) != n:
                _fail(f"{path}.points[{i}]", f"expected {n} coordinates")
            coords = []
            for j, c in enumerate(pt):
                _require_keys(c, {"re", "im"}, f"{path}.points[{i}][{j}]")
                coords.append(
                    {
                        "re": _number(c.get("re", 0.0), f"{path}.points[{i}][{j}].re"),
                        "im": _number(c.get("im", 0.0), f"{path}.points[{i}][{j}].im"),
                    }
                )
            norm_pts.append(coords)
        out["points"] = norm_pts
    elif jt == "residual":
        out["anchors"] = _number(obj.get("anchors", 3), f"{path}.anchors", minimum=1, integer=True)
        out["samples"] = _number(obj.get("samples", 20), f"{path}.samples", minimum=1, integer=True)
        out["fd_step"] = _number(obj.get("fd_step", 1e-4), f"{path}.fd_step", minimum=1e-10)
        op = obj.get("operator", "main")
        if op not in ("main", "l2"):
            _fail(f"{path}.operator", "must be 'main' or 'l2'")
        out["operator"] = op
    elif jt == "holder":
        out["theta"] = _number(obj.get("theta", 0.5), f"{path}.theta", minimum=1e-6, maximum=1 - 1e-6)
        out["radius"] = _number(obj.get("radius", 1.0), f"{path}.radius", minimum=1e-12)
        out["pairs"] = _number(obj.get("pairs", 24), f"{path}.pairs", minimum=1, integer=True)
        scales = obj.get("scales", [1.0, 0.1, 0.01])
        if not isinstance(scales, list) or not scales:
            _fail(f"{path}.scales", "expected a non-empty list of scale factors")
        out["scales"] = [_number(s, f"{path}.scales[{i}]", minimum=1e-12) for i, s in enumerate(scales)]
    elif jt == "l2":
        out["radius"] = _number(obj.get("radius", 1.0), f"{path}.radius", minimum=1e-12)
        out["samples"] = _number(obj.get("samples", 1000), f"{path}.samples", minimum=16, integer=True)
    elif jt == "scaling":
        radii = obj.get("radii", [0.5, 1.0, 2.0])
        if not isinstance(radii, list) or len(radii) < 2:
            _fail(f"{path}.radii", "expected a list of at least 2 radii")
        out["radii"] = [_number(r, f"{path}.radii[{i}]", minimum=1e-12) for i, r in enumerate(radii)]
        if len(set(out["radii"])) < len(out["radii"]):
            _fail(f"{path}.radii", "radii must be pairwise distinct")
        out["samples"] = _number(obj.get("samples", 20000), f"{path}.samples", minimum=100, integer=True)
        integrand = obj.get("integrand", "norm2")
        if integrand not in ("norm2", "one"):
            _fail(f"{path}.integrand", "must be 'norm2' or 'one'")
        out["integrand"] = integrand
    elif jt == "theta-crosscheck":
        out["points"] = _number(obj.get("points", 10), f"{path}.points", minimum=1, integer=True)
    return out


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
    quad = dict(_QUAD_DEFAULTS)
    if "quadrature" in raw:
        _require_keys(raw["quadrature"], set(_QUAD_DEFAULTS), "quadrature")
        for k, v in raw["quadrature"].items():
            if k == "singular_exclusion":
                quad[k] = None if v is None else _number(v, f"quadrature.{k}", minimum=0.0)
            elif k in ("max_refinement_depth", "max_panels"):
                quad[k] = _number(v, f"quadrature.{k}", minimum=1, integer=True)
            else:
                quad[k] = _number(v, f"quadrature.{k}", minimum=0.0)
    try:
        params = QuadratureParams(**quad)
    except ValueError as exc:
        _fail("quadrature", str(exc))
    mc = {"anchors": 24}
    if "monte_carlo" in raw:
        _require_keys(raw["monte_carlo"], {"anchors"}, "monte_carlo")
        if "anchors" in raw["monte_carlo"]:
            mc["anchors"] = _number(raw["monte_carlo"]["anchors"], "monte_carlo.anchors", minimum=1, integer=True)
    seed = _number(raw.get("seed", 0), "seed", minimum=0, integer=True)
    output = {"path": None, "format": "json"}
    if "output" in raw:
        _require_keys(raw["output"], {"path", "format"}, "output")
        if "path" in raw["output"]:
            if raw["output"]["path"] is not None and not isinstance(raw["output"]["path"], str):
                _fail("output.path", "expected a string")
            output["path"] = raw["output"]["path"]
        if "format" in raw["output"]:
            if raw["output"]["format"] not in ("json", "csv"):
                _fail("output.format", "must be 'json' or 'csv'")
            output["format"] = raw["output"]["format"]
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


def _run_job(config: RunConfig, seed: int):
    variety, form, params = config.variety, config.form, config.params
    job = config.job
    jt = job["type"]
    table: list[dict] = []
    results: dict[str, Any] = {}
    if jt == "solve":
        for row in job["points"]:
            z = np.array([complex(c["re"], c["im"]) for c in row])
            res = solve(variety, form, z, params)
            table.append(
                {
                    **_point_cols("z", z),
                    "value_re": res.value.real,
                    "value_im": res.value.imag,
                    "quadrature_error": res.quadrature_error,
                    "truncation_radius": res.truncation_radius_used,
                }
            )
        results["n_points"] = len(table)
    elif jt == "residual":
        anchors = sample_link(variety, job["anchors"], seed).points
        per = max(1, job["samples"] // job["anchors"])
        op = job["operator"]
        if op == "l2":
            handle = lambda z: solve_l2(variety, form, z, params).value  # noqa: E731
        else:
            handle = lambda z: solve(variety, form, z, params).value  # noqa: E731
        all_vals = []
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
        results["operator"] = op
        results["max_residual"] = float(np.max(all_vals))
        results["median_residual"] = float(np.median(all_vals))
        results["fd_step"] = job["fd_step"]
    elif jt == "holder":
        rep = holder_report(
            variety, form, job["theta"], job["radius"], job["pairs"], seed,
            params=params, scale_factors=tuple(job["scales"]),
        )
        for p in rep.pairs:
            table.append(
                {
                    **_point_cols("z", p.z),
                    **_point_cols("w", p.w),
                    "kind": p.kind,
                    "scale": p.scale,
                    "dist_upper": p.dist_upper,
                    "dist_chord": p.dist_chord,
                    "delta_g": p.delta_g,
                    "ratio_upper": p.ratio_upper,
                    "ratio_chord": p.ratio_chord,
                }
            )
        results["theta"] = rep.theta
        results["empirical_constant"] = rep.empirical_constant
        results["sup_bound"] = rep.sup_bound
        results["n_pairs"] = len(rep.pairs)
    elif jt == "l2":
        rep = l2_report(variety, form, job["radius"], job["samples"], seed,
                        params=params, n_anchors=config.monte_carlo["anchors"])
        results.update(
            {
                "g_norm": rep.g_norm,
                "g_std_error": rep.g_std_error,
                "lambda_norm": rep.lambda_norm,
                "lambda_std_error": rep.lambda_std_error,
                "ratio": None if math.isnan(rep.ratio) else rep.ratio,
                "ratio_std_error": None if math.isnan(rep.ratio_std_error) else rep.ratio_std_error,
                "degenerate": rep.degenerate,
                "newton_failures": rep.newton_failures,
                "coverage_gaps": rep.coverage_gaps,
            }
        )
        table.append({k: v for k, v in results.items() if v is not None})
    elif jt == "scaling":
        rep = measure_scaling_check(
            variety, job["radii"], job["samples"], seed,
            integrand=job["integrand"], n_anchors=config.monte_carlo["anchors"],
        )
        for row in rep.rows:
            table.append(
                {"radius": row.radius, "value": row.value, "std_error": row.std_error,
                 "newton_failures": row.newton_failures, "coverage_gaps": row.coverage_gaps}
            )
        results["integrand"] = rep.integrand
        results["exponent"] = rep.exponent
        results["exponent_std_error"] = rep.exponent_std_error
        results["expected_exponent"] = rep.expected_exponent
    elif jt == "theta-crosscheck":
        cone = theta_cone(variety)
        link = sample_link(cone, job["points"], seed)
        rng = np.random.default_rng(seed + 7)
        radius = 0.45 * form.support_radius
        worst = 0.0
        for i in range(job["points"]):
            z = link.points[i] / np.linalg.norm(link.points[i])
            z = z * radius * (0.3 + 0.7 * rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
            x = theta_map(variety.weights, z)
            rep = solve_weighted_via_cone(variety, form, x, params, cone_point=z)
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
        results["worst_rel_diff"] = worst
        results["n_points"] = len(table)
    return results, table


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
