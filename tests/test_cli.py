import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dbarcone import cli
from dbarcone.cli import main, parse_config, run
from dbarcone.errors import ParseError, ValidationError

MINIMAL = {
    "variety": "line2",
    "form": {"builtin": "zero"},
    "job": {
        "type": "solve",
        "points": [[{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]],
    },
    "seed": 5,
}

CUSTOM_VARIETY = {
    "weights": [1, 1, 1],
    "pure_dim": 2,
    "polynomials": [
        [
            {"exponents": [1, 1, 0], "re": 1.0, "im": 0.0},
            {"exponents": [0, 0, 2], "re": -1.0, "im": 0.0},
        ]
    ],
}

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def test_parse_minimal():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.variety_spec == "line2"
    assert cfg.job["type"] == "solve"
    assert cfg.seed == 5


def test_parse_error_has_line_number():
    with pytest.raises(ParseError) as exc:
        parse_config("{\n  broken\n}")
    assert "line 2" in str(exc.value)


def test_unknown_key_rejected():
    bad = dict(MINIMAL)
    bad["extra"] = 1
    with pytest.raises(ValidationError) as exc:
        parse_config(json.dumps(bad))
    assert "extra" in str(exc.value)


def test_weights_length_mismatch_named():
    bad = dict(MINIMAL)
    bad["variety"] = dict(CUSTOM_VARIETY, ambient_dim=4)
    with pytest.raises(ValidationError) as exc:
        parse_config(json.dumps(bad))
    assert "ambient_dim" in str(exc.value)


def test_inhomogeneous_polynomial_named():
    bad = dict(MINIMAL)
    bad["variety"] = {
        "weights": [1, 1],
        "pure_dim": 1,
        "polynomials": [
            [
                {"exponents": [1, 0], "re": 1.0, "im": 0.0},
                {"exponents": [0, 2], "re": 1.0, "im": 0.0},
            ]
        ],
    }
    with pytest.raises(ValidationError) as exc:
        parse_config(json.dumps(bad))
    assert "polynomials[0]" in str(exc.value)
    assert "homogeneous" in str(exc.value)


def test_custom_variety_roundtrip():
    cfg_dict = dict(MINIMAL)
    cfg_dict["variety"] = CUSTOM_VARIETY
    cfg_dict["job"] = {
        "type": "solve",
        "points": [[{"re": 0.0, "im": 0.0}] * 3],
    }
    cfg = parse_config(json.dumps(cfg_dict))
    again = parse_config(json.dumps(cfg.to_dict()))
    assert again == cfg


def test_config_roundtrip_equality():
    cfg = parse_config(json.dumps(MINIMAL))
    again = parse_config(json.dumps(cfg.to_dict()))
    assert again == cfg


def test_solve_job_origin_reports_zero(tmp_path):
    out = tmp_path / "r.json"
    cfg = parse_config(json.dumps(MINIMAL))
    code, report = run(cfg, out_path=str(out), reproducible=True)
    assert code == 0
    row = report["table"][0]
    assert row["value_re"] == 0.0 and row["value_im"] == 0.0
    on_disk = json.loads(out.read_text())
    assert on_disk["table"] == report["table"]
    assert "timestamp" not in on_disk


def test_determinism_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(["run", str(cfg_path), "--reproducible", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_csv_projection(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    out = tmp_path / "r.csv"
    rc = main(["run", str(cfg_path), "--reproducible", "--out", str(out), "--format", "csv"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("z0_re")
    assert len(lines) == 3  # meta comment, header, one row


def test_check_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    assert main(["check", str(cfg_path)]) == 0
    cfg_path.write_text("not json")
    assert main(["check", str(cfg_path)]) == 1


def test_fixtures_subcommand(capsys):
    assert main(["fixtures"]) == 0
    text = capsys.readouterr().out
    for name in ("line2", "quadric-cone", "cusp", "cone6"):
        assert name in text


def test_runtime_error_exit_code(tmp_path):
    # a solve point off the variety is a runtime failure: exit 2 plus a
    # structured error record in the report
    bad = dict(MINIMAL)
    bad["job"] = {
        "type": "solve",
        "points": [[{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    out = tmp_path / "r.json"
    rc = main(["run", str(cfg_path), "--reproducible", "--out", str(out)])
    assert rc == 2
    report = json.loads(out.read_text())
    assert report["error"]["type"] == "NotOnVariety"


def test_holder_smoke_end_to_end(tmp_path):
    cfg = {
        "variety": "quadric-cone",
        "form": {"builtin": "bump-dbar", "r0": 0.3, "radius": 1.0},
        "job": {"type": "holder", "theta": 0.5, "radius": 1.0, "pairs": 9,
                 "scales": [1.0]},
        "quadrature": {"rel_tol": 1e-6, "abs_tol": 1e-9},
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    rc = main(["run", str(cfg_path), "--reproducible", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["results"]["n_pairs"] >= 9
    assert report["results"]["empirical_constant"] > 0
    assert len(report["table"]) == report["results"]["n_pairs"]


@pytest.mark.parametrize("radius", [1e-10, 1e-11, 1e-12])
def test_holder_job_at_tiny_radius_returns(tmp_path, radius):
    # pairs closer than 1e-10 of the radius are resampled: an absolute
    # cut-off rejects every pair at these radii and the job never returns
    cfg = {
        "variety": "quadric-cone",
        "form": {"builtin": "bump-dbar", "r0": 0.3, "radius": 1.0},
        "job": {"type": "holder", "theta": 0.5, "radius": radius, "pairs": 3,
                 "scales": [1.0]},
        "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "dbarcone.cli", "run", str(cfg_path), "--reproducible",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    table = json.loads(out.read_text())["table"]
    assert len(table) == 3
    assert all(0 < row["dist_chord"] <= row["dist_upper"] < 2 * radius for row in table)


def _run_cfg(tmp_path, cfg, name):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / f"{name}_report.json"
    rc = main(["run", str(cfg_path), "--reproducible", "--out", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


def test_residual_job_smoke(tmp_path):
    report = _run_cfg(tmp_path, {
        "variety": "line2",
        "form": {"builtin": "bump-dbar", "r0": 0.3, "radius": 1.0},
        "job": {"type": "residual", "anchors": 1, "samples": 2, "fd_step": 1e-4},
        "quadrature": {"rel_tol": 1e-7, "abs_tol": 1e-10},
        "seed": 1,
    }, "residual")
    assert report["results"]["max_residual"] < 1e-3
    assert len(report["table"]) == 2


def test_l2_job_smoke(tmp_path):
    report = _run_cfg(tmp_path, {
        "variety": "line2",
        "form": {"builtin": "bump-dbar", "r0": 0.3, "radius": 1.0},
        "job": {"type": "l2", "radius": 1.0, "samples": 120},
        "monte_carlo": {"anchors": 6},
        "seed": 2,
    }, "l2")
    assert report["results"]["ratio"] > 0
    assert not report["results"]["degenerate"]
    assert report["results"]["newton_failures"] == 0
    assert report["table"][0]["coverage_gaps"] == report["results"]["coverage_gaps"] >= 0


def test_l2_job_uses_quadrature_section(tmp_path):
    # the l2 job solves with the config's quadrature parameters: one panel
    # cannot meet the tolerance, so the job fails instead of running at
    # the operator's own defaults
    cfg = {
        "variety": "line2",
        "form": {"builtin": "bump-dbar", "r0": 0.3, "radius": 1.0},
        "job": {"type": "l2", "radius": 1.0, "samples": 16},
        "quadrature": {"max_panels": 1},
        "monte_carlo": {"anchors": 2},
        "seed": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert main(["run", str(cfg_path), "--reproducible", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["error"]["type"] == "NoConvergence"


@pytest.mark.parametrize("name", ["solve_line", "residual_quadric"])
def test_negative_seed_override_rejected(tmp_path, capsys, name):
    config = next(p for p in SHIPPED_CONFIGS if p.stem == name)
    out = tmp_path / "r.json"
    assert main(["run", str(config), "--seed", "-1", "--out", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_report_path(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    out = tmp_path / "missing" / "r.json"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report:")
    assert str(out) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "out_name, existing_dir",
    [("missing/r.json", False), ("existing", True)],
    ids=["missing-directory", "existing-directory"],
)
def test_missing_report_directory_fails_before_the_job(
    tmp_path, capsys, monkeypatch, out_name, existing_dir
):
    def job_must_not_run(config, seed):
        raise AssertionError("the job ran before the report path was checked")

    monkeypatch.setattr(cli, "_run_job", job_must_not_run)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    out = tmp_path / out_name
    if existing_dir:
        out.mkdir()
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report:") and str(out) in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()
    if existing_dir:
        assert not any(out.iterdir())


def test_repeated_radii_rejected(tmp_path, capsys):
    # one radius twice gives log-log points with no spread to fit a slope to
    cfg = json.loads(next(p for p in SHIPPED_CONFIGS if p.stem == "scaling_line").read_text())
    cfg["job"]["radii"] = [0.5, 0.5]
    with pytest.raises(ValidationError) as exc:
        parse_config(json.dumps(cfg))
    assert str(exc.value).startswith("job.radii:")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 1
    assert "job.radii" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_scaling_job_smoke(tmp_path):
    report = _run_cfg(tmp_path, {
        "variety": "line2",
        "form": {"builtin": "zero"},
        "job": {"type": "scaling", "radii": [0.5, 1.0, 2.0], "samples": 3000},
        "monte_carlo": {"anchors": 6},
        "seed": 3,
    }, "scaling")
    assert abs(report["results"]["exponent"] - 4.0) < 0.3
    assert len(report["table"]) == 3
    assert all(row["newton_failures"] == 0 and row["coverage_gaps"] >= 0
               for row in report["table"])


def test_theta_crosscheck_job_smoke(tmp_path):
    report = _run_cfg(tmp_path, {
        "variety": "cusp",
        "form": {"builtin": "bump-dbar", "r0": 0.3, "radius": 1.0},
        "job": {"type": "theta-crosscheck", "points": 2},
        "quadrature": {"rel_tol": 1e-6, "abs_tol": 1e-9},
        "seed": 4,
    }, "theta")
    assert report["results"]["worst_rel_diff"] < 1e-4


@pytest.mark.parametrize(
    "key, edit",
    [
        ("seed", lambda cfg: cfg.update(seed=float("nan"))),
        ("seed", lambda cfg: cfg.update(seed=float("inf"))),
        ("form.radius", lambda cfg: cfg.update(form={"builtin": "zero", "radius": float("nan")})),
        ("quadrature.rel_tol", lambda cfg: cfg.update(quadrature={"rel_tol": float("nan")})),
        ("form.r0", lambda cfg: cfg.update(form={"builtin": "bump-dbar", "r0": 0})),
        ("form.radius", lambda cfg: cfg.update(form={"builtin": "bump-dbar", "radius": 1e300})),
        ("form.radius", lambda cfg: cfg.update(form={"builtin": "raw-bump", "radius": 1e300})),
    ],
    ids=["seed-nan", "seed-inf", "radius-nan", "rel_tol-nan", "r0-zero",
         "bump-dbar-radius-squared-inf", "raw-bump-radius-squared-inf"],
)
def test_non_finite_number_rejected(tmp_path, capsys, key, edit):
    # JSON NaN and Infinity parse as floats, and a radius whose square is
    # inf makes the cutoff divide inf by inf (a NaN sup bound); they must
    # fail validation by name instead of crashing later or passing as
    # "config ok"
    cfg = json.loads(json.dumps(MINIMAL))
    edit(cfg)
    text = json.dumps(cfg)
    with pytest.raises(ValidationError) as exc:
        parse_config(text)
    assert str(exc.value).startswith(f"{key}:")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["check", str(cfg_path)]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_checks(path, capsys):
    # a grammar change must not silently invalidate a config in configs/
    parse_config(path.read_text())
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "config ok\n"


@pytest.mark.parametrize(
    "form, key",
    [
        ({"builtin": "zero", "r0": 0.5, "radius": 0.4}, "r0"),
        ({"builtin": "zero", "h": None}, "h"),
        ({"builtin": "raw-bump", "h": None}, "h"),
    ],
    ids=["zero-r0", "zero-h-null", "raw-bump-h-null"],
)
def test_form_key_of_another_builtin_rejected(tmp_path, capsys, form, key):
    # each builtin takes only its own keys, so none is silently dropped from
    # the echoed config
    cfg = dict(MINIMAL, form=form)
    text = json.dumps(cfg)
    with pytest.raises(ValidationError) as exc:
        parse_config(text)
    assert str(exc.value).startswith(f"form: unknown keys [{key!r}]")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["check", str(cfg_path)]) == 1
    assert key in capsys.readouterr().err


# (section, the section's base object, field table) for every field table
FIELD_TABLES = (
    [("job", {"type": jt}, fields) for jt, (fields, _) in cli._JOBS.items()]
    + [("form", {"builtin": name}, fields) for name, fields in cli._FORMS.items()]
    + [("quadrature", {}, cli._QUADRATURE), ("monte_carlo", {}, cli._MONTE_CARLO),
       ("output", {}, cli._OUTPUT)]
)
FIELDS = [
    pytest.param(section, base, key, default, id=f"{'-'.join(map(str, base.values())) or section}-{key}")
    for section, base, fields in FIELD_TABLES
    for key, (default, _) in fields.items()
]


def _with_section(section, obj):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg[section] = obj
    return cfg


@pytest.mark.parametrize("section, base, key, default", FIELDS)
def test_wrong_typed_field_rejected(tmp_path, capsys, section, base, key, default):
    # an object where no field takes one fails by the field's own name
    text = json.dumps(_with_section(section, dict(base, **{key: {"wrong": "type"}})))
    with pytest.raises(ValidationError) as exc:
        parse_config(text)
    assert str(exc.value).startswith(f"{section}.{key}:")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["check", str(cfg_path)]) == 1
    assert f"{section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, base, key, default",
    [p for p in FIELDS if p.values[1] != {"type": "solve"}],
)
def test_absent_field_takes_its_default(section, base, key, default):
    echoed = parse_config(json.dumps(_with_section(section, base))).to_dict()[section]
    assert echoed.get(key) == default  # a bump-dbar form without h echoes no h


@pytest.mark.parametrize("jt", list(cli._JOBS))
def test_job_type_alone_parses(jt):
    text = json.dumps(_with_section("job", {"type": jt}))
    if jt == "solve":  # the points to solve at have no default
        with pytest.raises(ValidationError, match=r"^job\.points:"):
            parse_config(text)
    else:
        assert parse_config(text).job["type"] == jt


def test_readme_config_grammar_names_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    grammar = readme.split("### Config grammar", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    keys = {key for _, _, fields in FIELD_TABLES for key in fields}
    missing = sorted(key for key in keys if f'"{key}"' not in grammar)
    missing += [jt for jt in cli._JOBS if f'"type": "{jt}"' not in grammar]
    assert not missing
