"""Every experiment script listed in README's "Experiment scripts" section
imports the package and parses its options: `--help` exits 0.
`scripts/op_digest.py --values` also runs one benchmark cycle, and
`--configs` hashes the JSON and CSV report of every `configs/*.json`;
`scripts/est_calibration.py` calibrates one solve-grid cycle, and
`scripts/fd_step_study.py` takes residuals at each of its steps."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_op_digest_values_on_one_solve_grid_cycle():
    # --values appends each op's headline numbers as Python literals
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "op_digest.py"), "--workload", "solve-grid",
         "--seed", "1", "--values"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith(f"total {len(lines) - 1} ops ")
    for i, line in enumerate(lines[:-1]):
        index, kind, digest, value, error = line.split()
        assert int(index) == i and "/" in kind and len(digest) == 64
        assert value.startswith("value=") and error.startswith("quadrature_error=")
        assert isinstance(ast.literal_eval(value[len("value="):]), complex)
        assert ast.literal_eval(error[len("quadrature_error="):]) >= 0.0


def test_op_digest_configs_hashes_every_config_report():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "op_digest.py"), "--configs"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    assert len(names) == 6 and len(lines) == 7
    for name, line in zip(names, lines):
        got, json_digest, csv_digest = line.split()  # the JSON report, then its CSV projection
        assert got == name and len(json_digest) == len(csv_digest) == 64
    assert lines[-1].startswith("total 6 reports ") and len(lines[-1].split()[-1]) == 64


def test_est_calibration_on_one_solve_grid_cycle():
    # one row per |z| band: 7 ops each, none raised or failed, est >= err
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "est_calibration.py"), "--seeds", "1",
         "--cycles", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:4] == ["band", "ops", "raised", "failed"]
    assert [row.split()[0] for row in rows] == ["near", "mid", "far"]
    for row in rows:
        band, ops, raised, failed, min_ratio, median, max_err, floor_only = row.split()
        assert (int(ops), int(raised), int(failed), int(floor_only)) == (7, 0, 0, 0)
        assert 1.0 <= float(min_ratio) <= float(median) and float(max_err) >= 0.0


@pytest.mark.parametrize("fixture", ["line2", "quadric-cone"])
def test_fd_step_study_prints_one_line_per_step(fixture):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fd_step_study.py"), "--fixture", fixture,
         "--samples", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.startswith(f"fixture {fixture};")
    steps = []
    for row in rows:
        label, step, med_label, median, max_label, largest = row.replace(":", "").split()
        assert (label, med_label, max_label) == ("fd_step", "median", "max")
        assert 0.0 <= float(median) <= float(largest) < 1.0
        steps.append(float(step))
    assert steps == [1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5]
