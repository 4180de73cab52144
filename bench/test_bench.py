"""Tests of the benchmark itself (not part of the package suite):

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import references  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# cheap op subsets, one list per workload, that still cross every layer the
# workload exercises
SUBSETS = {
    "solve-grid": lambda ops: ops[:3] + ops[9:10],
    "fd-stencil": lambda ops: ops[2:3],
    "cone-mc": lambda ops: ops[:2] + ops[3:4],
}


def _traced_counts(name: str, seed: int):
    wl = workloads.WORKLOADS[name]
    ops = SUBSETS[name](wl.build(seed, 1))
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        records = [op.check(op.call()) for op in ops]
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    counts = dict(tracer.counts)
    counts.update({f"calls:{n}": c for n, c in zip(tracer.names, tracer.calls)})
    return tracer, records, wall, counts


@pytest.mark.parametrize("name", sorted(SUBSETS))
def test_work_counters_repeat_exactly(name):
    first = _traced_counts(name, 11)
    second = _traced_counts(name, 11)
    assert first[3] == second[3]
    assert all(r["ok"] for r in first[1])
    tracer, _, wall, counts = first
    assert not tracer.missing
    # self times partition the traced wall time: none is negative and
    # nesting is not double counted
    assert min(tracer.self_s) >= 0.0
    assert sum(tracer.self_s) <= wall


def test_uninstall_restores_every_entry_point():
    from dbarcone import solver, verify

    before = (solver.solve, verify.solve, verify.build_chart)
    tracer = Tracer()
    tracer.install()
    assert verify.solve is not before[1]
    tracer.uninstall()
    assert (solver.solve, verify.solve, verify.build_chart) == before


def test_reentrant_spans_count_self_time_once():
    tracer = Tracer()

    def inner(depth):
        time.sleep(0.01)
        return wrapped(depth - 1) if depth else None

    wrapped = tracer.wrap("forms.coeff_matrix", inner)
    t0 = time.perf_counter()
    wrapped(2)
    wall = time.perf_counter() - t0
    assert tracer.call_count("forms.coeff_matrix") == 3
    assert 0.03 <= tracer.self_time("forms.coeff_matrix") <= wall


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer, records, wall, _ = _traced_counts("cone-mc", 3)
    per_layer = run.layer_metrics(tracer, workloads.WORKLOADS["cone-mc"], records, wall, wall)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in per_layer.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_cone_mc_check_scales_by_reported_coverage():
    from dbarcone.measure import SurfaceEstimate

    wl = workloads.WORKLOADS["cone-mc"]
    n = wl.PILOT_N
    sixth = n // 6

    def est(value, gaps):
        return SurfaceEstimate(value=value, std_error=0.01, n_samples=wl.N_SAMPLES,
                               newton_failures=0, coverage_gaps=gaps)

    check = wl._check(1.0, root=False)
    assert check(est(1.0, 0))["ok"]
    # one of six lines uncovered: the estimate must fall by the reported share
    assert check(est(1.0 - sixth / n, sixth))["ok"]
    assert not check(est(1.0, sixth))["ok"]
    assert not check(est(0.5, sixth))["ok"]
    # a collapsed estimate fails, with or without reported gaps
    assert not check(est(0.0, 0))["ok"]
    assert not check(est(0.05, n - 10))["ok"]
    # l2_norm_form returns the square root of the integral
    root = wl._check(2.0, root=True)
    assert root(est(2.0 * (1.0 - sixth / n) ** 0.5, sixth))["ok"]
    assert not root(est(2.0, sixth))["ok"]


def test_references():
    import math

    import numpy as np

    # line: the disk of radius rho carries integral pi rho^4 / 2 of |z|^2
    assert references.cone_norm2_integral(1, 1, 0.7) == pytest.approx(math.pi * 0.7 ** 4 / 2)
    # on the plateau g = h exactly; outside the support g = 0
    z = np.array([0.1 + 0.1j, 0.0])
    assert references.bump_solution(z, (1.0, 0.5), 0.3, 1.0) == pytest.approx(1 + 0.5 * z[0])
    assert references.bump_solution(np.array([1.1, 0.0]), (1.0, 0.5), 0.3, 1.0) == 0
    # d = 1: integral of chi'(r^2)^2 r^2 * 2 pi r dr, by the trapezoid rule
    r = np.linspace(0.3, 1.0, 200001)
    f = references.plateau_deriv(r * r, 0.3, 1.0) ** 2 * r ** 3 * 2 * math.pi
    trap = float(np.sum((f[1:] + f[:-1]) / 2) * (r[1] - r[0]))
    assert references.cone_bump_l2_norm(1, 1, 0.3, 1.0) == pytest.approx(math.sqrt(trap), rel=1e-8)
