import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dbarcone import charts, measure, verify
from dbarcone.charts import build_chart
from dbarcone.errors import InsufficientSamples, NewtonDivergence, NotACone
from dbarcone.fixtures import cusp, line2, make_form, quadric_cone
from dbarcone.measure import SurfaceEstimate, sample_link
from dbarcone.quadrature import QuadratureParams
from dbarcone.solver import solve, solve_l2
from dbarcone.verify import (
    dbar_residual,
    holder_report,
    l2_report,
    measure_scaling_check,
)
from oracles import residual_by_points

PARAMS = QuadratureParams(rel_tol=1e-8, abs_tol=1e-11)


@pytest.fixture(scope="module")
def line_form():
    return make_form("bump-dbar", 2, h_terms=[((0, 0), 1.0), ((1, 0), 0.5)],
                     r0=0.3, radius=1.0)


@pytest.fixture(scope="module")
def cone_form():
    return make_form("bump-dbar", 3, h_terms=[((0, 0, 0), 1.0), ((1, 0, 0), 0.5)],
                     r0=0.3, radius=1.0)


def test_residual_zero_form_noise_floor():
    V = quadric_cone()
    zform = make_form("zero", 3)
    xi = sample_link(V, 1, 2).points[0]
    rep = dbar_residual(V, zform, lambda z: solve(V, zform, z, PARAMS).value,
                        xi, 4, 1e-4, rng_seed=1)
    assert rep.max_residual <= 1e-7


def test_residual_line_bump(line_form):
    L = line2()
    rep = dbar_residual(
        L, line_form, lambda z: solve(L, line_form, z, PARAMS).value,
        [np.sqrt(2), 0.0], 10, 1e-4, rng_seed=2,
    )
    assert rep.max_residual <= 1e-4


def test_residual_quadric_bump_both_operators(cone_form):
    V = quadric_cone()
    xi = sample_link(V, 1, 5).points[0]
    for op in (solve, solve_l2):
        rep = dbar_residual(
            V, cone_form, lambda z: op(V, cone_form, z, PARAMS).value,
            xi, 6, 1e-4, rng_seed=3,
        )
        assert rep.median_residual <= 1e-3
        assert rep.max_residual <= 1e-2


def test_residual_fd_step_convergence(line_form):
    # halving the step should not inflate residual medians by more than ~2x
    # while above the quadrature noise floor
    L = line2()
    meds = []
    for h in (2e-4, 1e-4):
        rep = dbar_residual(
            L, line_form, lambda z: solve(L, line_form, z, PARAMS).value,
            [np.sqrt(2), 0.0], 6, h, rng_seed=4, check_step=False,
        )
        meds.append(rep.median_residual)
    assert meds[1] <= 2.0 * meds[0] + 1e-7


RESIDUAL_CASES = {
    "line2": (line2, 2, None, solve),
    "quadric-cone/solve": (quadric_cone, 3, 5, solve),
    "quadric-cone/solve_l2": (quadric_cone, 3, 5, solve_l2),
    "cusp": (cusp, 2, 6, solve),
}


@pytest.mark.parametrize("check_step", [False, True])
@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_residual_matches_per_point_oracle(monkeypatch, case, check_step):
    # one slice solve for every stencil point of a call, then one per
    # pullback; values and their types equal the one-point-at-a-time path
    make, n, link_seed, op = RESIDUAL_CASES[case]
    V = make()
    form = make_form("bump-dbar", n, h_terms=[((0,) * n, 1.0), ((1,) + (0,) * (n - 1), 0.5)],
                     r0=0.3, radius=1.0)
    anchor = [np.sqrt(2), 0.0] if link_seed is None else sample_link(V, 1, link_seed).points[0]
    handle = lambda z: op(V, form, z, PARAMS).value  # noqa: E731
    rows = []
    slice_batch = charts.Chart.slice_batch

    def counted(self, X):
        rows.append(len(X))
        return slice_batch(self, X)

    monkeypatch.setattr(charts.Chart, "slice_batch", counted)
    rep = dbar_residual(V, form, handle, anchor, 3, 1e-4, rng_seed=7, check_step=check_step)
    chart = build_chart(V, anchor)
    stencil = 4 * (1 + chart.slice_dim)
    n_probe = 1 if check_step else 0
    assert rows == [stencil, 1] * 2 * n_probe + [3 * stencil, 1, 1, 1]

    rng = np.random.default_rng(7)
    draws = [verify._chart_box_sample(rng, chart, 0.85 * form.support_radius, 0.15, 0.3)
             for _ in range(n_probe + 3)]
    for smp, (s, x) in zip(rep.samples, draws[n_probe:], strict=True):
        res_s, res_x = residual_by_points(chart, form, handle, s, x, 1e-4, 1 + form.sup_bound)
        assert (smp.s, smp.x) == (s, tuple(complex(v) for v in x))
        assert (smp.residual_s, smp.residual_x) == (res_s, tuple(res_x))
        got = [smp.residual_s, *smp.residual_x]
        assert [type(v) for v in got] == [type(v) for v in [res_s, *res_x]]


def test_residual_names_first_failed_stencil_row(monkeypatch, cone_form):
    # every stencil point is solved before any handle call; a failure names
    # the first failing row
    slice_batch = charts.Chart.slice_batch
    batches = []

    def failing(self, X):
        Y, ok = slice_batch(self, X)
        batches.append(X)
        return Y, ok & (np.arange(len(ok)) < 5)

    def handle(z):
        raise AssertionError("handle called before the slice solve")

    monkeypatch.setattr(charts.Chart, "slice_batch", failing)
    V = quadric_cone()
    with pytest.raises(NewtonDivergence) as err:
        dbar_residual(V, cone_form, handle, sample_link(V, 1, 5).points[0], 2, 1e-4)
    assert str(err.value) == f"slice Newton failed at x = {batches[0][5]}"


@pytest.mark.parametrize("fd_step", [0.0, -1e-4, float("nan"), float("inf")])
def test_residual_rejects_bad_fd_step(line_form, fd_step):
    with pytest.raises(ValueError, match="fd_step must be finite and > 0"):
        dbar_residual(line2(), line_form, lambda z: 0j, [np.sqrt(2), 0.0], 2, fd_step)


def test_residual_rejects_no_samples(line_form):
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        dbar_residual(line2(), line_form, lambda z: 0j, [np.sqrt(2), 0.0], 0, 1e-4)


def test_holder_report_structure(cone_form):
    V = quadric_cone()
    rep = holder_report(V, cone_form, 0.5, 1.0, 12, 7)
    assert len(rep.pairs) >= 12
    assert np.isfinite(rep.empirical_constant)
    for p in rep.pairs:
        assert p.dist_chord > 0  # coincident pairs are excluded
        assert p.ratio_upper <= p.ratio_chord + 1e-12
        assert p.dist_upper >= p.dist_chord - 1e-12
    kinds = {p.kind for p in rep.pairs}
    assert kinds == {"line", "slice", "general"}
    scales = {p.scale for p in rep.pairs}
    assert scales == {1.0, 0.1, 0.01}


def test_holder_ratio_swap_symmetric(cone_form):
    # both numerator and denominators are symmetric in (z, w)
    V = quadric_cone()
    rep = holder_report(V, cone_form, 0.5, 1.0, 6, 8, scale_factors=(1.0,))
    p = rep.pairs[0]
    z, w = np.array(p.z), np.array(p.w)
    gz = solve(V, cone_form, z, PARAMS).value
    gw = solve(V, cone_form, w, PARAMS).value
    assert abs(abs(gz - gw) - p.delta_g) < 1e-6
    assert abs(np.linalg.norm(z - w) - p.dist_chord) < 1e-12


def test_holder_report_rejects_weighted_variety(line_form):
    # the pairs are sampled through link charts, which need a cone
    with pytest.raises(NotACone):
        holder_report(cusp(), line_form, 0.5, 1.0, 6, 8)


def test_holder_report_without_charts(monkeypatch, cone_form):
    # a link on which no point projects has no chart anchors
    def failed(variety, Z, **kw):
        return Z, np.zeros(Z.shape[0], dtype=bool)

    monkeypatch.setattr(measure, "project_batch", failed)
    with pytest.raises(InsufficientSamples):
        holder_report(quadric_cone(), cone_form, 0.5, 1.0, 6, 8)


def test_holder_report_with_one_usable_chart(monkeypatch, cone_form):
    # one chart gives every pair kind; the atlas's rule that a surface
    # needs 2 charts to size its boxes does not apply to holder_report
    frames = measure.link_frames

    def first_row(variety, count, rng_seed):
        return tuple(a[:1] for a in frames(variety, count, rng_seed))

    monkeypatch.setattr(verify, "link_frames", first_row)
    monkeypatch.setattr(measure, "link_frames", first_row)
    rep = holder_report(quadric_cone(), cone_form, 0.5, 1.0, 6, 8, scale_factors=(1.0,))
    assert [p.kind for p in rep.pairs] == ["line"] * 2 + ["slice"] * 2 + ["general"] * 2
    assert np.isfinite(rep.empirical_constant)
    with pytest.raises(InsufficientSamples, match="2 charts"):
        measure.ConeAtlas(quadric_cone(), 4, 8 ^ 0x51C3)


def test_holder_report_rejects_bad_radius():
    # no pair fits in a ball of radius 0, so without the check the pair
    # sampling never returns: run it in a subprocess with a timeout
    code = (
        "from dbarcone.fixtures import make_form, quadric_cone\n"
        "from dbarcone.verify import holder_report\n"
        "form = make_form('bump-dbar', 3)\n"
        "for radius in (0.0, -1.0, float('nan'), float('inf')):\n"
        "    try:\n"
        "        holder_report(quadric_cone(), form, 0.5, radius, 3, 11)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"radius must be finite and > 0, got {r}" for r in ("0.0", "-1.0", "nan", "inf")
    ]


@pytest.mark.parametrize("scales", [(), (0.0,), (1.0, -0.1), (float("nan"),), (float("inf"),)])
def test_holder_report_rejects_bad_scale_factors(cone_form, scales):
    with pytest.raises(ValueError, match="scale_factors must be finite and > 0"):
        holder_report(quadric_cone(), cone_form, 0.5, 1.0, 3, 11, scale_factors=scales)


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf")])
def test_l2_report_rejects_bad_radius(cone_form, radius):
    with pytest.raises(ValueError, match="radius must be finite and > 0"):
        l2_report(quadric_cone(), cone_form, radius, 100, 9)


def test_l2_report_degenerate_zero_form():
    V = quadric_cone()
    rep = l2_report(V, make_form("zero", 3), 1.0, 400, 9)
    assert rep.degenerate
    assert np.isnan(rep.ratio)


def test_l2_report_scale_invariance(cone_form):
    from dbarcone.forms import scale_form

    V = quadric_cone()
    r1 = l2_report(V, cone_form, 1.0, 500, 10)
    r2 = l2_report(V, scale_form(2.0, cone_form), 1.0, 500, 10)
    sigma = np.hypot(r1.ratio_std_error, r2.ratio_std_error)
    assert abs(r1.ratio - r2.ratio) <= 3 * sigma + 1e-3
    assert np.isfinite(r1.ratio) and r1.ratio > 0


def test_scaling_exponent_line():
    rep = measure_scaling_check(line2(), [0.5, 1.0, 2.0], 20000, 12)
    assert abs(rep.exponent - 4.0) <= 0.1
    assert rep.expected_exponent == 4.0


def test_scaling_exponent_plain_measure():
    rep = measure_scaling_check(line2(), [0.5, 1.0, 2.0], 20000, 13, integrand="one")
    assert abs(rep.exponent - 2.0) <= 0.1


def test_scaling_needs_two_distinct_radii():
    with pytest.raises(ValueError, match="distinct radii"):
        measure_scaling_check(line2(), [0.5, 0.5], 1000, 13)


@pytest.mark.parametrize(
    "radii", [[0.0, 1.0], [-1.0, 1.0], [float("nan"), 1.0], [float("inf"), 1.0]]
)
def test_scaling_rejects_bad_radii(radii):
    with pytest.raises(ValueError, match="radii must be finite and > 0"):
        measure_scaling_check(line2(), radii, 1000, 13)


def test_step_too_small_detector(line_form):
    # a solver handle with rough point-dependent noise: halving the step
    # doubles the finite-difference residual and the probe must trip
    from dbarcone.errors import StepTooSmall

    L = line2()

    def noisy(z):
        base = solve(L, line_form, z, PARAMS).value
        jitter = 1e-5 * np.sin(1e9 * z[0].real) * np.cos(7e8 * z[0].imag)
        return base + jitter

    with pytest.raises(StepTooSmall):
        dbar_residual(L, line_form, noisy, [np.sqrt(2), 0.0], 2, 1e-6, rng_seed=1)


def test_l2_report_counts_what_both_estimates_skipped(monkeypatch, cone_form):
    # newton_failures and coverage_gaps of the g and lambda estimates add up
    def fake(failures, gaps):
        def estimate(*args, **kwargs):
            return SurfaceEstimate(1.0, 0.1, 96, failures, gaps)

        return estimate

    monkeypatch.setattr(verify, "l2_norm_function", fake(2, 3))
    monkeypatch.setattr(verify, "l2_norm_form", fake(5, 7))
    rep = l2_report(quadric_cone(), cone_form, 1.0, 96, 10)
    assert (rep.newton_failures, rep.coverage_gaps) == (7, 10)


def test_scaling_rows_count_what_each_estimate_skipped(monkeypatch):
    counts = iter([(0, 1), (2, 0), (3, 4)])

    def estimate(variety, fn, rho, *args, **kwargs):
        failures, gaps = next(counts)
        return SurfaceEstimate(rho ** 4, 0.01 * rho ** 4, 96, failures, gaps)

    monkeypatch.setattr(verify, "surface_integral", estimate)
    rep = measure_scaling_check(line2(), [0.5, 1.0, 2.0], 96, 12)
    assert [(r.newton_failures, r.coverage_gaps) for r in rep.rows] == [(0, 1), (2, 0), (3, 4)]
