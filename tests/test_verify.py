import numpy as np
import pytest

from dbarcone import measure
from dbarcone.errors import InsufficientSamples, NotACone, SingularAnchor
from dbarcone.fixtures import cusp, line2, make_form, quadric_cone
from dbarcone.measure import sample_link
from dbarcone.quadrature import QuadratureParams
from dbarcone.solver import solve, solve_l2
from dbarcone.verify import (
    dbar_residual,
    holder_report,
    l2_report,
    measure_scaling_check,
)

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
    def rejected(variety, anchor):
        raise SingularAnchor("every anchor rejected")

    monkeypatch.setattr(measure, "build_chart", rejected)
    with pytest.raises(InsufficientSamples):
        holder_report(quadric_cone(), cone_form, 0.5, 1.0, 6, 8)


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
