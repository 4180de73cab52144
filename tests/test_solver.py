import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbarcone import quadrature, solver
from dbarcone.errors import NotACone, NotOnVariety
from dbarcone.fixtures import cone6, cusp, line2, make_form, make_variety, quadric_cone
from dbarcone.forms import ZeroOneForm, radial_cutoff, scale_form
from dbarcone.measure import sample_link
from dbarcone.quadrature import QuadratureParams
from dbarcone.solver import (
    solve,
    solve_l2,
    solve_scaled,
    solve_weighted_via_cone,
    theta_cone,
    theta_map,
    theta_pullback_form,
    truncation_radius,
)
from dbarcone.variety import Weights, act, project_batch

from oracles import eval_rects_by_points, grid_cauchy_transform, solve_general_kernel

PARAMS = QuadratureParams(rel_tol=1e-8, abs_tol=1e-11)


@pytest.fixture(scope="module")
def bump2():
    return make_form("bump-dbar", 2, h_terms=[((0, 0), 1.0), ((1, 0), 0.5)],
                     r0=0.3, radius=1.0)


@pytest.fixture(scope="module")
def bump3():
    return make_form("bump-dbar", 3, h_terms=[((0, 0, 0), 1.0), ((1, 0, 0), 0.5)],
                     r0=0.3, radius=1.0)


def test_solve_zero_point_and_zero_form(bump3):
    V = quadric_cone()
    assert solve(V, bump3, np.zeros(3), PARAMS).value == 0
    zform = make_form("zero", 3)
    r = solve(V, zform, np.array([1.0, 1.0, 1.0]), PARAMS)
    assert r.value == 0


def test_solve_rejects_off_variety(bump3):
    with pytest.raises(NotOnVariety):
        solve(quadric_cone(), bump3, np.array([1.0, 1.0, 0.5]), PARAMS)


def test_truncation_radius():
    w = Weights((1, 1))
    assert truncation_radius(w, np.zeros(2), 1.0) == 0.0
    W = truncation_radius(w, np.array([0.5, 0.0]), 1.0)
    assert abs(W - 2.0) < 1e-6
    # weighted: sum W^(2 beta_k) |z_k|^2 = R^2, monotone bisection
    w32 = Weights((3, 2))
    z = np.array([0.1, 0.2])
    W = truncation_radius(w32, z, 1.0)
    total = W ** 6 * 0.01 + W ** 4 * 0.04
    assert abs(total - 1.0) < 1e-6


def test_line_reduction_matches_classical_transform(bump2):
    # on {z2 = 0} the operator reduces exactly to the planar Cauchy-Pompeiu
    # transform of f1; oracle = independent midpoint grid
    L = line2()

    def f1(u):
        pts = np.stack([u, np.zeros_like(u)], axis=-1)
        return bump2.coeff_matrix(pts.reshape(-1, 2))[:, 0]

    rng = np.random.default_rng(11)
    for _ in range(5):
        z1 = complex(*rng.uniform(-0.55, 0.55, 2))
        if abs(z1) < 0.05:
            continue
        mine = solve(L, bump2, np.array([z1, 0.0]), PARAMS).value
        oracle = grid_cauchy_transform(f1, 1.0, z1, N=1200)
        assert abs(mine - oracle) <= 1e-5 * max(abs(oracle), 1e-3)


def test_line_solution_is_pompeiu_identity(bump2):
    # lambda = dbar(h chi) on the line, so g = h chi away from the origin
    L = line2()
    z1 = 0.42 - 0.17j
    mine = solve(L, bump2, np.array([z1, 0.0]), PARAMS).value
    exact = (1.0 + 0.5 * z1) * radial_cutoff(np.array([[z1, 0.0]]), 0.3, 1.0)[0]
    assert abs(mine - exact) < 1e-9


def _bump_solution_error(variety, form, z, op):
    """(|g - h chi|, reported error) for the suite's bump-dbar family: along
    every orbit h chi has compact support, so both operators return it."""
    res = op(variety, form, z, PARAMS)
    exact = (1.0 + 0.5 * z[0]) * radial_cutoff(z[None, :], 0.3, 1.0)[0]
    return abs(res.value - exact), res.quadrature_error


@pytest.mark.parametrize("name", ["line2", "quadric-cone", "cusp", "cone6"])
def test_reported_error_bounds_exact_solution(name):
    V = make_variety(name)
    n = V.ambient_dim
    form = make_form("bump-dbar", n, h_terms=[((0,) * n, 1.0), ((1,) + (0,) * (n - 1), 0.5)],
                     r0=0.3, radius=1.0)
    operators = (solve, solve_l2) if V.weights.is_unit else (solve,)
    scales = (0.01 * np.exp(0.4j), 0.2 * np.exp(2.1j), 0.8 * np.exp(-1.3j))  # near, mid, far
    for xi, s in zip(sample_link(V, len(scales), 17).points, scales):
        z = act(s, V.weights, xi)
        for op in operators:
            err, est = _bump_solution_error(V, form, z, op)
            assert err <= est, (name, op.__name__, z, err, est)


def test_reported_error_bounds_near_line_point(bump2):
    # with six initial radial panels per sweep this point converged falsely:
    # estimate 2.0e-10 against a true error of 1.0e-9
    z = np.array([0.0009364081160593808 - 0.0012061109576302937j, 0.0])
    err, est = _bump_solution_error(line2(), bump2, z, solve)
    assert err <= est


@pytest.mark.parametrize("name", ["line2", "quadric-cone", "cusp"])
def test_lean_kernel_matches_general_kernel(name):
    # unit weights skip w ** 1 and conj(w) ** 0 and all-inside batches skip
    # the support gather: every operator returns the same bits as the
    # general kernel, on the weighted cusp too
    V = make_variety(name)
    n = V.ambient_dim
    form = make_form("bump-dbar", n, h_terms=[((0,) * n, 1.0), ((1,) + (0,) * (n - 1), 0.5)],
                     r0=0.3, radius=1.0)
    scales = (0.01 * np.exp(0.4j), 0.2 * np.exp(2.1j), 0.8 * np.exp(-1.3j))  # near, mid, far
    for xi, s in zip(sample_link(V, len(scales), 17).points, scales):
        z = act(s, V.weights, xi)
        assert solve(V, form, z, PARAMS) == solve_general_kernel(V, form, z, PARAMS)
        if V.weights.is_unit:
            assert solve_l2(V, form, z, PARAMS) == solve_general_kernel(
                V, form, z, PARAMS, m=V.pure_dim - 1
            )
        pole = 0.7 + 0.2j
        assert solve_scaled(V, form, z, pole, PARAMS) == solve_general_kernel(
            V, form, z, PARAMS, pole=pole
        )


@pytest.mark.parametrize("name", ["line2", "quadric-cone", "cusp", "cone6"])
def test_panel_path_matches_per_point_oracle(name, monkeypatch):
    # the per-angle nodes and the fused weighted reduction refine the same
    # panels as the per-point sweep and its complex sum, and move g by far
    # less than the reported quadrature error
    V = make_variety(name)
    n = V.ambient_dim
    form = make_form("bump-dbar", n, h_terms=[((0,) * n, 1.0), ((1,) + (0,) * (n - 1), 0.5)],
                     r0=0.3, radius=1.0)
    points = []

    def counting(integrand, params):
        K = integrand.evaluate

        def evaluate(w):
            points.append(w.size)
            return K(w)

        return quadrature.integrate_plane(dataclasses.replace(integrand, evaluate=evaluate), params)

    def run(op, z):
        points.clear()
        return op(V, form, z, PARAMS), sum(points)

    monkeypatch.setattr(solver, "integrate_plane", counting)
    operators = (solve, solve_l2) if V.weights.is_unit else (solve,)
    scales = (0.01 * np.exp(0.4j), 0.2 * np.exp(2.1j), 0.8 * np.exp(-1.3j))  # near, mid, far
    for xi, s in zip(sample_link(V, len(scales), 17).points, scales):
        z = act(s, V.weights, xi)
        for op in operators:
            got, n_got = run(op, z)
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_eval_rects", eval_rects_by_points)
                ref, n_ref = run(op, z)
            assert n_got == n_ref > 0, (name, op.__name__, s)
            assert abs(got.value - ref.value) <= 1e-3 * ref.quadrature_error, (name, op.__name__, s)


def test_solve_scaled_consistency(bump3):
    V = quadric_cone()
    rng = np.random.default_rng(3)
    seeds = (rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))) / np.sqrt(2)
    Z, ok = project_batch(V, seeds)
    Z = Z[ok][:5]
    for i, z in enumerate(Z):
        z = z / np.linalg.norm(z) * 0.5
        s = 0.7 + 0.2j if i % 2 == 0 else -0.4 + 0.55j
        a = solve_scaled(V, bump3, z, s, PARAMS).value
        b = solve(V, bump3, act(s, V.weights, z), PARAMS).value
        assert abs(a - b) <= 1e-5 * (1 + abs(b))


def test_solve_scaled_trivials(bump3):
    V = quadric_cone()
    z = np.array([1.0, 1.0, 1.0]) * 0.3
    assert solve_scaled(V, bump3, z, 0.0, PARAMS).value == 0
    a = solve_scaled(V, bump3, z, 1.0, PARAMS).value
    b = solve(V, bump3, z, PARAMS).value
    assert abs(a - b) <= 1e-8 * (1 + abs(b))


def test_solve_l2_requires_cone(bump2):
    with pytest.raises(NotACone):
        solve_l2(cusp(), bump2, np.array([1.0, 1.0]), PARAMS)


def test_solve_l2_equals_solve_on_line(bump2):
    # d = 1 makes the radial weight w^(d-1) trivial: both operators coincide
    L = line2()
    for z1 in (0.25 + 0.1j, 0.6 - 0.2j):
        a = solve(L, bump2, np.array([z1, 0.0]), PARAMS).value
        b = solve_l2(L, bump2, np.array([z1, 0.0]), PARAMS).value
        assert abs(a - b) < 1e-9
    assert solve_l2(L, bump2, np.zeros(2), PARAMS).value == 0


def test_line_operators_share_one_solve_path(bump2):
    # on line2 (d = 1, unit weights) solve, solve_scaled at s = 1 and
    # solve_l2 integrate the same kernel over the same truncation disk
    L = line2()
    z = np.array([0.42 - 0.17j, 0.0])
    a = solve(L, bump2, z, PARAMS)
    assert solve_scaled(L, bump2, z, 1.0, PARAMS) == a
    assert solve_l2(L, bump2, z, PARAMS) == a


def test_theta_map_basics():
    assert np.allclose(theta_map(Weights((1, 1)), [0.3, 0.7j]), [0.3, 0.7j])
    assert np.allclose(theta_map(Weights((3, 2)), [2.0, 3.0]), [8.0, 9.0])


@settings(max_examples=50, deadline=None)
@given(
    w=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    a=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    b=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_theta_intertwines_actions(w, a, b):
    weights = Weights((3, 2))
    z = np.array([a, b])
    lhs = act(w, weights, theta_map(weights, z))
    rhs = theta_map(weights, w * z)
    assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-11)


def test_theta_pullback_coefficients(bump2):
    w = Weights((3, 2))
    pulled = theta_pullback_form(bump2, w)
    rng = np.random.default_rng(4)
    P = 0.4 * (rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
    got = pulled.coeff_matrix(P)
    img = theta_map(w, P)
    base = bump2.coeff_matrix(img)
    expect0 = base[:, 0] * 3 * np.conj(P[:, 0]) ** 2
    expect1 = base[:, 1] * 2 * np.conj(P[:, 1]) ** 1
    assert np.allclose(got[:, 0], expect0, atol=1e-12)
    assert np.allclose(got[:, 1], expect1, atol=1e-12)


def test_theta_cone_of_cusp_is_cone6():
    cone = theta_cone(cusp())
    ref = cone6()
    assert cone.weights.is_unit
    assert cone.polynomials == ref.polynomials


def test_theta_transfer_identity(bump2):
    X = cusp()
    rng = np.random.default_rng(9)
    for _ in range(3):
        zeta = np.exp(2j * np.pi * rng.integers(0, 6) / 6)
        t = 0.25 * (rng.standard_normal() + 1j * rng.standard_normal())
        z = np.array([t, zeta * t])  # on the cone z1^6 = z2^6
        x = theta_map(X.weights, z)
        rep = solve_weighted_via_cone(X, bump2, x, PARAMS, cone_point=z)
        diff = abs(rep.direct.value - rep.via_cone.value)
        assert diff <= 1e-5 * (1 + abs(rep.via_cone.value))


def test_theta_transfer_trivials(bump2):
    X = cusp()
    rep = solve_weighted_via_cone(X, bump2, np.zeros(2), PARAMS)
    assert rep.direct.value == 0 and rep.via_cone.value == 0
    zform = make_form("zero", 2)
    rep = solve_weighted_via_cone(X, zform, np.array([1.0, 1.0]), PARAMS)
    assert rep.direct.value == 0 and rep.via_cone.value == 0


def test_solver_linearity(bump3):
    V = quadric_cone()
    other = make_form("bump-dbar", 3, h_terms=[((0, 1, 0), 1.0)], r0=0.25, radius=0.9)
    # 2 bump3 - 0.5i other; each bump field vanishes outside its own support
    combo = ZeroOneForm(
        3,
        lambda P: 2.0 * bump3.field(P) - 0.5j * other.field(P),
        bump3.support_radius,
        2.0 * bump3.sup_bound + 0.5 * other.sup_bound,
        True,
    )
    z = np.array([1.0, 1.0, 1.0]) * 0.4
    va = solve(V, bump3, z, PARAMS).value
    vb = solve(V, other, z, PARAMS).value
    vc = solve(V, combo, z, PARAMS).value
    assert abs(vc - (2.0 * va - 0.5j * vb)) < 1e-7


def test_scale_form_halves(bump3):
    V = quadric_cone()
    z = np.array([1.0, 1.0, 1.0]) * 0.4
    v1 = solve(V, bump3, z, PARAMS).value
    v2 = solve(V, scale_form(2.0, bump3), z, PARAMS).value
    assert abs(v2 - 2 * v1) < 1e-8 * (1 + abs(v1))


def test_g_zero_on_all_fixtures(bump2, bump3):
    fixtures = [(line2(), bump2), (quadric_cone(), bump3), (cusp(), bump2), (cone6(), bump2)]
    for V, form in fixtures:
        assert solve(V, form, np.zeros(V.ambient_dim), PARAMS).value == 0
