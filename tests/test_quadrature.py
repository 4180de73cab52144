import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbarcone import quadrature
from dbarcone.errors import NoConvergence
from dbarcone.quadrature import (
    PlanarIntegrand,
    QuadratureParams,
    cauchy_transform,
    integrate_plane,
)

from oracles import eval_rects_by_points, grid_cauchy_transform, rect_points_by_points

TIGHT = QuadratureParams(rel_tol=1e-9, abs_tol=1e-12)


def test_disk_area():
    # constant integrand: dA part is pi, value carries the -2i orientation
    v, e = integrate_plane(
        PlanarIntegrand(evaluate=lambda w: np.ones_like(w), truncation_radius=1.0), TIGHT
    )
    assert abs(v - (-2j * np.pi)) < 1e-12
    assert e < 1e-10


def test_reciprocal_odd_symmetry():
    v, _ = integrate_plane(
        PlanarIntegrand(
            evaluate=lambda w: 1.0 / w, singular_points=(0j,), truncation_radius=1.0
        ),
        TIGHT,
    )
    assert abs(v) < 1e-10


def test_solid_cauchy_transform_at_half():
    # -(1/pi) * dA-integral of 1/(u - 0.5) over the unit disk equals conj(0.5)
    v, _ = integrate_plane(
        PlanarIntegrand(
            evaluate=lambda w: 1.0 / (w - 0.5),
            singular_points=(0.5 + 0j,),
            truncation_radius=1.0,
        ),
        TIGHT,
    )
    value = v / (2j * np.pi)
    assert abs(value - 0.5) < 1e-9
    oracle = grid_cauchy_transform(lambda u: np.ones_like(u), 1.0, 0.5, N=1000)
    assert abs(value - oracle) < 1e-5


def test_cauchy_transform_trivials():
    assert cauchy_transform(lambda u: np.zeros_like(u), 1.0, 0.2 + 0.1j, TIGHT) == 0
    v = cauchy_transform(lambda u: np.ones_like(u), 1.0, 0.0j, TIGHT)
    assert abs(v) < 1e-10


def test_cauchy_transform_disk_indicator_oracle():
    # inside the unit disk the transform of the indicator is conj(z)
    rng = np.random.default_rng(42)
    for _ in range(20):
        z = complex(*rng.uniform(-0.65, 0.65, 2))
        v = cauchy_transform(lambda u: np.ones_like(u), 1.0, z, TIGHT)
        assert abs(v - np.conj(z)) <= 1e-6 * abs(z)
    # outside it the transform is 1/z; the pole lies outside the disk, so
    # the sweep runs about the origin
    outside = [1.2, -2.0j] + [
        rng.uniform(1.2, 2.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)) for _ in range(10)
    ]
    for z in outside:
        v = cauchy_transform(lambda u: np.ones_like(u), 1.0, z, TIGHT)
        assert abs(v - 1 / z) <= 1e-12


def test_empty_truncation_radius():
    v, e = integrate_plane(
        PlanarIntegrand(evaluate=lambda w: np.ones_like(w), truncation_radius=0.0), TIGHT
    )
    assert v == 0 and e == 0


def test_two_singular_points_rejected():
    # every kernel of the package has one pole; a second is a caller error
    with pytest.raises(ValueError, match="at most one singular point"):
        integrate_plane(
            PlanarIntegrand(
                evaluate=lambda w: 1.0 / ((w - 0.5) * (w + 0.5)),
                singular_points=(0.5 + 0j, -0.5 + 0j),
                truncation_radius=2.0,
            ),
            TIGHT,
        )


def test_no_convergence_names_exhausted_budget():
    def K(w):
        return (np.abs(w - 0.3) < 0.4).astype(complex) / (w - 0.5)

    integrand = PlanarIntegrand(evaluate=K, singular_points=(0.5 + 0j,), truncation_radius=1.0)
    budgets = (
        ({"max_panels": 600}, "max_panels 600 exhausted"),
        ({"max_refinement_depth": 2}, "max_refinement_depth 2 reached"),
    )
    for budget, budget_text in budgets:
        with pytest.raises(NoConvergence) as info:
            integrate_plane(integrand, QuadratureParams(rel_tol=1e-12, abs_tol=1e-14, **budget))
        assert re.fullmatch(
            budget_text + r" with \d+ panels at estimated error \S+ "
            r"\(truncation radius 1, singular points 0\.5\+0j\)",
            str(info.value),
        ), str(info.value)


def test_refinement_evaluates_no_point_twice():
    # a panel's four quadrants are evaluated once, for its fine value, and
    # reused as the coarse values of its children when it is refined
    seen = []

    def K(w):
        seen.append(w.copy())
        return np.maximum(1.0 - np.abs(w) ** 2, 0.0) ** 3 / (w - 0.2)

    integrate_plane(
        PlanarIntegrand(evaluate=K, singular_points=(0.2 + 0j,), truncation_radius=2.0), TIGHT
    )
    w = np.concatenate(seen)
    assert len(seen) > 2  # the initial panels were refined
    assert len(np.unique(w)) == len(w)


def test_no_convergence_reported():
    # a discontinuous non-conforming integrand with a tiny budget cannot meet
    # an extreme tolerance
    def K(w):
        return (np.abs(w - 0.3) < 0.4).astype(complex)

    with pytest.raises(NoConvergence):
        integrate_plane(
            PlanarIntegrand(evaluate=K, truncation_radius=1.0),
            QuadratureParams(rel_tol=1e-12, abs_tol=1e-14, max_panels=600),
        )


@settings(max_examples=20, deadline=None)
@given(
    a=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    b=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_linearity(a, b):
    params = QuadratureParams(rel_tol=1e-8, abs_tol=1e-10)

    def K1(w):
        return np.exp(-2 * np.abs(w) ** 2)

    def K2(w):
        return w * np.exp(-3 * np.abs(w) ** 2)

    def combo(w):
        return a * K1(w) + b * K2(w)

    W = 2.0
    v1, e1 = integrate_plane(PlanarIntegrand(evaluate=K1, truncation_radius=W), params)
    v2, e2 = integrate_plane(PlanarIntegrand(evaluate=K2, truncation_radius=W), params)
    vc, ec = integrate_plane(PlanarIntegrand(evaluate=combo, truncation_radius=W), params)
    tol = 10 * (abs(a) * e1 + abs(b) * e2 + ec) + 1e-12
    assert abs(vc - (a * v1 + b * v2)) <= tol


def test_exclusion_radius_halving_within_estimate():
    # kernel with exact 1/|w - a| strength: halving epsilon moves the value
    # by less than the reported error estimate
    a = 0.4 + 0.1j

    def K(w):
        return np.exp(-np.abs(w) ** 2) / np.abs(w - a)

    vals = {}
    for eps in (2e-4, 1e-4):
        params = QuadratureParams(rel_tol=1e-8, abs_tol=1e-10, singular_exclusion=eps)
        vals[eps] = integrate_plane(
            PlanarIntegrand(evaluate=K, singular_points=(a,), truncation_radius=2.0),
            params,
        )
    (v1, e1), (v2, e2) = vals[2e-4], vals[1e-4]
    assert abs(v1 - v2) <= max(e1, e2)


def test_grid_oracle_self_check():
    # the test-suite oracle itself reproduces the analytic disk identity
    for z in (0.3 + 0.4j, -0.2 + 0.55j):
        v = grid_cauchy_transform(lambda u: np.ones_like(u), 1.0, z, N=900)
        assert abs(v - np.conj(z)) < 2e-7


@pytest.mark.parametrize("case", ["pole", "origin", "exclusion"])
def test_panel_nodes_and_values_match_per_point_oracle(case):
    # the direction and span computed once per angular node give the same
    # nodes and area factors as the per-point sweep, and the panel values
    # agree with the per-point complex sum to rounding
    a = 0.3 + 0.2j
    singular = (a,) if case != "origin" else (2.5 + 0j,)
    eps = 1e-3 if case == "exclusion" else None

    def K(w):
        return np.exp(-np.abs(w) ** 2) * (1.0 + w * w) / (w - singular[0])

    integrand = PlanarIntegrand(evaluate=K, singular_points=singular, truncation_radius=1.5)
    sweep = quadrature._sweep(integrand, QuadratureParams(singular_exclusion=eps))
    assert (sweep.pole == 0) == (case == "origin") and (sweep.eps > 0) == (case == "exclusion")
    rng = np.random.default_rng(7)
    u0 = rng.uniform(0.0, 0.9, 200)
    t0 = rng.uniform(0.0, 6.0, 200)
    size = 2.0 ** -rng.integers(0, 10, 200)
    rects = np.concatenate([
        quadrature._INITIAL_RECTS,
        np.stack([u0, u0 + 0.1 * size, t0, t0 + 0.28 * size], axis=1),
    ])
    w, factor = quadrature._nodes(sweep, rects)
    w_ref, factor_ref = rect_points_by_points(sweep, rects)
    assert np.array_equal(w.reshape(-1), w_ref)
    assert np.array_equal(factor.reshape(-1), factor_ref)
    got = quadrature._eval_rects(sweep, K, rects)
    ref = eval_rects_by_points(sweep, K, rects)
    terms = eval_rects_by_points(sweep, lambda w: np.abs(K(w)), rects).real
    assert np.all(np.abs(got - ref) <= 1e-14 * terms)


def _radial_shell(r_in, R):
    """f(|u|) = ((|u|^2 - r_in^2)(R^2 - |u|^2))^3 on r_in <= |u| <= R, else 0,
    with the exact integral of f(|u|)/(u - z) dA: -(2 pi / z) times the
    integral of f(r) r dr over r < |z| (0 when z is in the hole)."""
    a, b = r_in * r_in, R * R
    # in s = r^2: f r dr = ((s - a)(b - s))^3 ds / 2
    prim = (np.polynomial.Polynomial([-a, 1.0]) * np.polynomial.Polynomial([b, -1.0])) ** 3
    prim = prim.integ()

    def f(w):
        s = np.abs(w) ** 2
        return np.where((s >= a) & (s <= b), ((s - a) * (b - s)) ** 3, 0.0).astype(complex)

    def exact(z):
        s = min(abs(z) ** 2, b)
        return 0j if s <= a else -2 * np.pi / z * 0.5 * (prim(s) - prim(a))

    return f, exact, np.pi * (prim(b) - prim(a))  # the last: integral of f dA


@pytest.mark.parametrize("k", [2.0, 1.0 + 1e-9, 0.3, 0.9, 0.98, 0.999, 1.0])
def test_hole_sweeps_match_radial_exact_values(k):
    # with k = r_in / |z|: a pole in the hole (k > 1) takes the annulus
    # sweep, one in the annulus the split sweep up to k = 0.99 and the pole
    # sweep beyond it, up to the hole's circle (k = 1)
    r_in, R = 0.4, 1.5
    f, exact, scale = _radial_shell(r_in, R)
    z = r_in / k * np.exp(0.7j)
    integrand = PlanarIntegrand(lambda w: f(w) / (w - z), (z,), R, r_in)
    sweep = quadrature._sweep(integrand, TIGHT)
    assert (sweep.pole, sweep.eps) == ((0j, r_in) if k > 1 else (z, 0.0))
    assert sweep.hole == (r_in if k <= 0.99 else 0.0)
    v, e = integrate_plane(integrand, TIGHT)
    want = -2j * exact(z)
    err = abs(v - want)
    assert err <= 1e-10 * max(abs(want), scale) and e >= err, (k, v, want, e)


def test_exclusion_ignores_inner_radius():
    # an explicit exclusion keeps the pole sweep, bit for bit, whatever
    # the hole
    f, _, _ = _radial_shell(0.4, 1.5)
    for z in (0.2 + 0.1j, 0.9 - 0.3j):
        params = QuadratureParams(rel_tol=1e-8, abs_tol=1e-10, singular_exclusion=1e-3)
        got = [
            integrate_plane(PlanarIntegrand(lambda w: f(w) / (w - z), (z,), 1.5, hole), params)
            for hole in (0.0, 0.4)
        ]
        assert got[0] == got[1]
