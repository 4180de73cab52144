"""The cone over the twisted cubic: three quadrics in C^4 cut out a surface
(d = 2), so every slice Jacobian has more constraints (K = 3) than
dependent coordinates (codimension 2) and takes the tall least-squares
branch of the Newton step and of the slice tangents."""

import math

import numpy as np
import pytest

from dbarcone.charts import build_chart, chart_frames, slice_newton, slice_tangents
from dbarcone.measure import sample_link, surface_integral
from dbarcone.variety import SparsePolynomial, Variety, Weights

from oracles import chart_frames_by_qr, cone_mc_by_charts


def twisted_cubic() -> Variety:
    polys = [
        SparsePolynomial.from_terms(4, [((1, 0, 1, 0), 1.0), ((0, 2, 0, 0), -1.0)]),
        SparsePolynomial.from_terms(4, [((0, 1, 0, 1), 1.0), ((0, 0, 2, 0), -1.0)]),
        SparsePolynomial.from_terms(4, [((1, 0, 0, 1), 1.0), ((0, 1, 1, 0), -1.0)]),
    ]
    return Variety.build(Weights((1, 1, 1, 1)), polys, pure_dim=2)


@pytest.fixture(scope="module")
def cubic():
    return twisted_cubic()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chart_frames_match_pivoted_qr(cubic, seed):
    # two Gram-Schmidt steps over three columns of a rank-2, 3 x 3 slice
    # Jacobian pick LAPACK's dependent columns, in its order
    anchors = sample_link(cubic, 2000, seed).points
    got, ref = chart_frames(cubic, anchors), chart_frames_by_qr(cubic, anchors)
    assert all(np.array_equal(g, r) for g, r in zip(got, ref)) and got[-1].all()


@pytest.fixture(scope="module")
def first_chart(cubic):
    return build_chart(cubic, sample_link(cubic, 8, 1).points[0])


def test_tall_slice_newton_rows_match_one_row_solves(cubic, first_chart):
    ch = first_chart
    assert len(cubic.polynomials) > len(ch.dep)
    rng = np.random.default_rng(9)
    X = ch.x_anchor + 0.3 * (rng.standard_normal((12, 1)) + 1j * rng.standard_normal((12, 1)))
    starts = np.tile(ch.anchor, (12, 1))
    starts[:, list(ch.free)] = X
    dep = np.tile(ch.dep, (12, 1))
    Y, ok = slice_newton(cubic, starts, dep)
    assert ok.all()
    assert np.abs(cubic.residuals(Y)).max() <= 1e-10 * np.linalg.norm(Y, axis=1).max() ** 2
    for i in range(12):
        Y1, ok1 = slice_newton(cubic, starts[i : i + 1], dep[i : i + 1])
        assert ok1[0] and np.array_equal(Y[i], Y1[0])
    # the tall tangent block solves the consistent linearized constraints
    D = slice_tangents(cubic, Y, ch.free, ch.dep)  # (12, 4, 1)
    assert np.abs(cubic.jacobian(Y) @ D).max() <= 1e-10


def test_norm2_surface_integral_matches_exact_value(cubic):
    # deg pi^d rho^(2d+2) / ((d+1) (d-1)!) = pi^2 rho^6 for deg 3, d = 2
    rho = 0.8
    exact = 3 * math.pi ** 2 * rho ** 6 / (3 * 1)
    est = surface_integral(cubic, lambda Z: np.sum(np.abs(Z) ** 2, axis=1), rho, 4000, 3)
    assert est.coverage_gaps == 0 and est.newton_failures == 0
    assert abs(est.value - exact) <= 5 * est.std_error


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_estimate_equals_per_chart_loop(cubic, seed):
    # the tall tangent blocks of rows from every chart in one batch
    f = lambda Z: np.sum(np.abs(Z) ** 2, axis=1)  # noqa: E731
    est = surface_integral(cubic, f, 0.8, 1200, seed)
    assert est == cone_mc_by_charts(cubic, 0.8, 1200, seed, point_fn=f)
