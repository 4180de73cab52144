import numpy as np
import pytest

from dbarcone.charts import Chart, build_chart, chart_frames, slice_newton, slice_tangents
from dbarcone.errors import (
    NewtonDivergence,
    PivotTooSmall,
    SingularAnchor,
)
from dbarcone.fixtures import cone6, cusp, line2, make_form, quadric_cone
from dbarcone.measure import sample_link
from dbarcone.variety import contains, is_regular

from oracles import chart_frames_by_qr, fd_chart_pullback

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


@pytest.fixture(scope="module")
def line_chart():
    return build_chart(line2(), [SQRT2, 0.0])


@pytest.fixture(scope="module")
def quadric_chart():
    xi = np.array([1.0, 1.0, 1.0]) / SQRT3 * SQRT3
    return build_chart(quadric_cone(), xi)


def assert_frames_equal(V, anchors):
    got, ref = chart_frames(V, anchors), chart_frames_by_qr(V, anchors)
    assert all(np.array_equal(g, r) for g, r in zip(got, ref))
    return got[-1]


@pytest.mark.parametrize("make, count", [(line2, 200), (cone6, 400), (quadric_cone, 2000)],
                         ids=["line2", "cone6", "quadric-cone"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chart_frames_match_pivoted_qr(make, count, seed):
    # pivots, free and dep of every sampled anchor equal LAPACK's pivoted
    # QR of its slice Jacobian, and every link anchor passes the mask
    V = make()
    assert assert_frames_equal(V, sample_link(V, count, seed).points).all()


@pytest.mark.parametrize(
    "make, anchor", [(quadric_cone, [1.0, 1.0, 1.0]), (line2, [SQRT2, 0.0])],
    ids=["quadric-cone", "line2"],
)
def test_chart_frames_tie_anchors_match_pivoted_qr(make, anchor):
    # every |anchor_k| ties on the quadric; the line's slice is one column
    assert assert_frames_equal(make(), np.array([anchor], dtype=complex)).all()


@pytest.mark.parametrize("make", [line2, cone6, quadric_cone], ids=lambda f: f.__name__)
def test_chart_frames_mask_matches_pivoted_qr_rank(make):
    # off the variety and at the origin some rows fail the rank rule (a
    # vanishing gradient, or line2's pivot column z2); the mask flags the
    # rows that pivoted QR flags
    V = make()
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((100, V.ambient_dim)) + 1j * rng.standard_normal((100, V.ambient_dim))
    pts[:2] = 0.0
    ok = assert_frames_equal(V, pts)
    assert ok.any() and not ok.all()


def test_line_chart_shape(line_chart):
    assert line_chart.pivot == 0
    assert line_chart.slice_dim == 0
    z = line_chart.eval(0.5 + 0.25j)
    assert np.allclose(z, [(0.5 + 0.25j) * SQRT2, 0.0])


def test_singular_anchor_rejected():
    with pytest.raises(SingularAnchor):
        build_chart(quadric_cone(), [0.0, 0.0, 0.0])


def test_pivot_too_small_rejected():
    with pytest.raises(PivotTooSmall):
        build_chart(quadric_cone(), np.array([0.5, 0.5, 0.5]))


def test_anchor_recovery(quadric_chart):
    z = quadric_chart.eval(1.0, quadric_chart.x_anchor)
    assert np.linalg.norm(z - quadric_chart.anchor) < 1e-12


def test_eval_zero_scale(quadric_chart):
    assert np.linalg.norm(quadric_chart.eval(0.0, quadric_chart.x_anchor)) == 0.0


def test_eval_membership_and_regularity(quadric_chart):
    V = quadric_cone()
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = 0.3 + 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
        x = quadric_chart.x_anchor + 0.1 * (
            rng.standard_normal() + 1j * rng.standard_normal()
        )
        z = quadric_chart.eval(s, x)
        assert contains(V, z, tol=1e-10)
        if abs(s) > 1e-3:
            assert is_regular(V, z)


def test_outside_domain_rejected(quadric_chart):
    # charts have no radius check: a non-finite x is rejected before any
    # Newton step, and the slice Newton's convergence test rejects an x
    # where y(x) cannot be solved
    for bad in (np.nan, np.inf, 1j * np.inf):
        with pytest.raises(NewtonDivergence):
            quadric_chart.eval(0.5, quadric_chart.x_anchor + bad)


def test_cone_slice_scaling_is_exact(quadric_chart):
    # for unit weights Pi(s, x) = s * Pi(1, x) to machine precision
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = rng.standard_normal() + 1j * rng.standard_normal()
        x = quadric_chart.x_anchor + 0.08 * (
            rng.standard_normal() + 1j * rng.standard_normal()
        )
        assert np.allclose(
            quadric_chart.eval(s, x), s * quadric_chart.eval(1.0, x), atol=1e-13
        )


def test_chart_residual_through_scaling(quadric_chart):
    # Q(Pi(s, x)) vanishes because the anchor slice satisfies Q = 0
    V = quadric_cone()
    for s in (2.0, 0.5 + 1.0j, -3.0j):
        z = quadric_chart.eval(s, quadric_chart.x_anchor + 0.05j)
        assert np.abs(V.residuals(z)).max() < 1e-10 * max(1, abs(s) ** 2 * 3)


def test_pullback_zero_form(quadric_chart):
    form = make_form("zero", 3)
    F0, FJ = quadric_chart.pullback_form(form, 0.5, quadric_chart.x_anchor)
    assert F0 == 0 and np.all(FJ == 0)


def test_pullback_line_single_term(line_chart):
    # m = 0: F0(s) = f1(Pi(s)) * conj(anchor_1)
    form = make_form("bump-dbar", 2, r0=0.3, radius=1.0)
    s = 0.4 + 0.1j
    F0, FJ = line_chart.pullback_form(form, s)
    z = line_chart.eval(s)
    expected = form.coeff_matrix(z.reshape(1, -1))[0, 0] * np.conj(SQRT2)
    assert abs(F0 - expected) < 1e-14
    assert FJ.size == 0


def test_pullback_matches_fd_oracle(quadric_chart):
    form = make_form(
        "bump-dbar", 3, h_terms=[((0, 0, 0), 1.0), ((1, 0, 0), 0.5)], r0=0.3, radius=1.0
    )
    rng = np.random.default_rng(8)
    for _ in range(6):
        s = 0.35 + 0.2 * (rng.standard_normal() + 1j * rng.standard_normal())
        x = quadric_chart.x_anchor + 0.08 * (
            rng.standard_normal() + 1j * rng.standard_normal()
        )
        F0, FJ = quadric_chart.pullback_form(form, s, x)
        F0_fd, FJ_fd = fd_chart_pullback(quadric_chart, form, s, x)
        assert abs(F0 - F0_fd) < 1e-5
        assert np.all(np.abs(FJ - FJ_fd) < 1e-5)


def test_pullback_vanishes_outside_support(quadric_chart):
    form = make_form("bump-dbar", 3, r0=0.3, radius=1.0)
    # |Pi(s, x)| = |s| * sqrt(3) > 1 kills every coefficient
    F0, FJ = quadric_chart.pullback_form(form, 2.0, quadric_chart.x_anchor)
    assert F0 == 0 and np.all(FJ == 0)


def test_cusp_chart_weighted_parametrization():
    X = cusp()
    ch = build_chart(X, [1.0, 1.0])
    assert ch.slice_dim == 0
    for s in (0.7, 0.4 + 0.3j):
        z = ch.eval(s)
        assert np.allclose(z, [s ** 3, s ** 2])
        assert contains(X, z, tol=1e-12)


def test_singular_row_fails_alone():
    # z2 = 0 makes dQ/dz2 = -6 z2^5 exactly zero: that row cannot take a
    # Newton step, and the rows next to it must still converge as if alone
    V = cone6()
    ch = build_chart(V, [1.0, 1.0])
    assert ch.dep == (1,)
    starts = np.tile(ch.anchor, (5, 1))
    starts[:, 1] += [0.05, -0.1j, 0.0, 0.08 + 0.03j, 0.02]
    starts[2, 1] = 0.0
    dep = np.tile(ch.dep, (5, 1))
    Y, ok = slice_newton(V, starts, dep)
    assert ok.tolist() == [True, True, False, True, True]
    for i in (0, 1, 3, 4):
        Y1, ok1 = slice_newton(V, starts[i : i + 1], dep[i : i + 1])
        assert ok1[0]
        assert np.array_equal(Y[i], Y1[0])
        assert abs(Y[i, 1] - 1.0) < 1e-12  # the anchor's branch


def test_slice_newton_rows_match_across_charts():
    # one batch over several charts gives each row the point its own chart's
    # slice_batch gives
    V = quadric_cone()
    charts = [build_chart(V, p) for p in sample_link(V, 3, 19).points]
    rng = np.random.default_rng(4)
    starts, deps, solo = [], [], []
    for ch in charts:
        X = ch.x_anchor + 0.2 * (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1)))
        Y, ok = ch.slice_batch(X)
        assert ok.all()
        start = np.tile(ch.anchor, (4, 1))
        start[:, list(ch.free)] = X
        starts.append(start)
        deps.append(np.tile(ch.dep, (4, 1)))
        solo.append(Y)
    Y, ok = slice_newton(V, np.concatenate(starts), np.concatenate(deps))
    assert ok.all()
    assert np.array_equal(Y, np.concatenate(solo))


def test_slice_tangents_rows_match_across_charts():
    # per-row free/dep over rows of several charts, interleaved, give each
    # row the tangents of a one-chart call bit for bit
    V = quadric_cone()
    charts = [build_chart(V, p) for p in sample_link(V, 6, 19).points]
    assert len({(ch.free, ch.dep) for ch in charts}) > 1
    rng = np.random.default_rng(5)
    owner = rng.permutation(np.repeat(np.arange(len(charts)), 5))
    Y = np.empty((owner.size, 3), dtype=complex)
    solo = np.empty((owner.size, 3, 1), dtype=complex)
    for i, ch in enumerate(charts):
        rows = np.flatnonzero(owner == i)
        X = ch.x_anchor + 0.2 * (rng.standard_normal((rows.size, 1))
                                 + 1j * rng.standard_normal((rows.size, 1)))
        Y[rows], ok = ch.slice_batch(X)
        assert ok.all()
        solo[rows] = slice_tangents(V, Y[rows], ch.free, ch.dep)
    free = np.array([charts[i].free for i in owner])
    dep = np.array([charts[i].dep for i in owner])
    assert np.array_equal(slice_tangents(V, Y, free, dep), solo)


def test_build_chart_runs_no_slice_newton(monkeypatch):
    # construction only picks the pivot and the free coordinates; every
    # slice solve happens where the chart is used
    calls = []
    solve = Chart.slice_batch

    def counted(self, X):
        calls.append(len(np.atleast_2d(X)))
        return solve(self, X)

    monkeypatch.setattr(Chart, "slice_batch", counted)
    V = quadric_cone()
    for p in sample_link(V, 4, 61).points:
        build_chart(V, p)
    assert calls == []
