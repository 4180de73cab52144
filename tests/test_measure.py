import numpy as np
import pytest

from dbarcone import measure
from dbarcone.errors import InsufficientSamples, NotACone, ProjectionFailure, SingularAnchor
from dbarcone.fixtures import cone6, line2, make_form, quadric_cone
from dbarcone.forms import ZeroOneForm
from dbarcone.measure import (
    ConeAtlas,
    dist_sigma_path,
    l2_norm_form,
    l2_norm_function,
    sample_link,
    surface_integral,
)
from dbarcone.variety import gradient, project_batch

from oracles import in_box, nearest_covering_chart


def test_sample_link_line():
    L = line2()
    smp = sample_link(L, 80, 42)
    assert smp.points.shape == (80, 2)
    assert np.allclose(np.abs(smp.points[:, 0]), np.sqrt(2), atol=1e-9)
    assert np.allclose(smp.points[:, 1], 0.0, atol=1e-10)


def test_sample_link_pigeonhole_and_residuals():
    V = quadric_cone()
    smp = sample_link(V, 500, 7)
    norms = np.linalg.norm(smp.points, axis=1)
    assert np.allclose(norms, np.sqrt(3), atol=1e-9)
    assert (np.abs(smp.points).max(axis=1) >= 1.0 - 1e-9).all()
    assert np.abs(V.residuals(smp.points)).max() <= 1e-9


def test_sample_link_covers_cone6_components():
    smp = sample_link(cone6(), 120, 3)
    ratios = smp.points[:, 1] / smp.points[:, 0]
    angles = np.angle(ratios)
    sectors = np.unique(np.round(angles / (np.pi / 3)))
    assert len(sectors) >= 5  # sixth roots of unity all show up


def test_surface_integral_line_constants():
    L = line2()
    one = surface_integral(L, lambda Z: np.ones(Z.shape[0]), 1.0, 8000, 5)
    assert abs(one.value - np.pi) <= 5 * one.std_error + 1e-3
    sq = surface_integral(L, lambda Z: np.linalg.norm(Z, axis=1) ** 2, 1.0, 8000, 6)
    assert abs(sq.value - np.pi / 2) <= 5 * sq.std_error + 1e-3
    assert one.coverage_gaps == 0


def test_surface_integral_requires_cone():
    from dbarcone.fixtures import cusp

    with pytest.raises(NotACone):
        surface_integral(cusp(), lambda Z: np.ones(Z.shape[0]), 1.0, 100, 0)


def test_quadric_scaling_ratio():
    # integral of |z|^2 over Sigma cap B_rho scales like rho^(2d+2) = rho^6
    V = quadric_cone()
    f = lambda Z: np.linalg.norm(Z, axis=1) ** 2  # noqa: E731
    e1 = surface_integral(V, f, 1.0, 20000, 11)
    e2 = surface_integral(V, f, 2.0, 20000, 12)
    ratio = e2.value / e1.value
    sigma = ratio * np.hypot(e1.std_error / e1.value, e2.std_error / e2.value)
    assert abs(ratio - 64.0) <= 3 * sigma


def test_l2_norm_function_line():
    L = line2()
    est = l2_norm_function(L, lambda Z: np.ones(Z.shape[0], complex), 1.0, 8000, 13)
    assert abs(est.value - np.sqrt(np.pi)) <= 4 * est.std_error + 2e-3
    est2 = l2_norm_function(L, lambda Z: Z[:, 0], 1.0, 8000, 14)
    assert abs(est2.value - np.sqrt(np.pi / 2)) <= 4 * est2.std_error + 2e-3
    zero = l2_norm_function(L, lambda Z: np.zeros(Z.shape[0], complex), 1.0, 2000, 15)
    assert zero.value == 0.0


def test_l2_norm_form_line_matches_function():
    # on the line the orthonormal frame is dzbar_1, so the norms agree
    L = line2()
    form = make_form("bump-dbar", 2, r0=0.3, radius=1.0)

    def f1(Z):
        return form.coeff_matrix(Z)[:, 0]

    a = l2_norm_form(L, form, 1.0, 8000, 21)
    b = l2_norm_function(L, f1, 1.0, 8000, 21)
    assert abs(a.value - b.value) <= 3 * (a.std_error + b.std_error) + 1e-3


def test_l2_norm_form_representation_invariance():
    # adding a multiple of conj(grad Q) leaves the induced norm unchanged:
    # the modification annihilates tangent vectors
    V = quadric_cone()
    base = make_form("bump-dbar", 3, r0=0.3, radius=1.0)
    grads = gradient(V.polynomials[0])

    def modified_field(P):
        grad = np.stack([g.eval(P) for g in grads], axis=1)
        bump = np.exp(-np.sum(np.abs(P) ** 2, axis=-1))
        return base.coeff_matrix(P) + bump[:, None] * np.conj(grad)

    modified = ZeroOneForm(3, modified_field, base.support_radius, base.sup_bound, False)
    a = l2_norm_form(V, base, 1.0, 12000, 31)
    b = l2_norm_form(V, modified, 1.0, 12000, 31)
    assert abs(a.value - b.value) <= 3 * (a.std_error + b.std_error) + 2e-3


def test_dist_trivials():
    L = line2()
    assert dist_sigma_path(L, [0.5, 0], [0.5, 0]).length == 0.0
    d = dist_sigma_path(L, [0.5, 0], [0.2 + 0.1j, 0]).length
    assert abs(d - abs(0.5 - (0.2 + 0.1j))) < 1e-9


def test_dist_radial_pair_on_cone():
    V = quadric_cone()
    z = np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3)
    for t in (0.25, 0.7):
        d = dist_sigma_path(V, z, t * z).length
        assert abs(d - (1 - t)) < 1e-8


def test_dist_lower_bound_and_symmetry():
    V = quadric_cone()
    rng = np.random.default_rng(17)
    pts = sample_link(V, 6, 23).points / np.sqrt(3)
    for i in range(0, 6, 2):
        z, w = pts[i], pts[i + 1] * 0.6
        dzw = dist_sigma_path(V, z, w).length
        dwz = dist_sigma_path(V, w, z).length
        assert dzw >= np.linalg.norm(z - w) - 1e-12
        assert abs(dzw - dwz) < 1e-8


def test_dist_triangle_within_slack():
    V = quadric_cone()
    pts = sample_link(V, 3, 29).points / np.sqrt(3)
    z, v, w = pts
    steps = 24
    dzw = dist_sigma_path(V, z, w, steps).length
    dzv = dist_sigma_path(V, z, v, steps).length
    dvw = dist_sigma_path(V, v, w, steps).length
    slack = 2 * (np.linalg.norm(z - w) / steps)
    assert dzw <= dzv + dvw + slack + 1e-9


def test_dist_to_origin_and_near_singular_flag():
    V = quadric_cone()
    z = np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3)
    d = dist_sigma_path(V, z, np.zeros(3)).length
    assert abs(d - 1.0) < 1e-6
    # antipodal-ish pair on a cone routes near the origin
    path = dist_sigma_path(V, z * 0.5, -z * 0.5)
    assert path.length >= np.linalg.norm(z) * 0.5


def _quadric_pair():
    V = quadric_cone()
    z, w = sample_link(V, 2, 23).points / np.sqrt(3)
    return V, z, 0.6 * w


def test_dist_projects_the_chord_once(monkeypatch):
    V, z, w = _quadric_pair()
    calls = []

    def counting(variety, pts, *args, **kwargs):
        calls.append(pts.shape[0])
        return project_batch(variety, pts, *args, **kwargs)

    monkeypatch.setattr(measure, "project_batch", counting)
    path = dist_sigma_path(V, z, w, 24)
    assert calls == [25]
    assert path.length >= np.linalg.norm(z - w)


def test_dist_projection_failure_raises(monkeypatch):
    V, z, w = _quadric_pair()

    def failing(variety, pts, *args, **kwargs):
        return pts.copy(), np.zeros(pts.shape[0], dtype=bool)

    monkeypatch.setattr(measure, "project_batch", failing)
    with pytest.raises(ProjectionFailure):
        dist_sigma_path(V, z, w)


@pytest.mark.parametrize(
    "make, n_anchors", [(quadric_cone, 24), (quadric_cone, 4), (cone6, 24), (cone6, 3)]
)
def test_assign_matches_nearest_covering_loop(make, n_anchors):
    V = make()
    atlas = ConeAtlas(V, n_anchors, 41)
    link = sample_link(V, 100, 97).points
    # ambient points off the cone: every chart rejects them, by the box
    # test or by the Newton match, so assign tries all ranks
    rng = np.random.default_rng(98)
    off = rng.standard_normal((20, V.ambient_dim)) + 1j * rng.standard_normal((20, V.ambient_dim))
    pts = np.concatenate([link, off])
    unit = pts / np.linalg.norm(pts, axis=1)[:, None]
    ref = nearest_covering_chart(atlas, unit)
    assert np.array_equal(atlas.assign(unit), ref)
    assert (ref[:100] >= 0).any() and (ref[100:] < 0).all()
    if n_anchors < 24:
        # the small atlases leave gaps on the link too: quadric points on
        # the other square root, cone6 points on lines no anchor lies on
        assert (ref[:100] < 0).any()
    if atlas.m:
        assert not all(in_box(atlas, j, unit).all() for j in range(len(atlas.charts)))


def test_atlas_skips_failed_charts(monkeypatch):
    build = measure.build_chart
    calls = []

    def first_fails(variety, anchor):
        calls.append(anchor)
        if len(calls) == 1:
            raise SingularAnchor("first anchor rejected")
        return build(variety, anchor)

    monkeypatch.setattr(measure, "build_chart", first_fails)
    atlas = ConeAtlas(quadric_cone(), 5, 3)
    assert len(calls) == 5 and len(atlas.charts) == 4


def test_atlas_build_propagates_unexpected_errors(monkeypatch):
    def broken(variety, anchor):
        raise RuntimeError("bug in chart construction")

    monkeypatch.setattr(measure, "build_chart", broken)
    with pytest.raises(RuntimeError, match="bug in chart construction"):
        ConeAtlas(quadric_cone(), 5, 3)


def test_one_chart_surface_atlas_rejected():
    # box size comes from the spacing between anchors, which one chart of a
    # surface does not have; a curve's atlas has no slice box to size
    with pytest.raises(InsufficientSamples, match="2 charts"):
        ConeAtlas(quadric_cone(), 1, 5)
    atlas = ConeAtlas(line2(), 1, 5)
    assert len(atlas.charts) == 1 and atlas.delta == 0.0
