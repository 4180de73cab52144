import numpy as np
import pytest

from dbarcone.fixtures import make_form
from dbarcone.forms import (
    ZeroOneForm,
    _sq_norm,
    bump_dbar_form,
    radial_cutoff,
    raw_bump_form,
    scale_form,
    zero_form,
)
from dbarcone.solver import theta_pullback_form
from dbarcone.variety import SparsePolynomial, Weights


def test_support_mask_enforced():
    form = make_form("bump-dbar", 2, r0=0.3, radius=1.0)
    outside = np.array([[1.5, 0.0], [0.0, 2.0 + 1.0j]])
    assert np.all(form.coeff_matrix(outside) == 0)
    raw = make_form("raw-bump", 2, r0=0.3, radius=1.0)
    assert np.all(raw.coeff_matrix(outside) == 0)


def _row_with_sq_norm(row: np.ndarray, target: float) -> np.ndarray:
    """`row` with the real part of its first entry stepped one float at a
    time until the row's |z|^2 is exactly `target`."""
    row = row.copy()
    for _ in range(1000):
        t = _sq_norm(row[None, :])[0]
        if t == target:
            return row
        row[0] = complex(np.nextafter(row[0].real, np.inf if t < target else -np.inf), row[0].imag)
    raise AssertionError(f"no row with |z|^2 = {target!r}")


def test_support_boundary_is_exclusive():
    # rows with |z|^2 at R^2 and one float either side: rows on or outside
    # the sphere are zero, rows inside get the field's value, and the
    # gathered batch gives the same bits as the all-inside batch
    R = 0.8
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    dirs[:, 0] = 0.3 + 0.1j  # a small first entry steps |z|^2 by less than one float
    dirs[:, 1:] *= np.sqrt(R * R - 0.1) / np.linalg.norm(dirs[:, 1:], axis=1)[:, None]
    targets = [np.nextafter(R * R, 0.0), R * R, np.nextafter(R * R, np.inf)]
    rows = np.array([_row_with_sq_norm(d, t) for d, t in zip(dirs, targets)])
    ones = ZeroOneForm(3, np.ones_like, R, 1.0, False)
    assert np.array_equal(ones.coeff_matrix(rows), [[1.0] * 3, [0.0] * 3, [0.0] * 3])
    bump = make_form("bump-dbar", 3, h_terms=[((0, 0, 0), 1.0), ((1, 0, 0), 0.5)],
                     r0=0.3, radius=R)
    inside = np.concatenate([0.5 * dirs, rows[:1]])
    mixed = np.concatenate([inside[:2], rows[1:], inside[2:]])
    vals = bump.coeff_matrix(mixed)
    assert np.all(vals[2:4] == 0)
    assert np.array_equal(np.delete(vals, [2, 3], axis=0), bump.coeff_matrix(inside))


def test_cutoff_plateau_values():
    pts = np.array([[0.1, 0.0], [0.2, 0.1], [3.0, 0.0]])
    chi = radial_cutoff(pts, 0.3, 1.0)
    assert chi[0] == 1.0 and chi[1] == 1.0 and chi[2] == 0.0
    mid = radial_cutoff(np.array([[0.7, 0.0]]), 0.3, 1.0)[0]
    assert 0.0 < mid < 1.0


def test_sup_bound_dominates_fresh_samples():
    form = make_form("bump-dbar", 3, h_terms=[((1, 0, 0), 1.0)], r0=0.2, radius=0.8)
    rng = np.random.default_rng(99)
    pts = rng.standard_normal((2000, 3)) + 1j * rng.standard_normal((2000, 3))
    pts *= (rng.uniform(0, 0.8, 2000) / np.linalg.norm(pts, axis=1))[:, None]
    vals = np.abs(form.coeff_matrix(pts))
    assert vals.max() <= form.sup_bound * 1.05  # estimate is a near-sup proxy


def test_bump_dbar_is_gradient_of_plateau():
    # f_k = h * chi'(|z|^2) * z_k by construction
    h = SparsePolynomial.from_terms(2, [((0, 0), 2.0)])
    form = bump_dbar_form(h, 0.3, 1.0)
    z = np.array([[0.5 + 0.1j, 0.3 - 0.2j]])
    vals = form.coeff_matrix(z)
    ratio = vals[0, 0] / z[0, 0], vals[0, 1] / z[0, 1]
    assert abs(ratio[0] - ratio[1]) < 1e-14  # shared radial factor


def test_coeff_matrix_evaluates_h_once(monkeypatch):
    # one field for all coefficients: h and chi' are evaluated once per
    # batch, not once per coordinate
    form = make_form("bump-dbar", 3, h_terms=[((0, 0, 0), 1.0), ((1, 0, 0), 0.5)],
                     r0=0.3, radius=1.0)
    evaluate = SparsePolynomial.eval
    rows = []

    def counting(self, pts):
        rows.append(len(pts))
        return evaluate(self, pts)

    monkeypatch.setattr(SparsePolynomial, "eval", counting)
    pts = np.array([[0.4, 0.1j, 0.2], [0.1, 0.2, 0.3 - 0.1j], [2.0, 0.0, 0.0]])
    vals = form.coeff_matrix(pts)
    assert rows == [2]  # the point outside the support is not evaluated
    assert np.all(vals[2] == 0) and np.all(vals[:2] != 0)


def test_zero_form_and_flags():
    z = zero_form(3)
    assert z.dbar_closed and z.sup_bound == 0.0
    raw = raw_bump_form(2, 0.3, 1.0)
    assert not raw.dbar_closed
    bump = make_form("bump-dbar", 2)
    assert bump.dbar_closed


def test_scale_form():
    a = make_form("bump-dbar", 2, r0=0.3, radius=1.0)
    pts = np.array([[0.4, 0.1], [0.05, 0.0]])
    s = scale_form(3.0, a)
    assert np.allclose(s.coeff_matrix(pts), 3.0 * a.coeff_matrix(pts))
    assert s.sup_bound == 3.0 * a.sup_bound


def test_make_form_validation():
    with pytest.raises(ValueError):
        make_form("bump-dbar", 2, r0=1.5, radius=1.0)
    with pytest.raises(KeyError):
        make_form("nope", 2)


def test_builtin_forms_give_complex_coefficients():
    # every builtin field returns complex128 (N, n): the all-inside batch
    # gets the field's own value, the mixed batch the gathered rows
    bump = make_form("bump-dbar", 3, h_terms=[((0, 0, 0), 1.0), ((1, 0, 0), 0.5)],
                     r0=0.3, radius=1.0)
    raw = make_form("raw-bump", 3, r0=0.3, radius=1.0)
    forms = {
        "zero": make_form("zero", 3),
        "bump-dbar": bump,
        "raw-bump": raw,
        "scale": scale_form(0.5j, raw),
        "theta-pullback": theta_pullback_form(bump, Weights((1, 2, 3))),
    }
    rng = np.random.default_rng(12)
    dirs = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.linspace(0.05, 0.95, 40)
    for name, form in forms.items():
        inside = radii[:, None] * dirs
        mixed = inside.copy()
        mixed[::3] *= 3.0 * form.support_radius
        for pts in (inside, mixed):
            vals = form.coeff_matrix(pts)
            assert vals.dtype == np.complex128 and vals.shape == (40, 3), name
        kept = np.linalg.norm(mixed, axis=1) < form.support_radius
        assert 0 < kept.sum() < 40
        vals = form.coeff_matrix(mixed)
        assert np.all(vals[~kept] == 0), name
        assert np.array_equal(vals[kept], form.coeff_matrix(mixed[kept])), name


def test_inner_radius_promise():
    # bump-dbar states r0 and vanishes on that closed ball, scale_form keeps
    # the promise, forms without one state 0, and a radius outside
    # [0, support_radius) is refused
    bump = make_form("bump-dbar", 2, h_terms=[((0, 0), 1.0), ((1, 0), 0.5)], r0=0.3, radius=1.0)
    assert bump.inner_radius == 0.3 and scale_form(2.0 - 1.0j, bump).inner_radius == 0.3
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    P = 0.3 * np.sqrt(rng.uniform(0.0, 1.0, 500))[:, None] * dirs
    assert np.all(bump.coeff_matrix(P) == 0)
    assert make_form("raw-bump", 2, r0=0.3, radius=1.0).inner_radius == 0.0
    assert zero_form(2).inner_radius == 0.0
    for bad in (-0.1, 1.0):
        with pytest.raises(ValueError, match="inner_radius"):
            ZeroOneForm(2, np.zeros_like, 1.0, 0.0, True, bad)
