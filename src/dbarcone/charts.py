"""Generalized-cone parametrizations around regular points.

A chart anchored at a regular point xi with |xi_pivot| >= 1 parametrizes a
neighborhood of the orbit through xi as

    Pi(s, x) = s^beta * y(x),    y(x) on the slice {z_pivot = xi_pivot},

where the slice point y(x) fixes the pivot coordinate, carries m = d - 1
free coordinates x (chosen by pivoted QR on the slice Jacobian), and solves
the remaining coordinates by Newton's method.  Charts also provide the
pullback coefficients of a (0,1)-form through Pi.  `slice_tangents` is the
one implicit-function Jacobian dy/dx, batched: the pullback, the tangent
frames and the surface measure all use it.

Charts carry no trusted radius.  A point is rejected where the slice Newton
does not converge (`NewtonDivergence`, or the `ok` mask that the Monte Carlo
counts as `newton_failures`) or fails `ConeAtlas.assign`'s branch match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ImplicitFunctionFailure,
    NewtonDivergence,
    PivotTooSmall,
    SingularAnchor,
)
from .forms import ZeroOneForm
from .variety import Variety, act, damped_newton, is_regular, newton_steps


def slice_newton(
    variety: Variety, Y0: np.ndarray, dep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the dependent slice coordinates of a batch of points.

    Y0: (N, n) start points; dep: (N, r) per-row indices of the coordinates
    to solve, every other coordinate stays fixed.  Rows may belong to
    different charts: `damped_newton` treats each row alone, so a row gives
    the same point in any batch.  Returns (Y, ok) with a convergence mask
    at the 1e-10 membership test.
    """
    return damped_newton(variety, Y0, dep, 1e-12, 1e-10, 40, 15)


def slice_tangents(variety: Variety, Y: np.ndarray, free, dep) -> np.ndarray:
    """Ambient derivatives dy/dx at a batch of slice points: (M, n) ->
    (M, n, m) for the free coordinates `free` and the solved ones `dep`,
    either one chart's (m,) and (r,) indices or per-row (M, m) and (M, r)
    ones, so that rows may belong to different charts.

    The pivot row is zero, free rows are unit vectors, and the dependent
    rows solve the linearized constraints J_dep D = -J_free: by one division
    when J_dep is 1 x 1 (a zero one raises), otherwise by the ridge step of
    `newton_steps`, least squares when there are at least as many
    constraints as dependent coordinates.  Each row's blocks depend on that
    row alone.
    """
    M, n = Y.shape
    free = np.asarray(free, dtype=np.intp)
    dep = np.asarray(dep, dtype=np.intp)
    m = free.shape[-1]
    out = np.zeros((M, n, m), dtype=np.complex128)
    if m == 0:
        return out
    free = np.broadcast_to(free, (M, m))
    dep = np.broadcast_to(dep, (M, dep.shape[-1]))
    J = variety.jacobian(Y)  # (M, K, n)
    D, singular = newton_steps(
        np.take_along_axis(J, dep[:, None, :], axis=2),
        np.take_along_axis(J, free[:, None, :], axis=2),
    )  # (M, r, m)
    if singular.any():
        raise ImplicitFunctionFailure("singular dependent Jacobian at a slice point")
    rows = np.arange(M)[:, None]
    out[rows, free, np.arange(m)] = 1.0
    out[rows, dep, :] = D
    return out


@dataclass(frozen=True, eq=False)
class Chart:
    variety: Variety
    anchor: np.ndarray  # (n,), regular point with |anchor[pivot]| >= 1
    pivot: int
    free: tuple[int, ...]  # ambient indices of the m free slice coordinates
    dep: tuple[int, ...]  # ambient indices of the solved slice coordinates
    x_anchor: np.ndarray  # (m,) free coordinates of the anchor
    slice_dim: int  # m = d - 1

    # -- slice solving ---------------------------------------------------

    def slice_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve the dependent coordinates for a batch of free coordinates.

        X: (N, m) -> (Y, ok) with Y: (N, n) slice points (pivot fixed) and a
        convergence mask.  Newton starts from the anchor's dependent
        coordinates, so it follows the anchor's branch of the slice.
        """
        X = np.asarray(X, dtype=np.complex128)
        if self.slice_dim == 0:
            N = X.shape[0] if X.ndim == 2 else 1
        else:
            X = X.reshape(-1, self.slice_dim)
            N = X.shape[0]
        Y = np.tile(self.anchor, (N, 1))
        if self.slice_dim:
            Y[:, list(self.free)] = X
        dep = np.tile(np.asarray(self.dep, dtype=np.intp), (N, 1))
        return slice_newton(self.variety, Y, dep)

    def slice_point(self, x) -> np.ndarray:
        """One slice point y(x); raises NewtonDivergence when x is not
        finite or the slice Newton does not converge."""
        x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
        if not np.all(np.isfinite(x)):
            raise NewtonDivergence(f"slice coordinates are not finite: x = {x}")
        Y, ok = self.slice_batch(x.reshape(1, -1))
        if not ok[0]:
            raise NewtonDivergence(f"slice Newton failed at x = {x}")
        return Y[0]

    # -- evaluation ------------------------------------------------------

    def eval(self, s: complex, x=()) -> np.ndarray:
        """Pi(s, x) = s^beta * y(x); Pi(0, x) = 0."""
        y = self.slice_point(x)
        return act(complex(s), self.variety.weights, y)

    # -- form pullback ---------------------------------------------------

    def pullback_form(
        self, form: ZeroOneForm, s: complex, x=()
    ) -> tuple[complex, np.ndarray]:
        """Coefficients (F0, F_j) of the pullback of the form through Pi:

        F0  = sum_k f_k(Pi) beta_k conj(s^(beta_k - 1) y_k)
        F_j = sum_{k != pivot} f_k(Pi) conj(s^beta_k dy_k/dx_j)
        """
        return self.pullback_at_slice(form, s, self.slice_point(x))

    def pullback_at_slice(
        self, form: ZeroOneForm, s: complex, y: np.ndarray
    ) -> tuple[complex, np.ndarray]:
        """`pullback_form` at a solved slice point y = y(x), for callers
        that reuse y."""
        s = complex(s)
        beta = self.variety.weights.as_array()
        z = act(s, self.variety.weights, y)
        f = form.coeff_matrix(z.reshape(1, -1))[0]  # (n,)
        F0 = complex(np.sum(f * beta * np.conj(s ** (beta - 1) * y)))
        Dy = slice_tangents(self.variety, y[None, :], self.free, self.dep)[0]  # (n, m)
        FJ = np.sum(f[:, None] * np.conj(s ** beta[:, None] * Dy), axis=0)
        return F0, FJ


def chart_frames(variety: Variety, anchors: np.ndarray) -> tuple[np.ndarray, ...]:
    """Chart frames of a batch of anchors (N, n): pivots (N,), free (N, m)
    and dependent (N, r) indices, the free coordinates (N, m) and a rank
    mask (N,); nothing is validated (see `build_chart`).  The pivot
    maximizes |anchor_k|.  The other Jacobian columns give the r = n - d
    dependent ones by column-pivoted Gram-Schmidt in LAPACK's pivoted-QR
    order (swap the column of largest residual norm into place, project it
    out of the later ones); the free ones are the rest, in that order.  A
    row passes if the r leading norms, and no norm left after them, exceed
    1e-10 times the first: pivoted QR's rank rule."""
    N, n = anchors.shape
    r, rows = n - variety.pure_dim, np.arange(N)
    pivots = np.argmax(np.abs(anchors), axis=1)
    cols = np.tile(np.arange(n - 1), (N, 1))
    cols += cols >= pivots[:, None]  # each row's columns other than its pivot
    C = np.take_along_axis(variety.jacobian(anchors), cols[:, None, :], axis=2)  # (N, K, n-1)
    lead = np.zeros((N, r))
    for i in range(r):
        norms = np.linalg.norm(C[:, :, i:], axis=1)
        j = i + np.argmax(norms, axis=1)
        lead[:, i] = norms.max(axis=1)
        cols[rows, i], cols[rows, j] = cols[rows, j], cols[rows, i]
        C[rows, :, i], C[rows, :, j] = C[rows, :, j], C[rows, :, i]
        q = C[:, :, i] / np.where(lead[:, i] > 0, lead[:, i], 1.0)[:, None]
        tail = C[:, :, i + 1:]
        tail -= q[:, :, None] * np.sum(q.conj()[:, :, None] * tail, axis=1, keepdims=True)
    rest = np.linalg.norm(C[:, :, r:], axis=1).max(axis=1, initial=0.0)
    ok = np.all(lead > 1e-10 * lead[:, :1], axis=1) & (rest <= 1e-10 * lead[:, 0])
    return pivots, cols[:, r:], cols[:, :r], np.take_along_axis(anchors, cols[:, r:], axis=1), ok


def chart_views(variety: Variety, anchors, pivots, free, dep, x_anchors) -> list[Chart]:
    """`Chart` views of anchors and their `chart_frames` rows."""
    return [Chart(variety, a, int(p), tuple(f.tolist()), tuple(g.tolist()), x, f.size)
            for a, p, f, g, x in zip(anchors, pivots, free, dep, x_anchors)]


def build_chart(variety: Variety, anchor) -> Chart:
    """`chart_frames` of one anchor, validated: the chart at a regular point
    whose largest |anchor_k| is >= 1 (rescale to the link first)."""
    anchor = np.asarray(anchor, dtype=np.complex128)
    if variety.pure_dim is None:
        raise ValueError("build_chart requires pure_dim")
    if np.linalg.norm(anchor) == 0.0 or not is_regular(variety, anchor):
        raise SingularAnchor(f"anchor {anchor} is not a regular point")
    *frames, ok = chart_frames(variety, anchor[None, :])
    top = abs(anchor[frames[0][0]])
    if top < 1.0 - 1e-9:
        raise PivotTooSmall(f"max |anchor_k| = {top:.3g} < 1; rescale to the link first")
    if not ok[0]:
        raise ImplicitFunctionFailure("slice Jacobian rank != expected corank at the anchor")
    return chart_views(variety, anchor[None, :], *frames)[0]
