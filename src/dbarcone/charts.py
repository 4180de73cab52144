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

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ImplicitFunctionFailure,
    NewtonDivergence,
    NotInChart,
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
    (M, n, m) for the free coordinates `free` and the solved ones `dep`.

    The pivot row is zero, free rows are unit vectors, and the dependent
    rows solve the linearized constraints J_dep D = -J_free, in the least
    squares sense of `newton_steps` when there are more constraints than
    dependent coordinates.
    """
    free, dep = list(free), list(dep)
    M, n = Y.shape
    m = len(free)
    out = np.zeros((M, n, m), dtype=np.complex128)
    if m == 0:
        return out
    J = variety.jacobian(Y)  # (M, K, n)
    D, singular = newton_steps(J[:, :, dep], J[:, :, free])  # (M, r, m)
    if singular.any():
        raise ImplicitFunctionFailure("singular dependent Jacobian at a slice point")
    out[:, free, np.arange(m)] = 1.0
    out[:, dep, :] = D
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

    # -- inversion -------------------------------------------------------

    def invert(self, z) -> tuple[complex, np.ndarray]:
        """Local inverse of Pi for z != 0 in the chart image.

        For unit weights s = z_pivot / anchor_pivot exactly; general weights
        try all beta_pivot-th roots and keep the one whose solved slice point
        matches to 1e-8, nearest the anchor's slice coordinates.
        """
        z = np.asarray(z, dtype=np.complex128)
        zp = z[self.pivot]
        if zp == 0:
            raise NotInChart("pivot coordinate vanishes")
        beta = self.variety.weights.as_array()
        bp = int(beta[self.pivot])
        ratio = zp / self.anchor[self.pivot]
        s0 = ratio ** (1.0 / bp)
        candidates = [s0 * np.exp(2j * math.pi * k / bp) for k in range(bp)]
        best = None
        for s in candidates:
            y = z * s ** (-beta.astype(np.float64))
            x = y[list(self.free)] if self.slice_dim else np.zeros(0, complex)
            try:
                y_solved = self.slice_point(x)
            except NewtonDivergence:
                continue
            if np.linalg.norm(y_solved - y) <= 1e-8 * (1.0 + np.linalg.norm(y)):
                dist = np.linalg.norm(x - self.x_anchor) if self.slice_dim else 0.0
                if best is None or dist < best[0]:
                    best = (dist, complex(s), x)
        if best is None:
            raise NotInChart(f"point {z} is not in the image of this chart")
        return best[1], best[2]

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


def build_chart(variety: Variety, anchor) -> Chart:
    """Construct the generalized-cone chart anchored at a regular point.

    The pivot maximizes |anchor_k| (requires max >= 1: rescale to the link
    first); free slice coordinates are chosen by pivoted QR on the slice
    Jacobian.
    """
    anchor = np.asarray(anchor, dtype=np.complex128)
    if variety.pure_dim is None:
        raise ValueError("build_chart requires pure_dim")
    if np.linalg.norm(anchor) == 0.0 or not is_regular(variety, anchor):
        raise SingularAnchor(f"anchor {anchor} is not a regular point")
    pivot = int(np.argmax(np.abs(anchor)))
    if abs(anchor[pivot]) < 1.0 - 1e-9:
        raise PivotTooSmall(
            f"max |anchor_k| = {abs(anchor[pivot]):.3g} < 1; rescale to the link first"
        )
    n = variety.ambient_dim
    d = variety.pure_dim
    others = [k for k in range(n) if k != pivot]
    A = variety.jacobian(anchor)[:, others]  # (K, n-1)
    corank = n - d
    m = d - 1
    _, R, perm = scipy.linalg.qr(A, pivoting=True, mode="economic")
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > 1e-10 * (diag[0] if diag.size else 1.0)))
    if rank != corank:
        raise ImplicitFunctionFailure(
            f"slice Jacobian rank {rank} != expected corank {corank} at the anchor"
        )
    dep = tuple(others[perm[i]] for i in range(corank))
    free = tuple(others[perm[i]] for i in range(corank, n - 1))
    return Chart(
        variety=variety,
        anchor=anchor,
        pivot=pivot,
        free=free,
        dep=dep,
        x_anchor=anchor[list(free)].copy(),
        slice_dim=m,
    )
