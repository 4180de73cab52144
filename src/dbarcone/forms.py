"""(0,1)-forms lambda = sum_k f_k dzbar_k with compact support.

A form holds one vectorized field: it maps an (N, n) complex array of
points to the (N, n) array of coefficients (f_1, ..., f_n) at those points.
The support cutoff |z| < R is enforced by the form itself, so the field may
be defined ambiently.  A form may also state an inner radius: a promise
that its field vanishes for |z| <= inner_radius, which lets the solver
skip that ball.  It is 0 (no promise) unless a constructor knows better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .variety import SparsePolynomial

Field = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ZeroOneForm:
    n: int
    field: Field  # (N, n) points -> (N, n) coefficients
    support_radius: float
    sup_bound: float
    dbar_closed: bool
    inner_radius: float = 0.0  # the field vanishes for |z| <= inner_radius

    def __post_init__(self):
        if self.support_radius <= 0:
            raise ValueError("support_radius must be positive")
        if not 0 <= self.inner_radius < self.support_radius:
            raise ValueError("need 0 <= inner_radius < support_radius")

    def coeff_matrix(self, pts) -> np.ndarray:
        """All coefficients at a batch of points: (N, n) -> (N, n) complex,
        with the support cutoff applied.

        When every point of a nonempty batch is inside the support, as in
        nearly every solver kernel batch, the field's value is returned as
        it is; otherwise the field runs on the inside rows and the rest are
        zero.  The batch is made C-contiguous first, so the field sees the
        same layout as the gathered inside rows and gives the same bits
        either way.
        """
        P = np.ascontiguousarray(pts, dtype=np.complex128).reshape(-1, self.n)
        inside = _sq_norm(P) < self.support_radius ** 2
        if inside.size and inside.all():
            return self.field(P)
        out = np.zeros_like(P)
        if inside.any():
            out[inside] = self.field(P[inside])
        return out


def _sq_norm(P: np.ndarray) -> np.ndarray:
    """|z|^2 of each row: the dot product of the row's float64 view with
    itself."""
    V = np.ascontiguousarray(P, dtype=np.complex128).view(np.float64)
    return np.einsum("...i,...i->...", V, V)


def _smoothstep(t: np.ndarray, a: float, b: float) -> np.ndarray:
    # 7th-order variant: C^3 across the transition, which keeps high-order
    # panel quadrature of the solver kernels cheap
    u = np.clip((t - a) / (b - a), 0.0, 1.0)
    return u ** 4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))


def _smoothstep_deriv(t: np.ndarray, a: float, b: float) -> np.ndarray:
    u = np.clip((t - a) / (b - a), 0.0, 1.0)
    return 140.0 * u ** 3 * (1.0 - u) ** 3 / (b - a)


def radial_cutoff(pts: np.ndarray, r0: float, R: float) -> np.ndarray:
    """Smooth plateau: 1 inside |z| <= r0, 0 outside |z| >= R."""
    return 1.0 - _smoothstep(_sq_norm(pts), r0 * r0, R * R)


def radial_cutoff_deriv(pts: np.ndarray, r0: float, R: float) -> np.ndarray:
    """d/dt of the plateau as a function of t = |z|^2."""
    return -_smoothstep_deriv(_sq_norm(pts), r0 * r0, R * R)


def estimate_sup_bound(field: Field, n: int, radius: float) -> float:
    """Deterministic upper proxy for sup |lambda|: max of the coefficient
    vector 2-norm over a seeded ambient sample of 4096 points of the
    support ball."""
    samples = 4096
    rng = np.random.default_rng(0x5EED)
    dirs = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = radius * (np.arange(samples) + 0.5) / samples
    pts = radii[:, None] * dirs
    vals = np.asarray(field(pts), dtype=np.complex128)
    return float(np.max(np.linalg.norm(vals, axis=1)))


def zero_form(n: int, support_radius: float = 1.0) -> ZeroOneForm:
    return ZeroOneForm(n, np.zeros_like, support_radius, 0.0, True)


def bump_dbar_form(
    h: SparsePolynomial, r0: float, R: float
) -> ZeroOneForm:
    """Exactly dbar-closed test form: lambda = dbar(h * chi) with h a
    holomorphic polynomial and chi the C^3 radial plateau.

    Since h is holomorphic, lambda = h * chi'(|z|^2) * sum_k z_k dzbar_k,
    which vanishes for |z| <= r0: the form's inner radius is r0.
    """
    if not (0 < r0 < R):
        raise ValueError("need 0 < r0 < R")

    def field(P: np.ndarray) -> np.ndarray:
        return (h.eval(P) * radial_cutoff_deriv(P, r0, R))[:, None] * P

    return ZeroOneForm(h.n, field, R, estimate_sup_bound(field, h.n, R), True, r0)


def raw_bump_form(n: int, r0: float, R: float) -> ZeroOneForm:
    """Radial plateau in every coefficient; bounded and compactly supported
    but NOT dbar-closed.  Useful only for well-definedness checks."""
    if not (0 < r0 < R):
        raise ValueError("need 0 < r0 < R")

    def field(P: np.ndarray) -> np.ndarray:
        return np.repeat(radial_cutoff(P, r0, R)[:, None], n, axis=1).astype(np.complex128)

    return ZeroOneForm(n, field, R, estimate_sup_bound(field, n, R), False)


def scale_form(c: complex, form: ZeroOneForm) -> ZeroOneForm:
    return ZeroOneForm(
        form.n,
        lambda P: c * form.field(P),
        form.support_radius,
        abs(c) * form.sup_bound,
        form.dbar_closed,
        form.inner_radius,
    )
