"""Exact references the benchmark checks results against.

They are written from the mathematics, not from the package's code paths:
the plateau is re-derived here rather than imported from `dbarcone.forms`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def plateau(t, r0: float, R: float):
    """chi(t), t = |z|^2: 1 for t <= r0^2, 0 for t >= R^2, and the C^3
    seventh-order smoothstep in between."""
    u = np.clip((np.asarray(t, dtype=np.float64) - r0 * r0) / (R * R - r0 * r0), 0.0, 1.0)
    return 1.0 - u ** 4 * (35.0 - 84.0 * u + 70.0 * u ** 2 - 20.0 * u ** 3)


def plateau_deriv(t, r0: float, R: float):
    """d chi / dt."""
    u = np.clip((np.asarray(t, dtype=np.float64) - r0 * r0) / (R * R - r0 * r0), 0.0, 1.0)
    return -140.0 * u ** 3 * (1.0 - u) ** 3 / (R * R - r0 * r0)


def bump_solution(z: np.ndarray, h_coeffs: tuple[float, float], r0: float, R: float) -> complex:
    """g = h * chi for the bump-dbar form lambda = dbar(h chi), with
    h = c0 + c1 z_1.  Along each orbit h chi is compactly supported, so
    Cauchy-Pompeiu reproduces it: both solution operators return it exactly."""
    c0, c1 = h_coeffs
    t = float(np.sum(np.abs(z) ** 2))
    return complex((c0 + c1 * z[0]) * plateau(t, r0, R))


def cone_norm2_integral(degree: int, d: int, rho: float) -> float:
    """Integral of |z|^2 over Sigma cap B_rho for a d-dimensional cone of the
    given degree: Sigma cap B_r has volume degree pi^d r^(2d) / d!
    (Wirtinger, Lelong number = degree), so the integral is
    degree pi^d rho^(2d+2) / ((d+1)(d-1)!)."""
    return degree * math.pi ** d * rho ** (2 * d + 2) / ((d + 1) * math.factorial(d - 1))


def cone_bump_l2_norm(degree: int, d: int, r0: float, R: float) -> float:
    """L2 norm over Sigma cap B_R of lambda = dbar chi(|z|^2) on a cone.

    lambda = chi'(t) sum z_k dzbar_k and z is tangent to a cone, so the
    induced pointwise norm is |chi'(t)| |z|; integrate the radial profile
    against d/dr vol(Sigma cap B_r) = degree 2d pi^d r^(2d-1) / d!."""
    shell = degree * 2 * d * math.pi ** d / math.factorial(d)

    def integrand(r: float) -> float:
        return float(plateau_deriv(r * r, r0, R)) ** 2 * r * r * shell * r ** (2 * d - 1)

    value, _ = quad(integrand, r0, R, epsabs=0.0, epsrel=1e-12, limit=200)
    return math.sqrt(value)
