"""Explicit integral-formula solution operators for the dbar-equation.

The core operator, for a weighted homogeneous variety with weights beta and
a bounded compactly supported form lambda = sum_k f_k dzbar_k, is

    g(z) = sum_k (beta_k / 2 pi i) *
           integral over C of f_k(w^beta * z) conj(w^{beta_k} z_k)
                              / (wbar (w - 1)) dw ^ dwbar.

Before quadrature the kernel is simplified algebraically:
conj(w^{beta_k} z_k) / wbar = conj(w)^{beta_k - 1} conj(z_k), which removes
the w = 0 singularity entirely; only w = 1 remains.  The L2 operator on
d-dimensional cones is the same transform with the extra weight w^(d-1),
and `solve_scaled` moves the pole; all three share one solve path.
Everything downstream shares the single orientation convention
dw ^ dwbar = -2i dA from `quadrature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotACone, NotOnVariety
from .forms import ZeroOneForm, estimate_sup_bound
from .quadrature import PlanarIntegrand, QuadratureParams, integrate_plane
from .variety import Variety, Weights, contains, int_power, orbit_scale

_TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class SolveResult:
    value: complex
    quadrature_error: float
    truncation_radius_used: float


def truncation_radius(weights: Weights, z: np.ndarray, support_radius: float) -> float:
    """Smallest W with sum_k W^(2 beta_k) |z_k|^2 >= support_radius^2, with a
    1e-9 relative margin.

    The kernel coefficients vanish for |w| > W because the form is supported
    in the ball of `support_radius`.  Closed form W = R/|z| for unit
    weights, the orbit-scale search otherwise.  Returns 0 for z = 0.
    """
    z = np.asarray(z, dtype=np.complex128)
    if float(np.sum(np.abs(z) ** 2)) == 0.0:
        return 0.0
    return float(_orbit_radii(weights, z, (support_radius,))[0]) * (1.0 + 1e-9)


def _orbit_radii(weights: Weights, z: np.ndarray, radii: tuple[float, ...]) -> np.ndarray:
    """|w| at which the orbit w^beta z of a nonzero z meets the sphere of
    each radius: radius/|z| for unit weights, one orbit-scale search with
    a row per radius otherwise."""
    if weights.is_unit:
        return np.asarray(radii) / math.sqrt(float(np.sum(np.abs(z) ** 2)))
    return orbit_scale(weights, np.broadcast_to(z, (len(radii), z.size)), np.asarray(radii))


def _check_point(variety: Variety, form: ZeroOneForm, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (variety.ambient_dim,):
        raise ValueError("point dimension mismatch")
    if form.n != variety.ambient_dim:
        raise ValueError("form dimension mismatch")
    if not contains(variety, z, 1e-8):
        raise NotOnVariety(f"solve point {z} is not on the variety")
    return z


def _solve(
    variety: Variety,
    form: ZeroOneForm,
    z,
    params: QuadratureParams,
    pole: complex = 1.0 + 0j,
    m: int = 0,
) -> SolveResult:
    """The one solve path: a single adaptive planar quadrature of

        K(w) = w^m sum_k beta_k f_k(w^beta z) conj(w)^(beta_k - 1) conj(z_k) / (w - pole)

    over the truncation disk, with the pole as its only singular point.
    K vanishes for |w| below the orbit radius of the form's inner radius,
    rounded down by 1e-9; the quadrature skips that disc.  m = 0 is the
    main operator, m = d - 1 the L2 operator on d-dimensional cones.
    g(0) = 0 is returned directly, and so is pole = 0, where the
    substitution of `solve_scaled` degenerates.
    """
    z = _check_point(variety, form, z)
    if pole == 0 or float(np.sum(np.abs(z) ** 2)) == 0.0:
        return SolveResult(0j, 0.0, 0.0)
    # the truncation radius and the hole's orbit radius in one search
    shells = (form.support_radius, form.inner_radius) if form.inner_radius else (form.support_radius,)
    radii = _orbit_radii(variety.weights, z, shells)
    W = float(radii[0]) * (1.0 + 1e-9)
    inner = form.inner_radius and float(radii[1]) * (1.0 - 1e-9)
    beta = variety.weights.as_array()
    unit = variety.weights.is_unit
    live = [k for k in range(variety.ambient_dim) if z[k] != 0]

    # w ** 1 == w and a factor conj(w) ** 0 == 1 are exact, so unit weights
    # skip those powers without changing a bit, and `int_power` takes the
    # scalar powers with numpy's bits.  Each term stays one chained
    # product: numpy writes `named * temporary` of a large batch into the
    # temporary with the operands swapped, and a complex product computed
    # with fused multiply-adds is not bitwise commutative.  m > 1 keeps
    # `w ** m`, which numpy squares for m = 2.
    def K(w: np.ndarray) -> np.ndarray:
        F = form.coeff_matrix((w[:, None] if unit else w[:, None] ** beta[None, :]) * z[None, :])
        wc = np.conj(w)
        acc = np.zeros(w.shape, dtype=np.complex128)
        for k in live:
            if beta[k] == 1:
                acc += beta[k] * F[:, k] * np.conj(z[k])
            else:
                acc += beta[k] * F[:, k] * int_power(wc, beta[k] - 1) * np.conj(z[k])
        if m:
            acc = acc * (int_power(w, 1) if m == 1 else w ** m)
        return acc / (w - pole)

    integrand = PlanarIntegrand(K, (pole,), W, inner)
    raw, est = integrate_plane(integrand, params)
    return SolveResult(raw / _TWO_PI_I, est / (2 * math.pi), W)


def solve(
    variety: Variety,
    form: ZeroOneForm,
    z,
    params: QuadratureParams = QuadratureParams(),
) -> SolveResult:
    """Evaluate the solution operator at a point of the variety.

    g(0) = 0 exactly; elsewhere one adaptive planar quadrature with the
    single singular point w = 1 (inside the truncation disk only when the
    orbit through z meets the support of the form there).
    """
    return _solve(variety, form, z, params)


def solve_scaled(
    variety: Variety,
    form: ZeroOneForm,
    z,
    s: complex,
    params: QuadratureParams = QuadratureParams(),
) -> SolveResult:
    """g(s^beta * z) through the change of variables u = w s: same kernel in
    the original orbit coordinate but with the singular point moved to u = s.

    The substitution degenerates at s = 0, where g(0) = 0 is returned
    directly.
    """
    return _solve(variety, form, z, params, pole=complex(s))


def solve_l2(
    variety: Variety,
    form: ZeroOneForm,
    z,
    params: QuadratureParams = QuadratureParams(),
) -> SolveResult:
    """L2 variant on pure d-dimensional cones:

    g(z) = sum_k (1/2 pi i) * integral of f_k(w z) w^(d-1) conj(z_k) / (w-1),

    the main kernel with the extra weight w^(d-1); the only singular point
    is w = 1.
    """
    if not variety.weights.is_unit:
        raise NotACone("solve_l2 requires unit weights")
    if variety.pure_dim is None:
        raise ValueError("solve_l2 requires pure_dim")
    return _solve(variety, form, z, params, m=variety.pure_dim - 1)


def theta_map(weights: Weights, z) -> np.ndarray:
    """Coordinatewise power map (z_1^beta_1, ..., z_n^beta_n); intertwines
    the scaling actions: theta(w z) = w^beta * theta(z)."""
    z = np.asarray(z, dtype=np.complex128)
    b = weights.as_array()
    return z ** b


def theta_cone(variety: Variety) -> Variety:
    """The cone associated to a weighted variety: zero locus of Q_k composed
    with the power map, which multiplies exponents by the weights."""
    polys = [q.scale_exponents(variety.weights) for q in variety.polynomials]
    return Variety.build(
        Weights((1,) * variety.ambient_dim), polys, pure_dim=variety.pure_dim
    )


def theta_pullback_form(form: ZeroOneForm, weights: Weights) -> ZeroOneForm:
    """Pullback of the form through the power map: coefficient k becomes
    f_k(theta(z)) * beta_k * conj(z_k)^(beta_k - 1)."""
    b = weights.as_array()

    def field(P: np.ndarray) -> np.ndarray:
        return form.coeff_matrix(P ** b[None, :]) * b * np.conj(P) ** (b - 1)

    # |theta(z)| < R forces |z_k| < R^(1/beta_k); the enclosing ball radius
    radius = float(math.sqrt(sum(form.support_radius ** (2.0 / bk) for bk in b)))
    sup = estimate_sup_bound(field, form.n, radius)
    return ZeroOneForm(form.n, field, radius, sup, form.dbar_closed)


@dataclass(frozen=True)
class ThetaTransfer:
    direct: SolveResult  # h at x, solved on the weighted variety
    via_cone: SolveResult  # g at z with theta(z) = x, solved on the cone
    cone_point: np.ndarray


def solve_weighted_via_cone(
    X: Variety,
    form: ZeroOneForm,
    x,
    params: QuadratureParams = QuadratureParams(),
    cone_point=None,
) -> ThetaTransfer:
    """Solve on the weighted variety directly and, as a cross-check, on the
    associated cone with the pulled-back form; the two values agree.

    `cone_point` may supply a specific z with theta(z) = x; by default the
    principal branch roots are used (any branch gives the same value).
    """
    x = np.asarray(x, dtype=np.complex128)
    direct = solve(X, form, x, params)
    cone = theta_cone(X)
    pulled = theta_pullback_form(form, X.weights)
    if cone_point is None:
        b = X.weights.as_array().astype(np.float64)
        z = x ** (1.0 / b)
    else:
        z = np.asarray(cone_point, dtype=np.complex128)
        if not np.allclose(theta_map(X.weights, z), x, rtol=1e-9, atol=1e-12):
            raise ValueError("cone_point does not map to x under the power map")
    via = solve(cone, pulled, z, params)
    return ThetaTransfer(direct, via, z)
