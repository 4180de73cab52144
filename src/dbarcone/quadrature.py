"""Adaptive quadrature over the complex plane for kernels with integrable
point singularities and compact support.

Orientation convention used throughout the package: dw ^ dwbar = -2i dA(w),
so `integrate_plane` returns -2i times the Lebesgue integral.

Scheme: an integrand has at most one singular point.  The support disk
|w| <= W is swept in polar coordinates around it (around the origin when
there is none inside the disk), with the radial coordinate normalized by
the theta-dependent distance to the support circle.  The polar Jacobian
cancels 1/|w - pole| singularities exactly and the circle becomes a
coordinate line, so panels are plain rectangles in the transformed
(radius, angle) plane that are refined adaptively.  The radius is linear
in the transformed coordinate: the Jacobian r already cancels a
1/(w - pole) kernel, so the integrand is smooth up to the pole and needs no
geometric grading (Duffy-type cancellation).  Each rect gets the 8 x 8
Gauss product rule; its 64 nodes share 8 angles, so the direction and the
distance to the support circle are computed once per angular node, and the
real weights (area factor times Gauss weights times half-widths) meet the
float64 view of K's values in one reduction per rect.  The error estimate
is the sum of |coarse - fine| over the panels, each a panel's Gauss value
against the sum over its four quadrants, plus QUADPACK's roundoff floor.

An integrand may also vanish on a hole |w| < inner_radius, as the solver's
kernels do when the form vanishes near the singular point.  The sweep is
then chosen by where the pole lies, with no option:
- in the hole: the annulus sweep, the same polar sweep about the origin
  with the hole's radius as its eps; the kernel is smooth on the annulus;
- in the annulus, not too close to the hole: the split sweep about the
  pole.  A ray that crosses the hole is cut into the segments before and
  after it and the zero segment between is skipped, so the hole's circle
  is a coordinate line.  Those rays are parametrised by phi with
  sin psi = k sin phi, psi the ray's angle from the direction to the
  origin and k = hole/|pole|: in psi itself the segment ends have square
  root singularities at the tangent rays, and refinement in psi stalls;
- anywhere else, or under an exclusion: the pole or origin sweep above.

By default nothing is excluded.  An explicit `singular_exclusion` epsilon
leaves out the disk |w - pole| < epsilon around the singular point; its
mass is estimated heuristically and added to the error estimate, never to
the value.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NoConvergence

_N_U = 12  # equal initial radial panels
_N_THETA = 8  # equal initial angular panels
_GAUSS = np.polynomial.legendre.leggauss(8)  # rule on each rect, per axis
_W2 = np.outer(_GAUSS[1], _GAUSS[1])  # the product rule's weights, (radial, angular)
# QUADPACK's roundoff floor per unit of integral of |K| (its qk rules' resabs)
_ROUNDOFF = 50.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class QuadratureParams:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_refinement_depth: int = 14
    singular_exclusion: Optional[float] = None  # None -> no exclusion
    max_panels: int = 24000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            if not 0 < getattr(self, name) < math.inf:  # nan fails too
                raise ValueError(f"{name} must be finite and positive")
        if self.max_refinement_depth < 1:
            raise ValueError("max_refinement_depth must be >= 1")
        eps = self.singular_exclusion
        if eps is not None and not 0 <= eps < math.inf:
            raise ValueError("singular_exclusion must be finite and >= 0")


@dataclass(frozen=True)
class PlanarIntegrand:
    """Full integrand K(w), singular factors included.

    `evaluate` must accept a 1-d complex array and return finite complex
    values everywhere except at the singular point, if one is listed; K
    must vanish for |w| > truncation_radius, and for |w| < inner_radius
    (0: no hole).  At most one singular point.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    singular_points: tuple[complex, ...] = ()
    truncation_radius: float = 1.0
    inner_radius: float = 0.0

    def __post_init__(self):
        if len(self.singular_points) > 1:
            raise ValueError("a planar integrand has at most one singular point")


@dataclass
class _Sweep:
    """Polar sweep around `pole` with radial coordinate u in [0, 1]:
    r = eps + u * (rho(theta) - eps), from the exclusion circle
    |w - pole| = eps (eps = 0 unless an exclusion is asked for, the hole's
    radius for the annulus sweep) out to the support circle |w| = W.  A
    nonzero `hole` makes it the split sweep of `_split_nodes`.
    """

    pole: complex
    eps: float
    W: float
    initial: np.ndarray  # the initial rects (u0, u1, th0, th1)
    hole: float = 0.0  # > 0: the split sweep, which skips |w| < hole

    def rho(self, direction: np.ndarray) -> np.ndarray:
        """Distance from the pole to the support circle along the unit
        direction exp(1j * theta)."""
        c = np.real(np.conj(self.pole) * direction)
        return -c + np.sqrt(c * c + self.W ** 2 - abs(self.pole) ** 2)


def _nodes(sweep: _Sweep, rects: np.ndarray):
    """The 8 x 8 Gauss nodes of each rect (R, 4) = (u0, u1, th0, th1):
    returns w and the area factor r * span, both (R, 8, 8) with the radial
    node on axis 1 and the angular node on axis 2.

    A rect's 64 nodes share 8 angles, so the direction exp(1j * theta) and
    the span rho(theta) - eps are computed once per angular node and
    broadcast over the radial nodes.
    """
    x = _GAUSS[0]
    u_mid = 0.5 * (rects[:, 0] + rects[:, 1])
    u_half = 0.5 * (rects[:, 1] - rects[:, 0])
    t_mid = 0.5 * (rects[:, 2] + rects[:, 3])
    t_half = 0.5 * (rects[:, 3] - rects[:, 2])
    U = u_mid[:, None, None] + u_half[:, None, None] * x[None, :, None]
    if sweep.hole:
        return _split_nodes(sweep, U, u_mid, t_mid[:, None] + t_half[:, None] * x)
    direction = np.exp(1j * (t_mid[:, None] + t_half[:, None] * x))[:, None, :]
    span = sweep.rho(direction) - sweep.eps
    r = sweep.eps + U * span
    w = sweep.pole + r * direction
    return w, r * span  # dA = r dr dtheta, dr/du = span


def _split_nodes(sweep: _Sweep, U: np.ndarray, u_mid: np.ndarray, a: np.ndarray):
    """`_nodes` of the split sweep, from the radial nodes U (R, 8, 1) and the
    angular nodes a (R, 8).  Angles are measured from the ray through the
    origin.  A rect with a > 0 holds rays at angle a that miss the hole,
    with r = U * rho.  A rect with a < 0 holds rays that cross it, at
    angle psi with sin psi = k sin phi, phi = a + pi/2 and k = hole/|pole|;
    u in [0, 1] runs over [0, r1] and u in [1, 2] over [r2, rho], where
    r1,2 = |pole| cos psi -/+ hole cos phi, and dpsi/da = k cos phi / cos psi
    joins the area factor."""
    P = abs(sweep.pole)
    k = sweep.hole / P
    cross = np.flatnonzero(a[:, 0] < 0)
    phi = a[cross] + 0.5 * math.pi
    sin_psi = k * np.sin(phi)
    cos_psi = np.sqrt((1.0 - sin_psi) * (1.0 + sin_psi))
    angle, jac = a.copy(), np.ones_like(a)
    angle[cross] = np.arcsin(sin_psi)
    jac[cross] = k * np.cos(phi) / cos_psi
    direction = (-sweep.pole / P) * np.exp(1j * angle)
    lo, hi = np.zeros_like(a), sweep.rho(direction)
    chord_mid, chord_half = P * cos_psi, sweep.hole * np.cos(phi)
    far = (u_mid[cross] > 1)[:, None]
    lo[cross] = np.where(far, chord_mid + chord_half, 0.0)
    hi[cross] = np.where(far, hi[cross], chord_mid - chord_half)
    span = (hi - lo)[:, None, :]
    r = lo[:, None, :] + (U - (u_mid > 1)[:, None, None]) * span
    w = sweep.pole + r * direction[:, None, :]
    return w, r * span * jac[:, None, :]


def _eval_rects(
    sweep: _Sweep, K, rects: np.ndarray, mass: Optional[np.ndarray] = None
) -> np.ndarray:
    """Integrate K over each rect (R, 4) with the 8 x 8 Gauss rule; returns
    (R,).  K gets the nodes as one 1-d array.  The real weights r * span *
    w_i * w_j * u_half * t_half meet the float64 view of K's values in one
    reduction per rect.  A given `mass` (R,) receives the same rule's
    integral of |K| over each rect: one more reduction, on the same values."""
    w, factor = _nodes(sweep, rects)
    vals = np.ascontiguousarray(K(w.reshape(-1)), dtype=np.complex128)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values")
    scale = 0.25 * (rects[:, 1] - rects[:, 0]) * (rects[:, 3] - rects[:, 2])
    weights = factor * (_W2 * scale[:, None, None])
    n, m = rects.shape[0], _W2.size
    sums = np.matmul(weights.reshape(n, 1, m), vals.view(np.float64).reshape(n, m, 2))
    if mass is not None:
        mass[:] = np.matmul(weights.reshape(n, 1, m), np.abs(vals).reshape(n, m, 1)).reshape(n)
    return sums.reshape(n, 2).view(np.complex128)[:, 0]


def _split(sweep: _Sweep, K, rects: np.ndarray, coarse: np.ndarray):
    """Evaluate the four quadrants of each rect (R, 4) whose own value is
    `coarse` (R,).  Returns the quadrants (R, 4, 4), their values (R, 4), the
    fine values (R,), the discrepancies |coarse - fine| (R,) and the
    quadrants' summed |K| integrals (R,)."""
    u0, u1, t0, t1 = rects.T
    um, tm = 0.5 * (u0 + u1), 0.5 * (t0 + t1)
    kids = np.stack(
        [u0, um, t0, tm, u0, um, tm, t1, um, u1, t0, tm, um, u1, tm, t1], axis=-1
    ).reshape(-1, 4, 4)
    mass = np.empty(4 * rects.shape[0])
    kid_vals = _eval_rects(sweep, K, kids.reshape(-1, 4), mass).reshape(-1, 4)
    fine = kid_vals.sum(axis=1)
    d = coarse - fine
    # hypot equals abs() of each complex number bit for bit; np.abs on a
    # complex array takes a SIMD path that can differ in the last bit
    return kids, kid_vals, fine, np.hypot(d.real, d.imag), mass.reshape(-1, 4).sum(axis=1)


def _grid(u_bounds, th_bounds) -> np.ndarray:
    """The rects (u0, u1, th0, th1) of a product grid, radial index major."""
    return np.array(
        [
            (u_bounds[i], u_bounds[i + 1], th_bounds[j], th_bounds[j + 1])
            for i in range(len(u_bounds) - 1)
            for j in range(len(th_bounds) - 1)
        ],
        dtype=np.float64,
    )


# initial panels: _N_U equal in u times _N_THETA equal in theta
_INITIAL_RECTS = _grid(
    np.linspace(0.0, 1.0, _N_U + 1), [2 * math.pi * k / _N_THETA for k in range(_N_THETA + 1)]
)
# The hole sweeps' initial grids are measured, like the pole sweep's: the
# coarsest that calibrates on solve-grid ops.  The annulus sweep's kernel
# is smooth on the annulus: one radial times 2 angular panels.
_ANNULUS_RECTS = _grid([0.0, 1.0], [0.0, math.pi, 2 * math.pi])
# the split sweep's crossing rays: their near and far segments, 2 panels in phi
_CROSSING_RECTS = _grid([0.0, 1.0, 2.0], [-math.pi, -0.5 * math.pi, 0.0])


# Past this k = hole/|pole| the pole sweep is cheaper: near the tangent rays
# the split sweep's integrand varies on a scale of sqrt(2 (1 - k)) in phi
_SPLIT_MAX_K = 0.99


def _split_rects(k: float) -> np.ndarray:
    """The split sweep's initial rects for k = hole/|pole|: 4 panels in
    angle over the rays that miss the hole, then the crossing rays."""
    edge = math.asin(k)
    missing = _grid([0.0, 1.0], np.linspace(edge, 2 * math.pi - edge, 5))
    return np.concatenate([missing, _CROSSING_RECTS])


def _sweep(integrand: PlanarIntegrand, params: QuadratureParams) -> _Sweep:
    """The sweep about the singular point, or about the origin when there is
    none inside the disk; the exclusion stays within a quarter of the pole's
    distance to the support circle.  Without an exclusion, a pole inside
    the integrand's hole gets the annulus sweep about the origin, with the
    hole's radius as its eps, and a pole in the annulus the split sweep
    while k = hole/|pole| <= _SPLIT_MAX_K."""
    W = float(integrand.truncation_radius)
    hole = float(integrand.inner_radius)
    for a in map(complex, integrand.singular_points):
        if abs(a) < W * (1 - 1e-12):
            if hole and not params.singular_exclusion:
                if abs(a) < hole:
                    return _Sweep(pole=0j, eps=hole, W=W, initial=_ANNULUS_RECTS)
                if hole <= _SPLIT_MAX_K * abs(a):
                    return _Sweep(a, 0.0, W, _split_rects(hole / abs(a)), hole=hole)
            eps = params.singular_exclusion or 0.0
            return _Sweep(pole=a, eps=min(eps, 0.25 * (W - abs(a))), W=W, initial=_INITIAL_RECTS)
    return _Sweep(pole=0j, eps=0.0, W=W, initial=_INITIAL_RECTS)


def _excluded_mass(sweep: _Sweep, K) -> float:
    """Estimate the |K| mass of the excluded eps-disk around the pole (dA
    units); 0 when nothing is excluded.

    A heuristic, not a bound: for 1/|w - pole| kernels |K * r| is roughly
    constant near the pole, so the mass is about max|K * r| * 2 pi * eps,
    with the max taken over 32 points of the exclusion circle and doubled
    for safety.  The signed contribution is typically far smaller because
    the kernel's angular average cancels over the symmetric disk.
    """
    if sweep.eps == 0.0:
        return 0.0
    theta = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    w = sweep.pole + sweep.eps * np.exp(1j * theta)
    vals = np.abs(np.asarray(K(w), dtype=np.complex128))
    m_hat = float(np.max(vals)) * sweep.eps if vals.size else 0.0
    return 2.0 * math.pi * sweep.eps * m_hat * 2.0


def _budget_state(panels: list, err: float, integrand: PlanarIntegrand) -> str:
    """What a NoConvergence message reports besides the budget that ran out."""
    poles = ", ".join(f"{complex(a):.6g}" for a in integrand.singular_points) or "none"
    return (
        f"with {len(panels)} panels at estimated error {2 * err:.3e} "
        f"(truncation radius {float(integrand.truncation_radius):.6g}, "
        f"singular points {poles})"
    )


def integrate_plane(
    integrand: PlanarIntegrand, params: QuadratureParams = QuadratureParams()
) -> tuple[complex, float]:
    """Integral of K(w) dw ^ dwbar = -2i * integral of K dA over |w| <= W.

    The disk is swept in polar coordinates about the integrand's singular
    point, or about the origin when it has none inside the disk.  Returns
    (value, error_estimate); the estimate is the refinement differencing,
    plus QUADPACK's roundoff floor 50 eps * integral of |K| dA over the
    final panels, plus, under an explicit `singular_exclusion`, the
    estimated mass excluded around the singular point.  The floor only
    reports: the refinement stops on the differencing alone.  Raises
    NoConvergence, naming the budget, when `max_panels` or
    `max_refinement_depth` runs out first.
    """
    W = float(integrand.truncation_radius)
    if not math.isfinite(W):
        raise ValueError("truncation_radius must be finite")
    if W <= 0:
        return 0j, 0.0
    K = integrand.evaluate
    sweep = _sweep(integrand, params)

    # entries: [-disc, seq, depth, value, disc, quadrants (4, 4), quadrant
    # values (4,), quadrants' |K| integral]; refining a panel reuses its
    # quadrant values as the children's coarse values, so no rect is ever
    # evaluated twice
    coarse = _eval_rects(sweep, K, sweep.initial)
    panels = [
        [-disc, seq, 0, val, disc, kids, kid_vals, mass]
        for seq, (kids, kid_vals, val, disc, mass) in enumerate(
            zip(*_split(sweep, K, sweep.initial, coarse))
        )
    ]
    seq = len(panels)
    # the annulus sweep's eps is the hole, where K vanishes: nothing is excluded
    eps_mass = _excluded_mass(sweep, K) if params.singular_exclusion else 0.0

    heapq.heapify(panels)
    total = sum(p[3] for p in panels)
    err = sum(p[4] for p in panels)
    abs_total = sum(p[7] for p in panels)

    while True:
        # tolerances are stated for the final value, which carries |-2i| = 2
        target = max(params.abs_tol / 2.0, params.rel_tol * abs(total))
        if err <= target:
            break
        thresh = target / (2.0 * max(1, len(panels)))
        batch = []
        stuck = []
        while panels and len(batch) < 256:
            if -panels[0][0] <= thresh:
                break
            p = heapq.heappop(panels)
            if p[2] >= params.max_refinement_depth:
                stuck.append(p)
            else:
                batch.append(p)
        for p in stuck:
            heapq.heappush(panels, p)
        if not batch:
            raise NoConvergence(
                f"max_refinement_depth {params.max_refinement_depth} reached "
                f"{_budget_state(panels, err + eps_mass, integrand)}"
            )
        if len(panels) + 4 * len(batch) > params.max_panels:
            raise NoConvergence(
                f"max_panels {params.max_panels} exhausted "
                f"{_budget_state(panels, err + eps_mass, integrand)}"
            )
        results = _split(
            sweep,
            K,
            np.concatenate([p[5] for p in batch]),
            np.concatenate([p[6] for p in batch]),
        )
        for bi, p in enumerate(batch):
            total -= p[3]
            err -= p[4]
            abs_total -= p[7]
            for ci in range(4 * bi, 4 * bi + 4):
                kids, kid_vals, val, disc, mass = (a[ci] for a in results)
                heapq.heappush(panels, [-disc, seq, p[2] + 1, val, disc, kids, kid_vals, mass])
                seq += 1
                total += val
                err += disc
                abs_total += mass

    value = -2j * total
    error_estimate = 2.0 * (err + eps_mass + _ROUNDOFF * abs_total)
    return value, error_estimate


def cauchy_transform(
    f: Callable[[np.ndarray], np.ndarray],
    support_radius: float,
    z: complex,
    params: QuadratureParams = QuadratureParams(),
) -> complex:
    """Planar Cauchy-Pompeiu transform (1/2 pi i) * integral of f(u)/(u - z) du ^ dubar.

    For f supported in |u| <= support_radius; solves dg/dzbar = f in one
    variable.  The unit-disk-indicator transform equals conj(z) inside the
    disk and 1/z outside it.
    """
    z = complex(z)

    def kernel(u: np.ndarray) -> np.ndarray:
        return np.asarray(f(u), dtype=np.complex128) / (u - z)

    integrand = PlanarIntegrand(
        evaluate=kernel,
        singular_points=(z,),
        truncation_radius=float(support_radius),
    )
    value, _ = integrate_plane(integrand, params)
    return value / (2j * math.pi)
