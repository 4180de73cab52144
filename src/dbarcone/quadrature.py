"""Adaptive quadrature over the complex plane for kernels with integrable
point singularities and compact support.

Orientation convention used throughout the package: dw ^ dwbar = -2i dA(w),
so `integrate_plane` returns -2i times the Lebesgue integral.

Scheme: the support disk |w| <= W is swept in polar coordinates around each
singular point, with the radial coordinate normalized by the theta-dependent
distance to the cell boundary (the support circle, clipped by perpendicular
bisectors when several singular points tile the disk into Voronoi cells).
The polar Jacobian cancels 1/|w - pole| singularities exactly and the
boundaries become coordinate lines, so panels are plain rectangles in the
transformed (radius, angle) plane that are refined adaptively.  The radius
is linear in the transformed coordinate: the Jacobian r already cancels a
1/(w - pole) kernel, so the integrand is smooth up to the pole and needs no
geometric grading (Duffy-type cancellation).  The error estimate is the sum
of |coarse - fine| over the panels, each a panel's Gauss value against the
sum over its four quadrants.

By default nothing is excluded.  An explicit `singular_exclusion` epsilon
leaves out the disk |w - pole| < epsilon around each singular point; its
mass is estimated heuristically and added to the error estimate, never to
the value.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import NoConvergence, SingularOverlap

_N_U = 12  # equal initial radial panels per sweep


@dataclass(frozen=True)
class QuadratureParams:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_refinement_depth: int = 14
    singular_exclusion: Optional[float] = None  # None -> no exclusion
    base_rule: str = "gauss8"
    max_panels: int = 24000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_refinement_depth < 1:
            raise ValueError("max_refinement_depth must be >= 1")
        if self.singular_exclusion is not None and self.singular_exclusion < 0:
            raise ValueError("singular_exclusion must be >= 0")

    def rule_order(self) -> int:
        if not self.base_rule.startswith("gauss"):
            raise ValueError(f"unknown base rule {self.base_rule!r}")
        order = int(self.base_rule[len("gauss"):])
        if not (2 <= order <= 24):
            raise ValueError("base rule order out of range")
        return order


@dataclass(frozen=True)
class PlanarIntegrand:
    """Full integrand K(w), singular factors included.

    `evaluate` must accept a 1-d complex array and return finite complex
    values everywhere except at the listed singular points; K must vanish
    for |w| > truncation_radius.  It must be safe for concurrent calls.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    singular_points: tuple[complex, ...] = ()
    truncation_radius: float = 1.0


@dataclass
class _Sweep:
    """Polar sweep around `pole` with radial coordinate u in [0, 1]:
    r = eps + u * (rho(theta) - eps), from the exclusion circle
    |w - pole| = eps (eps = 0 unless an exclusion is asked for) out to the
    cell boundary.
    """

    pole: complex
    eps: float
    W: float
    others: tuple[complex, ...] = field(default_factory=tuple)

    def rho(self, theta: np.ndarray) -> np.ndarray:
        """Radial extent of this pole's cell: distance to the support circle,
        clipped by the perpendicular bisectors of the other poles (so the
        cells tile the disk exactly)."""
        e = np.exp(1j * theta)
        c = np.real(np.conj(self.pole) * e)
        rho = -c + np.sqrt(c * c + self.W ** 2 - abs(self.pole) ** 2)
        for b in self.others:
            d = b - self.pole
            proj = np.real(e * np.conj(d / abs(d)))
            with np.errstate(divide="ignore"):
                r_line = np.where(proj > 0, (abs(d) / 2.0) / np.maximum(proj, 1e-300), np.inf)
            rho = np.minimum(rho, r_line)
        return rho

    def points(self, u: np.ndarray, theta: np.ndarray):
        """Map transformed coords to w; returns (w, area_factor)."""
        span = self.rho(theta) - self.eps
        r = self.eps + u * span
        factor = r * span  # dA = r dr dtheta, dr/du = span
        w = self.pole + r * np.exp(1j * theta)
        return w, factor

    def eval_integrand(self, K, u: np.ndarray, theta: np.ndarray) -> np.ndarray:
        w, factor = self.points(u, theta)
        vals = np.asarray(K(w), dtype=np.complex128)
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand returned non-finite values")
        return vals * factor


@lru_cache(maxsize=8)
def _gl_cache(order: int):
    return np.polynomial.legendre.leggauss(order)


def _eval_rects(sweep: _Sweep, K, rects: np.ndarray, order: int) -> np.ndarray:
    """Integrate J over each rect (R, 4) = (u0, u1, th0, th1); returns (R,)."""
    x, wgt = _gl_cache(order)
    u_mid = 0.5 * (rects[:, 0] + rects[:, 1])
    u_half = 0.5 * (rects[:, 1] - rects[:, 0])
    t_mid = 0.5 * (rects[:, 2] + rects[:, 3])
    t_half = 0.5 * (rects[:, 3] - rects[:, 2])
    U = u_mid[:, None, None] + u_half[:, None, None] * x[None, :, None]
    TH = t_mid[:, None, None] + t_half[:, None, None] * x[None, None, :]
    W2 = wgt[None, :, None] * wgt[None, None, :]
    scale = (u_half * t_half)[:, None, None]
    U_b = np.broadcast_to(U, (rects.shape[0], order, order))
    TH_b = np.broadcast_to(TH, (rects.shape[0], order, order))
    J = sweep.eval_integrand(K, U_b.reshape(-1), TH_b.reshape(-1))
    J = J.reshape(rects.shape[0], order, order)
    return np.sum(J * W2 * scale, axis=(1, 2))


def _split(sweep: _Sweep, K, rects: np.ndarray, coarse: np.ndarray, order: int):
    """Evaluate the four quadrants of each rect (R, 4) whose own value is
    `coarse` (R,).  Returns the quadrants (R, 4, 4), their values (R, 4), the
    fine values (R,) and the discrepancies |coarse - fine| (R,)."""
    u0, u1, t0, t1 = rects.T
    um, tm = 0.5 * (u0 + u1), 0.5 * (t0 + t1)
    kids = np.stack(
        [u0, um, t0, tm, u0, um, tm, t1, um, u1, t0, tm, um, u1, tm, t1], axis=-1
    ).reshape(-1, 4, 4)
    kid_vals = _eval_rects(sweep, K, kids.reshape(-1, 4), order).reshape(-1, 4)
    fine = kid_vals.sum(axis=1)
    d = coarse - fine
    # hypot equals abs() of each complex number bit for bit; np.abs on a
    # complex array takes a SIMD path that can differ in the last bit
    return kids, kid_vals, fine, np.hypot(d.real, d.imag)


def _build_sweeps(integrand: PlanarIntegrand, params: QuadratureParams) -> list[_Sweep]:
    W = float(integrand.truncation_radius)
    eps = params.singular_exclusion or 0.0
    active = [complex(a) for a in integrand.singular_points if abs(a) < W * (1 - 1e-12)]
    for i in range(len(active)):
        for j in range(i + 1, len(active)):
            if abs(active[i] - active[j]) <= 4 * eps:
                raise SingularOverlap(
                    f"singular points {active[i]} and {active[j]} closer than 4*eps"
                )

    sweeps: list[_Sweep] = []
    if not active:
        sweeps.append(_Sweep(pole=0j, eps=0.0, W=W))
        return sweeps

    for a in active:
        clearance = min(
            [abs(a - b) / 2.0 for b in active if b != a] + [W - abs(a)]
        )
        sweeps.append(
            _Sweep(
                pole=a,
                eps=min(eps, 0.25 * clearance),
                W=W,
                others=tuple(b for b in active if b != a),
            )
        )
    return sweeps


def _kink_angles(sweep: _Sweep) -> list[float]:
    """Angles (from the pole) where rho(theta) switches branch: bisector/circle
    and bisector/bisector crossings.  Spurious candidates only add panel
    boundaries inside smooth regions, which is harmless."""
    a, W = sweep.pole, sweep.W
    pts: list[complex] = []
    lines = []
    for b in sweep.others:
        m = (a + b) / 2.0
        nh = (b - a) / abs(b - a)
        lines.append((m, nh))
        # bisector {Re((w-m) conj(nh)) = 0} meets |w| = W: w = m + t*i*nh
        B = np.real(m * np.conj(1j * nh))
        disc = B * B - (abs(m) ** 2 - W ** 2)
        if disc > 0:
            for t in (-B + math.sqrt(disc), -B - math.sqrt(disc)):
                pts.append(m + t * 1j * nh)
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            (m1, n1), (m2, n2) = lines[i], lines[j]
            A = np.array(
                [[np.real(n1), np.imag(n1)], [np.real(n2), np.imag(n2)]],
                dtype=np.float64,
            )
            rhs = np.array(
                [np.real(m1 * np.conj(n1)), np.real(m2 * np.conj(n2))],
                dtype=np.float64,
            )
            if abs(np.linalg.det(A)) > 1e-14:
                x, y = np.linalg.solve(A, rhs)
                w = complex(x, y)
                if abs(w) < W:
                    pts.append(w)
    return [math.atan2((p - a).imag, (p - a).real) % (2 * math.pi) for p in pts if p != a]


def _initial_rects(sweep: _Sweep) -> np.ndarray:
    ub = np.linspace(0.0, 1.0, _N_U + 1)
    # theta grid aligned to branch switches of rho, then filled to <= pi/4
    knots = sorted(set(round(t, 14) for t in _kink_angles(sweep)))
    if not knots:
        knots = [0.0]
    bounds = []
    for i, t0 in enumerate(knots):
        t1 = knots[i + 1] if i + 1 < len(knots) else knots[0] + 2 * math.pi
        pieces = max(1, int(math.ceil((t1 - t0) / (math.pi / 4.0))))
        bounds.extend(t0 + (t1 - t0) * k / pieces for k in range(pieces))
    bounds.append(knots[0] + 2 * math.pi)
    return np.array(
        [
            (ub[i], ub[i + 1], bounds[j], bounds[j + 1])
            for i in range(_N_U)
            for j in range(len(bounds) - 1)
        ],
        dtype=np.float64,
    )


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

    Returns (value, error_estimate); the estimate is the refinement
    differencing plus, under an explicit `singular_exclusion`, the estimated
    mass excluded around singular points.  Raises NoConvergence, naming the
    budget, when `max_panels` or `max_refinement_depth` runs out first.
    """
    W = float(integrand.truncation_radius)
    if not math.isfinite(W):
        raise ValueError("truncation_radius must be finite")
    if W <= 0:
        return 0j, 0.0
    order = params.rule_order()
    K = integrand.evaluate
    sweeps = _build_sweeps(integrand, params)

    # entries: [-disc, seq, sweep_idx, depth, value, disc, quadrants (4, 4),
    # quadrant values (4,)]; refining a panel reuses its quadrant values as
    # the children's coarse values, so no rect is ever evaluated twice
    panels = []
    seq = 0
    for si, sw in enumerate(sweeps):
        rects = _initial_rects(sw)
        coarse = _eval_rects(sw, K, rects, order)
        for kids, kid_vals, val, disc in zip(*_split(sw, K, rects, coarse, order)):
            panels.append([-disc, seq, si, 0, val, disc, kids, kid_vals])
            seq += 1
    eps_mass = sum(_excluded_mass(sw, K) for sw in sweeps)

    heapq.heapify(panels)
    total = sum(p[4] for p in panels)
    err = sum(p[5] for p in panels)

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
            if p[3] >= params.max_refinement_depth:
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
        by_sweep: dict[int, list] = {}
        for p in batch:
            by_sweep.setdefault(p[2], []).append(p)
        for si, group in by_sweep.items():
            rects = np.concatenate([p[6] for p in group])
            coarse = np.concatenate([p[7] for p in group])
            results = _split(sweeps[si], K, rects, coarse, order)
            for gi, p in enumerate(group):
                total -= p[4]
                err -= p[5]
                for ci in range(4 * gi, 4 * gi + 4):
                    kids, kid_vals, val, disc = (a[ci] for a in results)
                    heapq.heappush(panels, [-disc, seq, si, p[3] + 1, val, disc, kids, kid_vals])
                    seq += 1
                    total += val
                    err += disc

    value = -2j * total
    error_estimate = 2.0 * (err + eps_mass)
    return value, error_estimate


def cauchy_transform(
    f: Callable[[np.ndarray], np.ndarray],
    support_radius: float,
    z: complex,
    params: QuadratureParams = QuadratureParams(),
) -> complex:
    """Planar Cauchy-Pompeiu transform (1/2 pi i) * integral of f(u)/(u - z) du ^ dubar.

    For f supported in |u| <= support_radius; solves dg/dzbar = f in one
    variable.  The disk-indicator transform equals conj(z) inside the disk.
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
