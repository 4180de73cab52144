"""Independent oracles used by the test suite.

These deliberately avoid the package's adaptive quadrature: planar
transforms are brute-force midpoint grid sums with the Cauchy singularity
subtracted analytically, pullbacks are finite differences through the
chart map, the batched chart and variety code is checked against
one-point, one-chart and one-row loops, and the lean integrand path is
checked against the general formulas it shortcuts."""

from __future__ import annotations

import math

import numpy as np

from dbarcone.quadrature import PlanarIntegrand, integrate_plane
from dbarcone.solver import SolveResult, truncation_radius


def disk_cauchy_mean(z: complex, W: float) -> complex:
    """Exact integral of 1/(u - z) dA over |u| < W."""
    if abs(z) < W:
        return -np.pi * np.conj(z)
    return -np.pi * W ** 2 / z


def grid_cauchy_transform(f, support_radius: float, z: complex, N: int = 1200) -> complex:
    """(1/2 pi i) * integral of f(u)/(u - z) du ^ dubar by midpoint grid sum.

    The singular part f(z)/(u - z) is integrated analytically over the disk
    and subtracted from the grid integrand, which keeps the sum O(h^2)
    accurate for Lipschitz f.
    """
    W = float(support_radius)
    xs = (np.arange(N) + 0.5) / N * 2 * W - W
    X, Y = np.meshgrid(xs, xs)
    U = X + 1j * Y
    h2 = (2 * W / N) ** 2
    inside = np.abs(U) <= W
    fu = np.asarray(f(U.ravel()), dtype=np.complex128).reshape(U.shape)
    fz = complex(np.asarray(f(np.array([z])), dtype=np.complex128)[0]) if abs(z) < W else 0.0
    D = U - z
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(inside & (D != 0), (fu - fz) / np.where(D == 0, 1.0, D), 0.0)
    total = np.sum(vals) * h2 + fz * disk_cauchy_mean(z, W)
    # du ^ dubar = -2i dA, so (1/2 pi i) * integral = (-1/pi) * dA-integral
    return -total / np.pi


def fd_chart_pullback(chart, form, s: complex, x, h: float = 1e-6):
    """Pullback coefficients by central finite differences of the chart map
    (holomorphic, so real-direction differences suffice)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    z = chart.eval(s, x)
    fvals = form.coeff_matrix(z.reshape(1, -1))[0]
    d_s = (chart.eval(s + h, x) - chart.eval(s - h, x)) / (2 * h)
    F0 = complex(np.sum(fvals * np.conj(d_s)))
    FJ = []
    for j in range(chart.slice_dim):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        d_j = (chart.eval(s, xp) - chart.eval(s, xm)) / (2 * h)
        FJ.append(complex(np.sum(fvals * np.conj(d_j))))
    return F0, np.asarray(FJ, dtype=np.complex128)


def nearest_covering_chart(atlas, pts: np.ndarray) -> np.ndarray:
    """Reference for ConeAtlas.assign, one point at a time: the index of the
    nearest anchor whose chart covers the point (one `covers` call per
    point and chart, nearest first), or -1 when none does."""
    out = np.full(pts.shape[0], -1, dtype=int)
    for i, p in enumerate(pts):
        dists = np.linalg.norm(atlas.unit_anchors - p, axis=1)
        for j in np.argsort(dists):
            if atlas.covers(int(j), p[None, :])[0]:
                out[i] = j
                break
    return out


def in_box(atlas, j: int, pts: np.ndarray) -> np.ndarray:
    """Whether each unit point's slice coordinates for chart j fall in that
    chart's parameter box."""
    c, delta = atlas.charts[j], atlas.delta
    s = pts[:, c.pivot] / c.anchor[c.pivot]
    hit = np.zeros(pts.shape[0], dtype=bool)
    for i in np.flatnonzero(np.abs(s) > 1e-12):
        diff = pts[i, list(c.free)] / s[i] - c.x_anchor
        hit[i] = np.all((np.abs(diff.real) <= delta) & (np.abs(diff.imag) <= delta))
    return hit


def orbit_scale_by_rows(weights, pts: np.ndarray, target: float) -> np.ndarray:
    """Reference for variety.orbit_scale, one row at a time: double hi from
    1 until |hi^beta z| >= target, then 200 bisection steps on [0, hi]."""
    b = 2.0 * weights.as_array().astype(np.float64)
    out = np.empty(pts.shape[0])
    for i, z in enumerate(np.asarray(pts, dtype=np.complex128)):
        amp = np.abs(z) ** 2

        def nrm2(t: float) -> float:
            return float(np.sum(t ** b * amp))

        lo, hi = 0.0, 1.0
        while nrm2(hi) < target ** 2:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if nrm2(mid) >= target ** 2:
                hi = mid
            else:
                lo = mid
        out[i] = hi
    return out


def regular_by_points(variety, pts: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Reference for variety.regular_batch, one point at a time: the number
    of Jacobian singular values above tol * sigma_max equals the codimension."""
    out = np.zeros(pts.shape[0], dtype=bool)
    for i, z in enumerate(pts):
        sv = np.linalg.svd(variety.jacobian(z), compute_uv=False)
        rank = 0 if sv[0] == 0.0 else int(np.sum(sv > tol * sv[0]))
        out[i] = rank == variety.ambient_dim - variety.pure_dim
    return out


def project_whole_batch(variety, seeds: np.ndarray, tol: float = 1e-12, max_iter: int = 60):
    """Reference for variety.project_batch: each iteration re-evaluates every
    row, takes the ridge step J^H (J J^H + lam I)^{-1} Q on the rows not yet
    converged, and halves the step of the rows whose |Q|^2 grew, evaluating
    the whole batch again after each halving (20 at most)."""
    Z = np.array(seeds, dtype=np.complex128)
    for _ in range(max_iter):
        res = variety.residuals(Z)
        active = ~membership(variety, Z, res, tol)
        if not active.any():
            break
        Za, Ra = Z[active], res[active]
        J = variety.jacobian(Za)
        JJh = J @ J.conj().transpose(0, 2, 1)
        JJh = JJh + 1e-14 * np.eye(JJh.shape[1])[None, :, :] * (
            1.0 + np.abs(np.trace(JJh, axis1=1, axis2=2))[:, None, None]
        )
        step = -(J.conj().transpose(0, 2, 1) @ np.linalg.solve(JJh, Ra[:, :, None]))[:, :, 0]
        alpha = np.ones(Za.shape[0])
        base = np.sum(np.abs(Ra) ** 2, axis=1)
        new = Za + step
        for _ in range(20):
            bad = np.sum(np.abs(variety.residuals(new)) ** 2, axis=1) > base * (1.0 + 1e-12)
            if not bad.any():
                break
            alpha[bad] *= 0.5
            new[bad] = Za[bad] + alpha[bad, None] * step[bad]
        Z[active] = new
    return Z, membership(variety, Z, variety.residuals(Z), tol)


def membership(variety, Z: np.ndarray, res: np.ndarray, tol: float) -> np.ndarray:
    """|Q_k(z)| <= tol * max(1, |z|^(d_k / min beta)) for every k, per row."""
    norms = np.linalg.norm(Z, axis=1)
    degs = np.asarray(variety.degrees, dtype=np.float64)
    scale = np.maximum(1.0, norms[:, None] ** (degs[None, :] / min(variety.weights.entries)))
    return np.all(np.abs(res) <= tol * scale, axis=1)


def poly_eval_broadcast(poly, pts):
    """Reference for SparsePolynomial.eval: every monomial as the product of
    all n powers, zero exponents included, over an (N, T, n) broadcast."""
    pts = np.asarray(pts, dtype=np.complex128)
    P = pts.reshape(-1, poly.n)
    if poly.is_zero:
        out = np.zeros(P.shape[0], dtype=np.complex128)
    else:
        E = poly.exponent_matrix()
        C = np.asarray([c for _, c in poly.terms], dtype=np.complex128)
        out = np.prod(P[:, None, :] ** E[None, :, :], axis=2) @ C
    return out[0] if pts.ndim == 1 else out


def solve_general_kernel(variety, form, z, params, pole: complex = 1.0 + 0j, m: int = 0):
    """Reference for solver._solve at a nonzero z and pole: the kernel with
    w ** beta and conj(w) ** (beta_k - 1) taken for every weight, unit ones
    included, and the support cutoff applied by gathering the inside rows
    and scattering the field's values into zeros."""
    z = np.asarray(z, dtype=np.complex128)
    W = truncation_radius(variety.weights, z, form.support_radius)
    beta = variety.weights.as_array()
    live = [k for k in range(variety.ambient_dim) if z[k] != 0]

    def K(w: np.ndarray) -> np.ndarray:
        P = (w[:, None] ** beta[None, :]) * z[None, :]
        inside = np.linalg.norm(P, axis=1) < form.support_radius
        F = np.zeros_like(P)
        if inside.any():
            F[inside] = form.field(P[inside])
        wc = np.conj(w)
        acc = np.zeros(w.shape, dtype=np.complex128)
        for k in live:
            acc += beta[k] * F[:, k] * wc ** (beta[k] - 1) * np.conj(z[k])
        if m:
            acc = acc * w ** m
        return acc / (w - pole)

    raw, est = integrate_plane(PlanarIntegrand(K, (pole,), W), params)
    return SolveResult(raw / (2j * math.pi), est / (2 * math.pi), W)
