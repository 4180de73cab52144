"""Independent oracles used by the test suite.

These deliberately avoid the package's adaptive quadrature: planar
transforms are brute-force midpoint grid sums with the Cauchy singularity
subtracted analytically, pullbacks are finite differences through the
chart map, the batched chart, variety and cone Monte Carlo code is
checked against one-point, one-chart and one-row loops, and the lean
integrand and panel paths and the closed-form Newton steps are checked
against the general formulas they shortcut."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from dbarcone import measure
from dbarcone.charts import slice_tangents
from dbarcone.quadrature import _GAUSS, PlanarIntegrand, integrate_plane
from dbarcone.solver import SolveResult


def disk_cauchy_mean(z: complex, W: float) -> complex:
    """Exact integral of 1/(u - z) dA over |u| < W."""
    if abs(z) < W:
        return -np.pi * np.conj(z)
    return -np.pi * W ** 2 / z


# the last grid of f values, keyed by (f, W, N): one slot, because an
# N = 2000 grid holds 64 MB
_GRID_VALUES: list = [None]


def grid_cauchy_transform(f, support_radius: float, z: complex, N: int = 1200) -> complex:
    """(1/2 pi i) * integral of f(u)/(u - z) du ^ dubar by midpoint grid sum.

    The singular part f(z)/(u - z) is integrated analytically over the disk
    and subtracted from the grid integrand, which keeps the sum O(h^2)
    accurate for Lipschitz f.  f on the grid is evaluated once per
    (f, W, N) and reused by the next call with the same three, so f must
    be a pure function.
    """
    W = float(support_radius)
    xs = (np.arange(N) + 0.5) / N * 2 * W - W
    X, Y = np.meshgrid(xs, xs)
    U = X + 1j * Y
    h2 = (2 * W / N) ** 2
    inside = np.abs(U) <= W
    cached = _GRID_VALUES[0]
    if cached is not None and cached[0] is f and cached[1:3] == (W, N):
        fu = cached[3]
    else:
        _GRID_VALUES[0] = None  # free the old grid before building the new one
        fu = np.asarray(f(U.ravel()), dtype=np.complex128).reshape(U.shape)
        _GRID_VALUES[0] = (f, W, N, fu)
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


def chart_frames_by_qr(variety, anchors: np.ndarray):
    """Reference for charts.chart_frames, one anchor at a time through
    LAPACK's pivoted QR of the slice Jacobian (the columns other than the
    pivot argmax |anchor_k|): the first r = n - d pivoted columns are the
    dependent ones, the rest the free ones, and a row passes when the count
    of |R_ii| above 1e-10 |R_00| equals r.  Returns (pivots, free, dep,
    x_anchors, ok)."""
    N, n = anchors.shape
    r = n - variety.pure_dim
    pivots = np.empty(N, dtype=np.intp)
    perms = np.empty((N, n - 1), dtype=np.intp)
    ok = np.empty(N, dtype=bool)
    for i, anchor in enumerate(anchors):
        pivots[i] = np.argmax(np.abs(anchor))
        others = np.array([k for k in range(n) if k != pivots[i]])
        _, R, perm = scipy.linalg.qr(variety.jacobian(anchor)[:, others], pivoting=True,
                                     mode="economic")
        diag = np.abs(np.diag(R))
        ok[i] = np.sum(diag > 1e-10 * (diag[0] if diag.size else 1.0)) == r
        perms[i] = others[perm]
    free = perms[:, r:]
    return pivots, free, perms[:, :r], np.stack([a[f] for a, f in zip(anchors, free)]), ok


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


def cone_mc_by_charts(variety, rho, n_samples, rng_seed, point_fn=None, form=None, atlas=None):
    """Reference for measure._cone_mc, one chart at a time: chart i draws
    its phases, box samples and radii from its own stream, solves its box
    samples with `slice_batch`, assigns them with one `assign` call and
    keeps the points assigned to it.  Same arguments and result."""
    if atlas is None:
        atlas = measure.ConeAtlas(variety, 24, rng_seed)
    d, m, A = atlas.d, atlas.m, len(atlas.charts)
    per = max(16, n_samples // A)
    total = var_total = 0.0
    newton_failures = 0
    for i, chart in enumerate(atlas.charts):
        rng = np.random.default_rng((rng_seed, 0xA7145, i))
        phi = rng.uniform(0.0, 2.0 * math.pi, per)
        if m:
            re = rng.uniform(-atlas.delta, atlas.delta, (per, m))
            im = rng.uniform(-atlas.delta, atlas.delta, (per, m))
            X = chart.x_anchor[None, :] + re + 1j * im
        else:
            X = np.zeros((per, 0), complex)
        Y, ok = chart.slice_batch(X)
        newton_failures += int(per - ok.sum())
        contrib = np.zeros(per)
        if ok.any():
            Yk = Y[ok]
            nrm = np.linalg.norm(Yk, axis=1)
            P = np.exp(1j * phi[ok])[:, None] * Yk / nrm[:, None]
            assigned = atlas.assign(P) == i
            if assigned.any():
                Ya = Yk[assigned]
                Yp = slice_tangents(variety, Ya, chart.free, chart.dep)
                sqrtG = measure._link_gram(Ya, Yp)
                r = rho * rng.uniform(0.0, 1.0, int(assigned.sum())) ** (1.0 / (2 * d))
                Z = r[:, None] * P[assigned]
                if form is not None:
                    fv = measure._form_norm_sq(Ya, Yp, Z, form)
                else:
                    fv = np.asarray(point_fn(Z), dtype=np.float64)
                contrib[np.flatnonzero(ok)[assigned]] = sqrtG * fv * (rho ** (2 * d)) / (2 * d)
        total += atlas.volume * contrib.mean()
        var_total += atlas.volume ** 2 * contrib.var(ddof=1) / per
    pilot = measure.sample_link(
        variety, min(256, max(32, n_samples // 10)), (rng_seed ^ 0x9E3779B9) & 0x7FFFFFFF
    )
    unit = pilot.points / np.linalg.norm(pilot.points, axis=1)[:, None]
    return measure.SurfaceEstimate(
        value=float(total),
        std_error=float(math.sqrt(var_total)),
        n_samples=A * per,
        newton_failures=newton_failures,
        coverage_gaps=int(np.sum(atlas.assign(unit) < 0)),
    )


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


def residuals_by_polynomials(variety, pts) -> np.ndarray:
    """Reference for Variety.residuals: one eval per polynomial, joined by
    np.stack; (K,) at one point, (N, K) on a batch."""
    pts = np.asarray(pts, dtype=np.complex128)
    P = pts.reshape(-1, variety.ambient_dim)
    vals = np.stack([q.eval(P) for q in variety.polynomials], axis=1)
    return vals[0] if pts.ndim == 1 else vals


def jacobian_by_polynomials(variety, pts) -> np.ndarray:
    """Reference for Variety.jacobian: one eval per gradient entry, joined
    by np.stack per polynomial and then across polynomials; (K, n) at one
    point, (N, K, n) on a batch."""
    pts = np.asarray(pts, dtype=np.complex128)
    P = pts.reshape(-1, variety.ambient_dim)
    J = np.stack(
        [np.stack([q.partial(j).eval(P) for j in range(q.n)], axis=1)
         for q in variety.polynomials],
        axis=1,
    )
    return J[0] if pts.ndim == 1 else J


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
    and scattering the field's values into zeros.  W and the inner radius
    are the orbit radii of the support and inner radii, times 1 + 1e-9 and
    1 - 1e-9: R/|z| for unit weights, `orbit_scale_by_rows` otherwise."""
    z = np.asarray(z, dtype=np.complex128)

    def orbit_radius(radius: float) -> float:
        if variety.weights.is_unit:
            return radius / math.sqrt(float(np.sum(np.abs(z) ** 2)))
        return float(orbit_scale_by_rows(variety.weights, z[None, :], radius)[0])

    W = orbit_radius(form.support_radius) * (1.0 + 1e-9)
    inner = form.inner_radius and orbit_radius(form.inner_radius) * (1.0 - 1e-9)
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

    raw, est = integrate_plane(PlanarIntegrand(K, (pole,), W, inner), params)
    return SolveResult(raw / (2j * math.pi), est / (2 * math.pi), W)


def rect_points_by_points(sweep, rects: np.ndarray):
    """Reference for quadrature._nodes, one point at a time: each of the
    8 x 8 Gauss nodes of each rect (R, 4) = (u0, u1, th0, th1) gets its own
    direction exp(1j * theta) and boundary distance.  Returns w and the
    area factor r * span as flat (64 R,) arrays, radial node major within a
    rect.

    Under the split sweep a node at angle a < 0 lies on a ray from the pole
    that crosses the hole |w| < sweep.hole: the ray's angle from the
    direction to the origin is psi = arcsin(k sin(a + pi/2)), k =
    hole/|pole|, its crossings r1 < r2 solve |pole + r d| = hole, and u in
    [0, 1] maps to [0, r1], u in [1, 2] to [r2, rho]; the area factor gains
    dpsi/da = k cos(a + pi/2) / cos psi.  Other nodes are rays at angle a
    from that direction over [0, rho]."""
    x = _GAUSS[0]
    u_mid = 0.5 * (rects[:, 0] + rects[:, 1])
    u_half = 0.5 * (rects[:, 1] - rects[:, 0])
    t_mid = 0.5 * (rects[:, 2] + rects[:, 3])
    t_half = 0.5 * (rects[:, 3] - rects[:, 2])
    shape = (rects.shape[0], len(x), len(x))
    U = np.broadcast_to(u_mid[:, None, None] + u_half[:, None, None] * x[None, :, None], shape)
    TH = np.broadcast_to(t_mid[:, None, None] + t_half[:, None, None] * x[None, None, :], shape)
    u, theta = U.reshape(-1), TH.reshape(-1)
    if not sweep.hole:
        direction = np.exp(1j * theta)
        span = sweep.rho(direction) - sweep.eps
        r = sweep.eps + u * span
        return sweep.pole + r * direction, r * span
    P = abs(sweep.pole)
    k = sweep.hole / P
    cross = theta < 0
    far = u > 1
    psi = theta.copy()
    psi[cross] = np.arcsin(k * np.sin(theta[cross] + math.pi / 2))
    jac = np.ones_like(theta)
    jac[cross] = k * np.cos(theta[cross] + math.pi / 2) / np.cos(psi[cross])
    direction = -sweep.pole / P * np.exp(1j * psi)
    c = np.real(np.conj(sweep.pole) * direction)
    root = np.sqrt(np.maximum(c * c - P * P + sweep.hole ** 2, 0.0))
    lo = np.where(cross & far, -c + root, 0.0)
    hi = np.where(cross & ~far, -c - root, sweep.rho(direction))
    r = lo + (u - far) * (hi - lo)
    return sweep.pole + r * direction, r * (hi - lo) * jac


def eval_rects_by_points(sweep, K, rects: np.ndarray, mass=None) -> np.ndarray:
    """Reference for quadrature._eval_rects: K times the area factor at
    the per-point nodes of `rect_points_by_points`, times the Gauss weights
    and the rect's half-widths, summed in complex arithmetic per rect.  A
    given `mass` receives the same sums of |K|."""
    wgt = _GAUSS[1]
    u_half = 0.5 * (rects[:, 1] - rects[:, 0])
    t_half = 0.5 * (rects[:, 3] - rects[:, 2])
    w, factor = rect_points_by_points(sweep, rects)
    vals = np.asarray(K(w), dtype=np.complex128)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values")
    W2 = wgt[None, :, None] * wgt[None, None, :]
    scale = (u_half * t_half)[:, None, None]

    def rule(v):
        J = (v * factor).reshape(rects.shape[0], len(wgt), len(wgt))
        return np.sum(J * W2 * scale, axis=(1, 2))

    if mass is not None:
        mass[:] = rule(np.abs(vals))
    return rule(vals)


def newton_steps_by_lapack(J: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference for variety.newton_steps with every system, 1 x 1 ones
    included, solved by LAPACK: 1 x 1 blocks exactly (an exactly zero one
    gets no step and is flagged), every other block by the ridge step
    through the smaller Gram matrix.  Returns (step, singular)."""
    M, K, r = J.shape
    singular = np.zeros(M, dtype=bool)
    if K == r == 1:
        singular = J[:, 0, 0] == 0
        step = -np.linalg.solve(np.where(singular[:, None, None], 1.0, J), R)
        step[singular] = 0.0
    else:
        Jh = J.conj().transpose(0, 2, 1)
        G = J @ Jh if K < r else Jh @ J
        G = G + 1e-14 * np.eye(G.shape[1])[None, :, :] * (
            1.0 + np.abs(np.trace(G, axis1=1, axis2=2))[:, None, None]
        )
        step = -(Jh @ np.linalg.solve(G, R)) if K < r else -np.linalg.solve(G, Jh @ R)
    return step, singular
