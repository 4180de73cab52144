"""Surface-measure integration over cone varieties, link sampling, and a
computable upper-bound proxy for the intrinsic distance on the variety.

The cone Monte Carlo parametrizes the link K = Sigma intersect {|z| = 1}
through charts as psi(phi, x) = e^{i phi} Y(x)/|Y(x)| and integrates

    integral over Sigma cap B_rho = integral over K [ integral_0^rho
        f(r k) r^(2d-1) dr ] dsigma(k),

sampling (phi, x) uniformly in per-chart boxes, weighting by the Gram
volume factor of the link parametrization, sampling the radius with the
cone density r^(2d-1), and resolving chart overlaps by assigning every
link point to the nearest anchor whose chart covers it (so each point is
counted exactly once).

Every chart draws its samples from its own random stream, so they depend
on no other chart.  One estimate then runs one slice Newton and one
`ConeAtlas.assign` over the samples of all charts together (in blocks of
`_BLOCK` rows, which bounds memory; the coverage pilot's link points ride
in the last block's `assign`), and one tangent, Gram and integrand
evaluation over the rows each chart keeps.

The distance upper bound is the length of the projected chord: the ambient
segment between two points, projected node by node onto the variety."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .charts import chart_frames, slice_newton, slice_tangents
from .errors import (
    InsufficientSamples,
    NotACone,
    ProjectionFailure,
)
from .forms import ZeroOneForm
from .variety import Variety, act, contains_batch, orbit_scale, project_batch, regular_batch

__all__ = [
    "LinkSample",
    "SurfaceEstimate",
    "ConeAtlas",
    "sample_link",
    "link_frames",
    "surface_integral",
    "l2_norm_function",
    "l2_norm_form",
    "dist_sigma_path",
]


@dataclass(frozen=True)
class LinkSample:
    """Points on the link Sigma intersect {|z| = sqrt(n)}; every point has a
    coordinate of modulus >= 1."""

    points: np.ndarray  # (N, n)
    seeds_used: int


@dataclass(frozen=True)
class SurfaceEstimate:
    value: float
    std_error: float
    n_samples: int
    newton_failures: int
    coverage_gaps: int


def _rescale_to_norm(variety: Variety, pts: np.ndarray, target: float) -> np.ndarray:
    """Move each point along its scaling orbit to the requested norm
    (closed form for cones, the orbit-scale bisection otherwise)."""
    pts = np.asarray(pts, dtype=np.complex128)
    if variety.weights.is_unit:
        return pts * (target / np.linalg.norm(pts, axis=1))[:, None]
    return act(orbit_scale(variety.weights, pts, target), variety.weights, pts)


def sample_link(variety: Variety, count: int, rng_seed: int) -> LinkSample:
    """Project random ambient Gaussians onto the variety, then rescale along
    the scaling orbit to the sphere of radius sqrt(n), in at most 50 batches."""
    rng = np.random.default_rng(rng_seed)
    n = variety.ambient_dim
    target = math.sqrt(n)
    kept: list[np.ndarray] = []
    used = 0
    attempted = 0
    while sum(len(k) for k in kept) < count and used < 50:
        used += 1
        m = max(2 * count, 32)
        attempted += m
        seeds = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(2)
        Z, ok = project_batch(variety, seeds)
        Z = Z[ok & (np.linalg.norm(Z, axis=1) > 1e-8)]
        if Z.shape[0] == 0:
            continue
        # rescaling multiplies residuals by s^degree, so polish and rescale
        # once more to land on the sphere at full precision
        Z = _rescale_to_norm(variety, Z, target)
        Z, ok = project_batch(variety, Z, tol=1e-13)
        Z = Z[ok]
        if Z.shape[0] == 0:
            continue
        Z = _rescale_to_norm(variety, Z, target)
        Z = Z[contains_batch(variety, Z, tol=1e-9)]
        if variety.pure_dim is not None and Z.shape[0]:
            Z = Z[regular_batch(variety, Z)]
        kept.append(Z)
    pts = np.concatenate(kept, axis=0) if kept else np.zeros((0, n), complex)
    if pts.shape[0] < count:
        rate = 1.0 - pts.shape[0] / max(attempted, 1)
        raise InsufficientSamples(
            f"projection failure rate {rate:.0%}: got {pts.shape[0]} of {count}"
        )
    return LinkSample(points=pts[:count], seeds_used=used)


def link_frames(variety: Variety, count: int, rng_seed: int) -> tuple[np.ndarray, ...]:
    """Anchors (A, n) and `chart_frames` rows of the charts at `count` link
    points of a cone.  `sample_link` keeps only regular points with a
    coordinate of modulus >= 1, so every row is a valid chart frame."""
    if not variety.weights.is_unit:
        raise NotACone("link charts require unit weights")
    if variety.pure_dim is None:
        raise ValueError("link charts require pure_dim")
    anchors = sample_link(variety, count, rng_seed).points
    if not anchors.shape[0]:
        raise InsufficientSamples("no chart anchors")
    return (anchors, *chart_frames(variety, anchors))


# ---------------------------------------------------------------------------
# stratified cone Monte Carlo

# rows per slice-Newton and `assign` batch of the cone Monte Carlo: bounds
# its memory at large sample counts; a row's result does not depend on it
_BLOCK = 4096


class ConeAtlas:
    """Charts anchored at sampled link points, with parameter boxes sized to
    tile the link; every link point is assigned to the nearest covering
    chart so strata never double count.

    Every box has one half-width `delta`, 2.5 times the median distance
    from a unit anchor to its nearest neighbour, so a surface (m >= 1) needs
    2 charts; a curve (m = 0) has no slice box and accepts one chart."""

    def __init__(self, variety: Variety, n_anchors: int, rng_seed: int):
        # the stacked frames are the only chart data; chart i is row i
        frames = link_frames(variety, n_anchors, rng_seed)
        self.anchors, self.pivots, self.free, self.dep, self.x_anchors = frames
        self.variety = variety
        self.d, self.m = variety.pure_dim, variety.pure_dim - 1
        self.unit_anchors = np.stack([a / np.linalg.norm(a) for a in self.anchors])
        if self.m:
            if len(self.anchors) < 2:
                raise InsufficientSamples(
                    f"a surface atlas needs 2 charts to size its boxes, got {len(self.anchors)}"
                )
            U = self.unit_anchors
            dd = np.linalg.norm(U[:, None, :] - U[None, :, :], axis=2)
            np.fill_diagonal(dd, np.inf)
            self.delta = 2.5 * float(np.median(dd.min(axis=1)))
        else:
            self.delta = 0.0
        # box volume: phases times the real-coordinate box of the slice params
        self.volume = 2.0 * math.pi * (2.0 * self.delta) ** (2 * self.m)

    def covers(self, chart_idx: int, pts: np.ndarray) -> np.ndarray:
        """Which unit link points lie in the box image of this chart."""
        return self._covered(np.full(pts.shape[0], chart_idx, dtype=np.intp), pts)

    def _covered(self, idx: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Whether each unit link point pts[i] lies in the box image of chart
        idx[i]: rescale it onto that chart's slice, test the parameter box,
        and match it against the slice Newton solution.

        Newton starts from the anchor's branch, never from the point's own
        dependent coordinates: a point on another branch over the same free
        coordinates (another line of a cone, the other square root of a
        quadric) must fail the match, or two charts would count it."""
        rows = np.arange(pts.shape[0])
        pivots = self.pivots[idx]
        start = self.anchors[idx]  # a copy; Newton starts at the anchor
        s = pts[rows, pivots] / start[rows, pivots]
        good = np.abs(s) > 1e-12
        out = np.zeros(pts.shape[0], dtype=bool)
        if not good.any():
            return out
        Y = np.zeros_like(pts)
        Y[good] = pts[good] / s[good, None]
        if self.m:
            free = self.free[idx]
            X = np.take_along_axis(Y, free, axis=1)
            diff = X - self.x_anchors[idx]
            inbox = good & np.all(
                (np.abs(diff.real) <= self.delta) & (np.abs(diff.imag) <= self.delta), axis=1
            )
            np.put_along_axis(start, free, X, axis=1)
        else:
            inbox = good
        if not inbox.any():
            return out
        Ysol, ok = slice_newton(self.variety, start[inbox], self.dep[idx[inbox]])
        match = ok & (
            np.linalg.norm(Ysol - Y[inbox], axis=1)
            <= 1e-6 * (1.0 + np.linalg.norm(Y[inbox], axis=1))
        )
        out[inbox] = match
        return out

    def assign(self, pts: np.ndarray) -> np.ndarray:
        """Index of the nearest covering chart per unit link point; -1 when
        no chart covers a point (a coverage gap).

        Two rounds of box tests and slice Newtons: every point against its
        nearest anchor's chart, then every point still undecided against
        all its other charts at once, one row per (point, chart) pair, in
        batches of at most `_BLOCK` rows (one batch for up to
        `_BLOCK // (A - 1)` undecided points).  A point takes its first hit
        in rank order, so it gets the nearest chart that covers it.  That
        equals testing one rank at a time, because each row's box test,
        Newton and branch match depend on that row alone (see
        `slice_newton`).  Each Newton starts from its chart anchor's branch:
        started from the point itself it would accept points on another
        branch of the slice, which another chart also counts."""
        dists = np.empty((pts.shape[0], len(self.anchors)))
        for a, anchor in enumerate(self.unit_anchors):  # no (N, A, n) temporary
            dists[:, a] = np.linalg.norm(pts - anchor, axis=1)
        order = np.argsort(dists, axis=1)
        result = np.where(self._covered(order[:, 0], pts), order[:, 0], -1)
        k = order.shape[1] - 1
        if k == 0:
            return result
        todo = np.flatnonzero(result < 0)
        step = max(1, _BLOCK // k)  # points per batch of at most _BLOCK rows
        for lo in range(0, todo.size, step):
            pick = todo[lo:lo + step]
            cand = order[pick, 1:]  # nearest first
            hit = self._covered(cand.ravel(), np.repeat(pts[pick], k, axis=0)).reshape(-1, k)
            found = hit.any(axis=1)
            result[pick[found]] = cand[found, hit.argmax(axis=1)[found]]
        return result


def _link_gram(Y: np.ndarray, Yp: np.ndarray) -> np.ndarray:
    """sqrt det of the real Gram matrix of the link parametrization
    psi(phi, x) = e^{i phi} Y(x)/|Y(x)| at a batch of slice points Y with
    slice tangents Yp = dY/dx: (M, n, m)."""
    M, n, m = Yp.shape
    nrm = np.linalg.norm(Y, axis=1)
    yh = Y / nrm[:, None]
    tangents = np.empty((M, 1 + 2 * m, n), dtype=np.complex128)
    tangents[:, 0, :] = 1j * yh
    for j in range(m):
        v = Yp[:, :, j]
        for which, vv in enumerate((v, 1j * v)):
            proj = np.real(np.sum(vv * np.conj(yh), axis=1))
            tangents[:, 1 + 2 * j + which, :] = (vv - yh * proj[:, None]) / nrm[:, None]
    V = np.concatenate([tangents.real, tangents.imag], axis=2)  # (M, 1 + 2m, 2n)
    G = V @ V.transpose(0, 2, 1)
    det = np.linalg.det(G)
    return np.sqrt(np.maximum(det, 0.0))


def _form_norm_sq(Y: np.ndarray, Yp: np.ndarray, Z: np.ndarray, form: ZeroOneForm) -> np.ndarray:
    """|lambda|_Sigma^2 at sample points Z = r e^{i phi} Y/|Y|: express the
    form in an orthonormal frame of the antiholomorphic cotangent space
    spanned by Y and its slice tangents Yp."""
    E = np.linalg.qr(np.concatenate([Y[:, :, None], Yp], axis=2))[0]  # (M, n, d)
    F = form.coeff_matrix(Z)  # (M, n)
    coeff = np.einsum("mnd,mn->md", np.conj(E), F)
    return np.sum(np.abs(coeff) ** 2, axis=1).real


def _cone_mc(
    variety: Variety,
    rho: float,
    n_samples: int,
    rng_seed: int,
    point_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    form: Optional[ZeroOneForm] = None,
    atlas: Optional[ConeAtlas] = None,
) -> SurfaceEstimate:
    """Shared stratified estimator; integrand is point_fn(Z) or, when `form`
    is given, the squared induced norm of the form.  Without an atlas it
    builds one on 24 anchors.

    Chart i draws its phases, box samples and radii from its own stream
    `default_rng((rng_seed, 0xA7145, i))`, so its samples depend on no
    other chart.  All charts' box samples then go through one slice Newton
    and one `assign` (in blocks of `_BLOCK` rows), and each chart keeps the
    rows assigned to it.  The coverage pilot, at most 256 independently
    sampled link points, is drawn first and assigned with the last block,
    so an estimate makes one `assign` call.  Tangents, Gram factors and
    the integrand run once over the kept rows.  Each row depends on that
    row alone and the per-chart sums are added in chart order, so the
    estimate equals a loop over the charts on the same streams bit for
    bit."""
    if atlas is None:
        atlas = ConeAtlas(variety, 24, rng_seed)
    d = atlas.d
    m = atlas.m
    A = len(atlas.anchors)
    per = max(16, n_samples // A)
    N = A * per
    rngs = [np.random.default_rng((rng_seed, 0xA7145, i)) for i in range(A)]
    # row j belongs to chart owner[j] and starts from that chart's anchor
    owner = np.repeat(np.arange(A), per)
    phi = np.empty(N)
    Y0 = atlas.anchors[owner]
    for i, rng in enumerate(rngs):
        own = slice(i * per, (i + 1) * per)
        phi[own] = rng.uniform(0.0, 2.0 * math.pi, per)
        if m:
            re = rng.uniform(-atlas.delta, atlas.delta, (per, m))
            im = rng.uniform(-atlas.delta, atlas.delta, (per, m))
            Y0[own, atlas.free[i]] = atlas.x_anchors[i] + re + 1j * im
    # coverage diagnostic: independently sampled link points must all be
    # covered by some chart box; they ride in the last block's assign
    pilot = sample_link(variety, min(256, max(32, n_samples // 10)), (rng_seed ^ 0x9E3779B9) & 0x7FFFFFFF)
    unit = pilot.points / np.linalg.norm(pilot.points, axis=1)[:, None]
    newton_failures = 0
    kept, Y_kept, P_kept = [], [], []
    for start in range(0, N, _BLOCK):
        rows = np.arange(start, min(start + _BLOCK, N))
        Y, ok = slice_newton(variety, Y0[rows], atlas.dep[owner[rows]])
        newton_failures += int(rows.size - ok.sum())
        rows, Y = rows[ok], Y[ok]
        P = np.exp(1j * phi[rows])[:, None] * Y / np.linalg.norm(Y, axis=1)[:, None]
        last = start + _BLOCK >= N
        labels = atlas.assign(np.concatenate([P, unit]) if last else P)
        hit = labels[:rows.size] == owner[rows]
        gaps = int(np.sum(labels[rows.size:] < 0))  # the pilot's, in the last block
        kept.append(rows[hit])
        Y_kept.append(Y[hit])
        P_kept.append(P[hit])
    rows = np.concatenate(kept)
    vals = np.zeros(N)
    if rows.size:
        Ya = np.concatenate(Y_kept)
        Yp = slice_tangents(variety, Ya, atlas.free[owner[rows]], atlas.dep[owner[rows]])
        sqrtG = _link_gram(Ya, Yp)
        counts = np.bincount(owner[rows], minlength=A)
        u = np.concatenate([rng.uniform(0.0, 1.0, c) for rng, c in zip(rngs, counts)])
        Z = (rho * u ** (1.0 / (2 * d)))[:, None] * np.concatenate(P_kept)
        if form is not None:
            fv = _form_norm_sq(Ya, Yp, Z, form)
        else:
            fv = np.asarray(point_fn(Z), dtype=np.float64)
        vals[rows] = sqrtG * fv * (rho ** (2 * d)) / (2 * d)
    total = 0.0
    var_total = 0.0
    for contrib in vals.reshape(A, per):
        total += atlas.volume * contrib.mean()
        var_total += atlas.volume ** 2 * contrib.var(ddof=1) / per
    return SurfaceEstimate(
        value=float(total),
        std_error=float(math.sqrt(var_total)),
        n_samples=N,
        newton_failures=newton_failures,
        coverage_gaps=gaps,
    )


def surface_integral(
    variety: Variety,
    integrand: Callable[[np.ndarray], np.ndarray],
    rho: float,
    n_samples: int,
    rng_seed: int,
    atlas: Optional[ConeAtlas] = None,
) -> SurfaceEstimate:
    """Monte Carlo estimate of the surface integral of a real integrand over
    Sigma intersect B_rho; `integrand` maps an (N, n) batch to (N,) reals."""
    return _cone_mc(variety, rho, n_samples, rng_seed, point_fn=integrand, atlas=atlas)


def l2_norm_function(
    variety: Variety,
    h: Callable[[np.ndarray], np.ndarray],
    rho: float,
    n_samples: int,
    rng_seed: int,
    atlas: Optional[ConeAtlas] = None,
) -> SurfaceEstimate:
    """sqrt of the surface integral of |h|^2 (see `_square_root`)."""

    def sq(Z: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(h(Z), dtype=np.complex128)) ** 2

    return _square_root(
        _cone_mc(variety, rho, n_samples, rng_seed, point_fn=sq, atlas=atlas)
    )


def l2_norm_form(
    variety: Variety,
    form: ZeroOneForm,
    rho: float,
    n_samples: int,
    rng_seed: int,
    atlas: Optional[ConeAtlas] = None,
) -> SurfaceEstimate:
    """L2 norm of a (0,1)-form over Sigma intersect B_rho using the induced
    pointwise norm (orthonormalized chart frame), so the value is invariant
    under coefficient representations that agree on the tangent space."""
    return _square_root(_cone_mc(variety, rho, n_samples, rng_seed, form=form, atlas=atlas))


def _square_root(est: SurfaceEstimate) -> SurfaceEstimate:
    """sqrt of an integral estimate, std_error propagated through the
    square root."""
    val = math.sqrt(max(est.value, 0.0))
    err = est.std_error / (2.0 * val) if val > 0 else est.std_error
    return SurfaceEstimate(val, err, est.n_samples, est.newton_failures, est.coverage_gaps)


# ---------------------------------------------------------------------------
# intrinsic distance upper bound


# segments of the projected chord
_CHORD_STEPS = 24


def dist_sigma_path(variety: Variety, z, w) -> float:
    """Upper bound on the intrinsic distance: the length of the ambient
    segment from z to w at _CHORD_STEPS + 1 nodes, projected node by node
    onto the variety (the projected chord), and never below the chordal
    distance.  An endpoint at the origin needs no special case: on a cone
    the segment to the origin lies on the variety.  Raises ProjectionFailure
    when a node of the chord does not project.

    Only the projected chord is tried.  On every pair that the tests,
    configs and scripts measure it is shorter than the two-leg routes (a
    radial leg along the scaling orbit, then a walk at fixed norm); on other
    pairs such a route can be shorter, so the bound may be looser there,
    never invalid."""
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    ts = np.linspace(0.0, 1.0, _CHORD_STEPS + 1)
    path, ok = project_batch(variety, z[None, :] * (1 - ts)[:, None] + w[None, :] * ts[:, None])
    if not ok.all():
        raise ProjectionFailure("the chord could not be projected onto the variety")
    path[0], path[-1] = z, w
    polyline = float(np.sum(np.linalg.norm(np.diff(path, axis=0), axis=1)))
    return max(polyline, float(np.linalg.norm(z - w)))
