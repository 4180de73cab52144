"""Empirical verification of the solution operator: dbar residuals on
charts, Hoelder ratio estimation with bracketed distances, L2 ratio
estimation, and the measure scaling law.

Empirical constants are reported, never asserted against theoretical
values; the estimates exist to demonstrate stability, not to certify
bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .charts import Chart, build_chart, chart_views
from .errors import NewtonDivergence, StepTooSmall
from .forms import ZeroOneForm
from .measure import (
    ConeAtlas,
    dist_sigma_path,
    l2_norm_form,
    l2_norm_function,
    link_frames,
    surface_integral,
)
from .quadrature import QuadratureParams
from .solver import solve, solve_l2
from .variety import Variety, act

SolverHandle = Callable[[np.ndarray], complex]


def _require_positive(name: str, value) -> None:
    """Raise ValueError unless `value` (a number or a sequence) is non-empty, finite and > 0."""
    vals = np.asarray(value, dtype=float).ravel()
    if vals.size == 0 or not np.all(np.isfinite(vals) & (vals > 0)):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


# ---------------------------------------------------------------------------
# dbar residuals


@dataclass(frozen=True)
class ResidualSample:
    s: complex
    x: tuple[complex, ...]
    residual_s: float  # | dG/dsbar - F0 | / (1 + sup bound)
    residual_x: tuple[float, ...]  # per slice coordinate


@dataclass(frozen=True)
class ResidualReport:
    anchor: tuple[complex, ...]
    fd_step: float
    samples: tuple[ResidualSample, ...]

    def all_residuals(self) -> np.ndarray:
        vals = []
        for smp in self.samples:
            vals.append(smp.residual_s)
            vals.extend(smp.residual_x)
        return np.asarray(vals)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.all_residuals()))

    @property
    def median_residual(self) -> float:
        return float(np.median(self.all_residuals()))


def _residuals(
    chart: Chart, form: ZeroOneForm, solver_handle: SolverHandle,
    samples: Sequence[tuple[complex, np.ndarray]], h: float, norm: float,
) -> list[list[float]]:
    """Residuals [res_s, res_x_1, ..., res_x_m] of each sample (s, x) at step h: each
    parameter c of (s, x), with k = h max(1, |c|), has the stencil c +- k, c +- ik, all
    solved in one slice batch, and [(G(c+k) - G(c-k)) + i (G(c+ik) - G(c-ik))] / (4k)
    of G = g(Pi(s, x)) is compared with the pullback coefficient of c."""
    rows, steps = [], []  # rows: (s, x_1, ..., x_m) of each stencil point
    for s, x in samples:
        params = [s, *x]
        for j, c in enumerate(params):
            k = h * max(1.0, abs(c))
            c = complex(c)
            steps.append(k)
            for v in (c + k, c - k, c + 1j * k, c - 1j * k):
                rows.append(params[:j] + [v] + params[j + 1:])
    X = np.array([r[1:] for r in rows], dtype=np.complex128)  # (N, m)
    Y, ok = chart.slice_batch(X)
    if not ok.all():
        raise NewtonDivergence(f"slice Newton failed at x = {X[np.argmin(ok)]}")
    g = [solver_handle(act(complex(r[0]), chart.variety.weights, y)) for r, y in zip(rows, Y)]
    d = [((g[i] - g[i + 1]) + 1j * (g[i + 2] - g[i + 3])) / (4.0 * k)
         for i, k in zip(range(0, len(g), 4), steps)]
    out = []
    for i, (s, x) in enumerate(samples):
        F0, FJ = chart.pullback_form(form, s, x)
        D = d[i * (1 + chart.slice_dim):]
        out.append([abs(dc - F) / norm for dc, F in zip(D, [F0, *FJ])])
    return out


def _chart_box_sample(
    rng: np.random.Generator, chart: Chart, reach: float, lo_frac: float, box_frac: float
) -> tuple[complex, np.ndarray]:
    """A point (s, x) of a chart's parameter box: |s| area-uniform in
    [lo_frac, 1] * reach / |anchor| with a uniform phase, and x uniform in
    the complex box of half-width box_frac around x_anchor, where the slice
    Newton converges on every shipped fixture (a failure there raises
    NewtonDivergence)."""
    s_hi = reach / float(np.linalg.norm(chart.anchor))
    r = math.sqrt(rng.uniform((lo_frac * s_hi) ** 2, s_hi ** 2))
    s = r * np.exp(2j * math.pi * rng.uniform())
    if chart.slice_dim:
        x = chart.x_anchor + box_frac * (
            rng.uniform(-1, 1, chart.slice_dim) + 1j * rng.uniform(-1, 1, chart.slice_dim)
        )
    else:
        x = np.zeros(0, dtype=np.complex128)
    return complex(s), x


def dbar_residual(
    variety: Variety,
    form: ZeroOneForm,
    solver_handle: SolverHandle,
    anchor,
    n_samples: int,
    fd_step: float,
    rng_seed: int = 0,
    check_step: bool = True,
) -> ResidualReport:
    """Compare Wirtinger finite differences of G(s, x) = g(Pi(s, x)) against
    the pullback coefficients on a chart at the anchor.

    Residuals are normalized by (1 + sup bound of the form).  A quick
    step-halving probe raises StepTooSmall when quadrature noise dominates
    the finite differences.
    """
    _require_positive("fd_step", fd_step)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    chart = build_chart(variety, anchor)
    rng = np.random.default_rng(rng_seed)
    norm, reach = 1.0 + form.sup_bound, 0.85 * form.support_radius
    probe = [_chart_box_sample(rng, chart, reach, 0.15, 0.3)] if check_step else []
    samples = [_chart_box_sample(rng, chart, reach, 0.15, 0.3) for _ in range(n_samples)]
    if check_step:
        lead_h = max(_residuals(chart, form, solver_handle, probe, fd_step, norm)[0])
        lead_2 = max(_residuals(chart, form, solver_handle, probe, fd_step / 2, norm)[0])
        if lead_2 > 2.5 * lead_h + 1e-12:
            raise StepTooSmall(
                f"halving fd_step raised the residual from {lead_h:.3e} to "
                f"{lead_2:.3e}; quadrature noise dominates"
            )
    residuals = _residuals(chart, form, solver_handle, samples, fd_step, norm)
    return ResidualReport(
        anchor=tuple(complex(v) for v in chart.anchor),
        fd_step=fd_step,
        samples=tuple(
            ResidualSample(s=s, x=tuple(complex(v) for v in x), residual_s=res[0],
                           residual_x=tuple(res[1:]))
            for (s, x), res in zip(samples, residuals)
        ),
    )


# ---------------------------------------------------------------------------
# Hoelder ratios


@dataclass(frozen=True)
class HolderPair:
    z: tuple[complex, ...]
    w: tuple[complex, ...]
    kind: str  # line | slice | general
    scale: float  # adversarial shrink factor toward the singularity
    dist_upper: float  # intrinsic-distance upper bound (projected chord)
    dist_chord: float  # ambient chord, a lower bound on the distance
    delta_g: float
    ratio_upper: float  # delta_g / dist_upper^theta  (conservative)
    ratio_chord: float  # delta_g / dist_chord^theta  (the reported constant)


@dataclass(frozen=True)
class HolderReport:
    theta: float
    radius: float
    sup_bound: float
    pairs: tuple[HolderPair, ...]
    empirical_constant: float  # max ratio_chord over pairs; not normalized


def holder_report(
    variety: Variety,
    form: ZeroOneForm,
    theta: float,
    radius: float,
    n_pairs: int,
    rng_seed: int,
    params: QuadratureParams = QuadratureParams(rel_tol=1e-7, abs_tol=1e-10),
    scale_factors: Sequence[float] = (1.0, 0.1, 0.01),
) -> HolderReport:
    """Sample same-line, same-slice, and general pairs in Sigma cap B_R
    (plus rescaled copies approaching the singularity), evaluate
    |g(z) - g(w)|, and report ratios against both distance brackets: the
    projected chord of `dist_sigma_path` from above, the ambient chord from
    below.
    The pairs come from the charts of `link_frames`, so a variety that is
    not a cone raises NotACone and a link that cannot be sampled raises
    InsufficientSamples, as for `ConeAtlas`; one chart is enough.
    """
    if not (0 < theta < 1):
        raise ValueError("theta must lie in (0, 1)")
    _require_positive("radius", radius)
    _require_positive("scale_factors", scale_factors)
    rng = np.random.default_rng(rng_seed)
    charts = chart_views(variety, *link_frames(variety, 4, rng_seed ^ 0x51C3))

    def rand_sx(chart: Chart):
        return _chart_box_sample(rng, chart, 0.9 * radius, 0.2, 0.25)

    base_pairs: list[tuple[str, np.ndarray, np.ndarray]] = []
    kinds = ["line", "slice", "general"]
    per_kind = max(1, math.ceil(n_pairs / (len(kinds) * len(scale_factors))))
    for kind in kinds:
        made = 0
        while made < per_kind:
            chart = charts[rng.integers(len(charts))]
            s, x = rand_sx(chart)
            if kind == "line":
                s2, _ = rand_sx(chart)
                z, w = chart.eval(s, x), chart.eval(s2, x)
            elif kind == "slice" and chart.slice_dim:
                _, x2 = rand_sx(chart)
                z, w = chart.eval(s, x), chart.eval(s, x2)
            elif kind == "slice":
                # slice pairs degenerate when m = 0; swap the orbit phase
                s2 = s * np.exp(1j * rng.uniform(0.3, math.pi))
                z, w = chart.eval(s, x), chart.eval(complex(s2), x)
            else:
                chart2 = charts[rng.integers(len(charts))]
                s2, x2 = rand_sx(chart2)
                z, w = chart.eval(s, x), chart2.eval(s2, x2)
            if np.linalg.norm(z - w) < 1e-10 * radius:  # relative: any radius yields pairs
                continue
            if np.linalg.norm(z) >= radius or np.linalg.norm(w) >= radius:
                continue
            base_pairs.append((kind, z, w))
            made += 1

    rows: list[HolderPair] = []
    for kind, z0, w0 in base_pairs:
        for t in scale_factors:
            z, w = t * z0, t * w0
            gz = solve(variety, form, z, params).value
            gw = solve(variety, form, w, params).value
            dg = abs(gz - gw)
            upper = dist_sigma_path(variety, z, w)
            chord = float(np.linalg.norm(z - w))
            rows.append(
                HolderPair(
                    z=tuple(map(complex, z)),
                    w=tuple(map(complex, w)),
                    kind=kind,
                    scale=t,
                    dist_upper=upper,
                    dist_chord=chord,
                    delta_g=dg,
                    ratio_upper=dg / upper ** theta,
                    ratio_chord=dg / chord ** theta,
                )
            )
    const = max((r.ratio_chord for r in rows), default=float("nan"))
    return HolderReport(
        theta=theta,
        radius=radius,
        sup_bound=form.sup_bound,
        pairs=tuple(rows),
        empirical_constant=const,
    )


# ---------------------------------------------------------------------------
# L2 ratio


@dataclass(frozen=True)
class L2Report:
    radius: float
    g_norm: float
    g_std_error: float
    lambda_norm: float
    lambda_std_error: float
    ratio: float  # NaN when the form vanishes (degenerate flag set)
    ratio_std_error: float
    degenerate: bool
    n_samples: int
    # summed over the two estimates: box samples whose slice Newton failed,
    # and coverage-pilot link points that no chart covers
    newton_failures: int
    coverage_gaps: int


def l2_report(
    variety: Variety,
    form: ZeroOneForm,
    radius: float,
    n_samples: int,
    rng_seed: int,
    params: QuadratureParams = QuadratureParams(rel_tol=1e-5, abs_tol=1e-8),
    n_anchors: int = 24,
) -> L2Report:
    """Monte Carlo estimate of |g|_{L2(Sigma cap B_R)} / |lambda|_{L2} with
    g from the L2 solution operator; both norms share one stratified atlas.
    """
    _require_positive("radius", radius)
    atlas = ConeAtlas(variety, n_anchors, rng_seed ^ 0xA71A5)

    def g_point(Z: np.ndarray) -> np.ndarray:
        return np.array(
            [solve_l2(variety, form, z, params).value for z in Z], dtype=np.complex128
        )

    g_est = l2_norm_function(
        variety, g_point, radius, n_samples, rng_seed, atlas=atlas
    )
    l_est = l2_norm_form(
        variety, form, form.support_radius, n_samples, rng_seed + 1, atlas=atlas
    )
    degenerate = l_est.value <= 0.0
    if degenerate:
        ratio, ratio_err = float("nan"), float("nan")
    else:
        ratio = g_est.value / l_est.value
        rel = math.hypot(
            g_est.std_error / g_est.value if g_est.value > 0 else 0.0,
            l_est.std_error / l_est.value,
        )
        ratio_err = ratio * rel
    return L2Report(
        radius=radius,
        g_norm=g_est.value,
        g_std_error=g_est.std_error,
        lambda_norm=l_est.value,
        lambda_std_error=l_est.std_error,
        ratio=ratio,
        ratio_std_error=ratio_err,
        degenerate=degenerate,
        n_samples=n_samples,
        newton_failures=g_est.newton_failures + l_est.newton_failures,
        coverage_gaps=g_est.coverage_gaps + l_est.coverage_gaps,
    )


# ---------------------------------------------------------------------------
# measure scaling


@dataclass(frozen=True)
class ScalingRow:
    radius: float
    value: float
    std_error: float
    newton_failures: int
    coverage_gaps: int


@dataclass(frozen=True)
class ScalingReport:
    integrand: str
    rows: tuple[ScalingRow, ...]
    exponent: float
    exponent_std_error: float
    expected_exponent: float


def measure_scaling_check(
    variety: Variety,
    radii: Sequence[float],
    n_samples: int,
    rng_seed: int,
    integrand: str = "norm2",
    n_anchors: int = 24,
) -> ScalingReport:
    """Weighted least-squares slope of log(integral) against log(radius).

    integrand "norm2" uses |z|^2 (expected exponent 2d + 2); "one" uses the
    plain measure (expected 2d).  The slope needs at least 2 distinct radii."""
    _require_positive("radii", radii)
    if len(set(radii)) < 2:
        raise ValueError(f"need at least 2 distinct radii, got {list(radii)}")
    if integrand == "norm2":
        fn = lambda Z: np.linalg.norm(Z, axis=1) ** 2  # noqa: E731
        expected = 2 * variety.pure_dim + 2
    elif integrand == "one":
        fn = lambda Z: np.ones(Z.shape[0])  # noqa: E731
        expected = 2 * variety.pure_dim
    else:
        raise ValueError("integrand must be 'norm2' or 'one'")
    atlas = ConeAtlas(variety, n_anchors, rng_seed ^ 0x5CA1E)
    rows = []
    for i, rho in enumerate(radii):
        est = surface_integral(
            variety, fn, rho, n_samples, (rng_seed + 17 * i) & 0x7FFFFFFF, atlas=atlas
        )
        rows.append(ScalingRow(float(rho), est.value, est.std_error,
                               est.newton_failures, est.coverage_gaps))
    x = np.log([r.radius for r in rows])
    y = np.log([r.value for r in rows])
    sig = np.array([r.std_error / r.value for r in rows])
    wgt = 1.0 / np.maximum(sig, 1e-12) ** 2
    xm = np.sum(wgt * x) / np.sum(wgt)
    ym = np.sum(wgt * y) / np.sum(wgt)
    sxx = np.sum(wgt * (x - xm) ** 2)
    slope = float(np.sum(wgt * (x - xm) * (y - ym)) / sxx)
    slope_err = float(math.sqrt(1.0 / sxx))
    return ScalingReport(
        integrand=integrand,
        rows=tuple(rows),
        exponent=slope,
        exponent_std_error=slope_err,
        expected_exponent=float(expected),
    )
