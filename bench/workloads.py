"""The three benchmark workloads.

Each workload turns a seed into a list of ops, one public dbarcone call
each, arranged in cycles: a cycle holds one op of every stratum (fixture x
operator x band), so any run of whole cycles has the same mix.  Ops look
their entry point up on the module at call time (`solver.solve`, not a
bound reference), so the tracer's wrappers see every call.

Every op result is checked against an exact reference; `check` returns a
record with `ok` and the figures the summary needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from dbarcone import fixtures, measure, solver, verify
from dbarcone.quadrature import QuadratureParams
from dbarcone.variety import Variety, act

import references

# acceptance-suite solve tolerances (SOLVE_PARAMS in tests/test_acceptance.py)
PARAMS = QuadratureParams(rel_tol=1e-8, abs_tol=1e-11)
H_COEFFS = (1.0, 0.5)  # h = 1 + 0.5 z_1, the suite's bump-dbar family
R0, RADIUS = 0.3, 1.0


@dataclass
class Op:
    kind: str  # stratum label
    call: Callable[[], Any]
    check: Callable[[Any], dict]


def _bump_form(variety: Variety, h_coeffs=H_COEFFS):
    n = variety.ambient_dim
    terms = [((0,) * n, h_coeffs[0]), ((1,) + (0,) * (n - 1), h_coeffs[1])]
    return fixtures.make_form("bump-dbar", n, h_terms=terms, r0=R0, radius=RADIUS)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def _stratified(rng: np.random.Generator, count: int, block: int = 10) -> np.ndarray:
    """`count` draws in [0, 1): each run of `block` consecutive draws holds
    one draw from each of `block` equal sub-intervals, in random order, so a
    run of whole blocks covers the range evenly."""
    u = np.empty(count)
    for start in range(0, count, block):
        k = min(block, count - start)
        u[start:start + k] = (rng.permutation(block)[:k] + rng.uniform(size=k)) / block
    return u


def _orbit_scale(variety: Variety, xi: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Real t > 0 with |t^beta * xi| = radius, per row (bisection; the norm
    is increasing in t)."""
    beta = variety.weights.as_array().astype(np.float64)
    amp = np.abs(xi) ** 2
    lo = np.zeros(len(radius))
    hi = np.full(len(radius), 1.0)
    while np.any(np.sum(hi[:, None] ** (2 * beta) * amp, axis=1) < radius ** 2):
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        big = np.sum(mid[:, None] ** (2 * beta) * amp, axis=1) >= radius ** 2
        hi = np.where(big, mid, hi)
        lo = np.where(big, lo, mid)
    return hi


# ---------------------------------------------------------------------------
# solve-grid


class SolveGrid:
    """Independent bump-dbar solves on all four fixtures, `solve` everywhere
    and `solve_l2` on the cones, at link-orbit points in three |z| bands."""

    name = "solve-grid"
    tail_pct = 90.0
    trace_cycles = 5
    pool_cycles = 60  # inputs for runs up to about six times the minimum
    # |z| bands; near is log-uniform because the truncation disk grows like
    # (R/|z|)^(1/min beta) and sets the tail
    BANDS = {"near": (1e-3, 0.05), "mid": (0.05, 0.3), "far": (0.3, 0.95)}
    # 10x the relative tolerance times sup |h chi| = 1.5
    ERR_TOL = 10 * PARAMS.rel_tol * 1.5
    LINK_POOL = 32

    def build(self, seed: int, cycles: int) -> list[Op]:
        rng = np.random.default_rng([seed, 1])
        per_stratum = []
        for name in ("line2", "quadric-cone", "cusp", "cone6"):
            variety = fixtures.make_variety(name)
            form = _bump_form(variety)
            link = measure.sample_link(variety, self.LINK_POOL, _seed(rng)).points
            operators = ("solve", "solve_l2") if variety.weights.is_unit else ("solve",)
            for op_name in operators:
                for band, (lo, hi) in self.BANDS.items():
                    xi = link[rng.integers(0, len(link), cycles)]
                    u = _stratified(rng, cycles)
                    r = lo * (hi / lo) ** u if band == "near" else lo + (hi - lo) * u
                    s = _orbit_scale(variety, xi, r) * np.exp(2j * math.pi * rng.uniform(size=cycles))
                    Z = [act(complex(si), variety.weights, x) for si, x in zip(s, xi)]
                    per_stratum.append((f"{name}/{op_name}/{band}", variety, form, op_name, Z))
        ops = []
        for c in range(cycles):
            for kind, variety, form, op_name, Z in per_stratum:
                z = Z[c]
                ops.append(Op(kind, self._call(op_name, variety, form, z), self._check(z)))
        return ops

    @staticmethod
    def _call(op_name, variety, form, z):
        return lambda: getattr(solver, op_name)(variety, form, z, PARAMS)

    def _check(self, z):
        exact = references.bump_solution(z, H_COEFFS, R0, RADIUS)

        def check(res) -> dict:
            err = abs(res.value - exact)
            est = res.quadrature_error
            return {"ok": err <= self.ERR_TOL and est >= err, "err": err, "est": est}

        return check

    def summarize(self, records: list[dict]) -> dict:
        errs = [r["err"] for r in records]
        ratios = [r["est"] / r["err"] for r in records if r["err"] > 0]
        return {
            "err_max": (max(errs) if errs else 0.0, "abs"),
            "est_over_err": (float(np.median(ratios)) if ratios else 0.0, "ratio"),
        }

    def aggregate_ok(self, records_by_kind: dict[str, list[dict]]) -> bool:
        return True


# ---------------------------------------------------------------------------
# fd-stencil


class FdStencil:
    """Finite-difference dbar residual samples through `verify.dbar_residual`:
    quadric-cone with the `solve` and `solve_l2` handles, cusp (weighted,
    slice dimension 0) with `solve`.  One op is one call with one sample."""

    name = "fd-stencil"
    tail_pct = 75.0
    trace_cycles = 6
    pool_cycles = 80
    FD_STEP = 1e-4
    # criterion 4 of the acceptance suite
    MEDIAN_TOL, MAX_TOL = 1e-3, 1e-2
    ANCHOR_POOL = 16

    def build(self, seed: int, cycles: int) -> list[Op]:
        rng = np.random.default_rng([seed, 2])
        strata = []
        for name, operators in (("quadric-cone", ("solve", "solve_l2")), ("cusp", ("solve",))):
            variety = fixtures.make_variety(name)
            form = _bump_form(variety)
            anchors = measure.sample_link(variety, self.ANCHOR_POOL, _seed(rng)).points
            for op_name in operators:
                strata.append((f"{name}/{op_name}", variety, form, op_name, anchors))
        ops = []
        for _ in range(cycles):
            for kind, variety, form, op_name, anchors in strata:
                anchor = anchors[rng.integers(0, len(anchors))]
                ops.append(Op(kind, self._call(op_name, variety, form, anchor, _seed(rng)),
                              self._check))
        return ops

    def _call(self, op_name, variety, form, anchor, rng_seed):
        def handle(z):
            return getattr(solver, op_name)(variety, form, z, PARAMS).value

        return lambda: verify.dbar_residual(
            variety, form, handle, anchor, 1, self.FD_STEP, rng_seed=rng_seed, check_step=False
        )

    def _check(self, report) -> dict:
        vals = report.all_residuals().tolist()
        return {"ok": max(vals) <= self.MAX_TOL, "residuals": vals}

    def summarize(self, records: list[dict]) -> dict:
        vals = [v for r in records for v in r["residuals"]]
        return {
            "resid_median": (float(np.median(vals)) if vals else 0.0, "rel"),
            "resid_max": (max(vals) if vals else 0.0, "rel"),
        }

    def aggregate_ok(self, records_by_kind: dict[str, list[dict]]) -> bool:
        return all(
            np.median([v for r in recs for v in r["residuals"]]) <= self.MEDIAN_TOL
            for recs in records_by_kind.values() if recs
        )


# ---------------------------------------------------------------------------
# cone-mc


def _norm2(Z: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(Z) ** 2, axis=1)


class ConeMc:
    """`measure.surface_integral` of |z|^2 on line2, cone6 and quadric-cone
    and `measure.l2_norm_form` of dbar chi on quadric-cone; each op builds
    its own `ConeAtlas`.  The curve ops cost a tenth of the quadric-cone ops
    and are the most sensitive to the speed of the machine, so a cycle holds
    three quadric-cone ops to their two: the median and the tail both lie
    inside the quadric-cone ops, not on the edge between the two groups."""

    name = "cone-mc"
    CYCLE = (("line2", "norm2"), ("cone6", "norm2"), ("quadric-cone", "norm2"),
             ("quadric-cone", "bump-l2"), ("quadric-cone", "norm2"))
    tail_pct = 70.0
    trace_cycles = 2
    pool_cycles = 40
    # per op; the 24-anchor atlas and its assignment cost most of an op.
    # Fewer samples would shrink the coverage sample below the size that
    # tells a missing cone6 line (1/6 of the link) from noise.
    N_SAMPLES = 2500
    # size of the estimator's independent coverage sample (measure._cone_mc)
    PILOT_N = min(256, max(32, N_SAMPLES // 10))
    K_SE = 5.0  # stated tolerance, in standard errors
    # an atlas that leaves most of the link uncovered is broken, whatever
    # its estimate says
    MAX_GAP_FRAC = 0.5

    def build(self, seed: int, cycles: int) -> list[Op]:
        rng = np.random.default_rng([seed, 3])
        varieties = {name: fixtures.make_variety(name)
                     for name in dict.fromkeys(name for name, _ in self.CYCLE)}
        quadric = varieties["quadric-cone"]
        form = _bump_form(quadric, (1.0, 0.0))
        l2_exact = references.cone_bump_l2_norm(
            math.prod(quadric.degrees), quadric.pure_dim, R0, RADIUS)
        ops = []
        for _ in range(cycles):
            for name, integral in self.CYCLE:
                variety = varieties[name]
                degree = math.prod(variety.degrees)
                rng_seed = _seed(rng)
                if integral == "norm2":
                    rho = float(rng.uniform(0.5, 1.0))
                    exact = references.cone_norm2_integral(degree, variety.pure_dim, rho)
                    ops.append(Op(f"{name}/norm2", self._surface(variety, rho, rng_seed),
                                  self._check(exact, root=False)))
                else:
                    ops.append(Op(f"{name}/bump-l2", self._l2(variety, form, rng_seed),
                                  self._check(l2_exact, root=True)))
        return ops

    def _surface(self, variety, rho, rng_seed):
        return lambda: measure.surface_integral(variety, _norm2, rho, self.N_SAMPLES, rng_seed)

    def _l2(self, variety, form, rng_seed):
        return lambda: measure.l2_norm_form(variety, form, RADIUS, self.N_SAMPLES, rng_seed)

    def _check(self, exact: float, root: bool):
        """`root`: the estimate is the square root of the integral, as from
        `l2_norm_form`; the check then compares the integrals."""

        def check(est) -> dict:
            value, se, ref = est.value, est.std_error, exact
            if root:
                value, se, ref = value ** 2, 2.0 * value * se, exact ** 2
            # The estimator integrates over the link points its atlas covers
            # and reports the uncovered ones of an independent link sample as
            # coverage_gaps.  Both integrands depend on |z| only, so the
            # integral over the covered part is ref * (1 - gap), with gap
            # known to the sample's binomial error.
            gap = est.coverage_gaps / self.PILOT_N
            sd = math.hypot(se, ref * math.sqrt(gap * (1.0 - gap) / self.PILOT_N))
            diff = value - ref * (1.0 - gap)
            z = diff / sd if sd > 0 else math.inf
            return {
                "ok": abs(z) <= self.K_SE and gap <= self.MAX_GAP_FRAC,
                "z": z, "rel_se": est.std_error / est.value if est.value else math.inf,
                "gaps": est.coverage_gaps, "newton_failures": est.newton_failures,
            }

        return check

    def summarize(self, records: list[dict]) -> dict:
        return {
            "mc_rel_se": (float(np.median([r["rel_se"] for r in records])) if records else 0.0,
                          "ratio"),
            "mc_z_max": (max((abs(r["z"]) for r in records), default=0.0), "se"),
            "gap_ops": (sum(r["gaps"] > 0 for r in records), "count"),
        }

    def aggregate_ok(self, records_by_kind: dict[str, list[dict]]) -> bool:
        return True


WORKLOADS = {w.name: w for w in (SolveGrid(), FdStencil(), ConeMc())}
