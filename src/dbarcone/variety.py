"""Weighted homogeneous algebraic subvarieties of C^n.

A variety is the common zero locus of finitely many polynomials that are
weighted homogeneous for one shared weight vector beta: Q(s^beta * z) =
s^d Q(z), where s^beta * z scales coordinate k by s^(beta_k).  This module
provides the one polynomial evaluator (`MonomialPlan`), the scaling
action, batched membership and regularity tests, the one damped Newton
(the Gauss-Newton projection used by the sampling machinery and the
charts' slice solves), the one bisection for the orbit scale t with
|t^beta z| = target, and `int_power`, complex integer powers with the
bits of numpy's power loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import NonHomogeneous, NotOnVariety, ZeroPolynomial

DEFAULT_CONTAINS_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-8


@dataclass(frozen=True)
class Weights:
    """Positive integer weight vector beta, one entry per coordinate."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 2:
            raise ValueError("need ambient dimension >= 2")
        if any(int(b) != b or b < 1 for b in self.entries):
            raise ValueError("weights must be integers >= 1")
        object.__setattr__(self, "entries", tuple(int(b) for b in self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_unit(self) -> bool:
        return all(b == 1 for b in self.entries)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=np.int64)


@dataclass(frozen=True)
class SparsePolynomial:
    """Sparse polynomial in n complex variables.

    Terms map exponent multi-indices to nonzero complex coefficients; the
    canonical form (merged duplicates, no zero coefficients, sorted keys)
    is enforced by `from_terms`.
    """

    n: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    @staticmethod
    def from_terms(n: int, terms) -> "SparsePolynomial":
        acc: dict[tuple[int, ...], complex] = {}
        for exps, coeff in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != n:
                raise ValueError(f"exponent tuple {exps} has length != {n}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            acc[exps] = acc.get(exps, 0j) + complex(coeff)
        kept = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        return SparsePolynomial(n=n, terms=kept)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def exponent_matrix(self) -> np.ndarray:
        if self.is_zero:
            return np.zeros((0, self.n), dtype=np.int64)
        return np.asarray([e for e, _ in self.terms], dtype=np.int64)

    @cached_property
    def _plan(self) -> "MonomialPlan":
        return MonomialPlan(self.n, (self,))

    def eval(self, pts) -> np.ndarray | complex:
        """Evaluate at one point (n,) or a batch (N, n); complex output.

        One `MonomialPlan` of the terms: on a C-contiguous batch the value
        equals `np.prod(P[:, None, :] ** E[None], axis=2) @ C` bit for bit,
        and it does not depend on the batch's memory layout.
        """
        pts = np.asarray(pts, dtype=np.complex128)
        out = self._plan.eval(pts.reshape(-1, self.n))[:, 0]
        return out[0] if pts.ndim == 1 else out

    def partial(self, j: int) -> "SparsePolynomial":
        terms = []
        for exps, coeff in self.terms:
            if exps[j] == 0:
                continue
            new = list(exps)
            new[j] -= 1
            terms.append((tuple(new), coeff * exps[j]))
        return SparsePolynomial.from_terms(self.n, terms)

    def scale_exponents(self, beta: Weights) -> "SparsePolynomial":
        """Substitute z_k -> z_k^(beta_k): multiply exponents componentwise."""
        b = beta.entries
        return SparsePolynomial.from_terms(
            self.n, [(tuple(e * bk for e, bk in zip(exps, b)), c) for exps, c in self.terms]
        )


class MonomialPlan:
    """The distinct monomials of a list of L polynomials in n variables,
    sorted by exponent tuple, and their coefficient matrix (U, L): `eval`
    gives all L polynomials at a batch as one monomial table and one
    matmul.

    A monomial is the product of its factors with a nonzero exponent, in
    coordinate order.  The table fills its columns by kind, one numpy call
    per kind: ones, single coordinates (one gather), single powers, and
    products of 2, 3, ... factors.  z ** 1 and a factor z ** 0 = 1 are
    exact, powers take an np.int64 exponent array (the loop of the
    broadcast power; a Python int 2 would take the `square` path), and
    products are `np.multiply.reduce` along the contiguous last axis of a
    `take` gather (a fancy-indexed gather is not C-ordered, and a binary
    `x * y` may fuse a multiply-add).  Each polynomial's terms keep their
    sorted order among the rows of the table, so a column's sum adds its
    terms in the order of a one-polynomial plan; the extra zero
    coefficients add nothing.  On the fixtures and the twisted cubic cone
    `Variety.residuals` and `jacobian` equal one plan per polynomial bit
    for bit (tests/test_variety.py).
    """

    def __init__(self, n: int, polys: Sequence[SparsePolynomial]):
        monos = sorted({e for p in polys for e, _ in p.terms})
        row = {e: u for u, e in enumerate(monos)}
        self.coeffs = np.zeros((len(monos), len(polys)), dtype=np.complex128)
        for k, p in enumerate(polys):
            for e, c in p.terms:
                self.coeffs[row[e], k] = c
        factors = [[(j, e) for j, e in enumerate(m) if e] for m in monos]

        def columns(kind) -> np.ndarray:
            return np.array([u for u, f in enumerate(factors) if kind(f)], dtype=np.intp)

        self.ones = columns(lambda f: not f)
        self.linear = columns(lambda f: len(f) == 1 and f[0][1] == 1)
        self.power = columns(lambda f: len(f) == 1 and f[0][1] > 1)
        self.linear_src = np.array([factors[u][0][0] for u in self.linear], dtype=np.intp)
        self.power_src = np.array([factors[u][0][0] for u in self.power], dtype=np.intp)
        self.power_exp = np.array([factors[u][0][1] for u in self.power], dtype=np.int64)
        # products: per factor count, the columns (G,) and factor sources
        # (G, f) into the coordinates followed by the powers they use
        products = [u for u, f in enumerate(factors) if len(f) > 1]
        powers = sorted({(j, e) for u in products for j, e in factors[u] if e > 1})
        self.factor_pow_src = np.array([j for j, _ in powers], dtype=np.intp)
        self.factor_pow_exp = np.array([e for _, e in powers], dtype=np.int64)
        source = {p: n + i for i, p in enumerate(powers)}
        by_count: dict[int, list] = {}
        for u in products:
            by_count.setdefault(len(factors[u]), []).append(u)
        self.products = tuple(
            (np.array(us, dtype=np.intp),
             np.array([[j if e == 1 else source[j, e] for j, e in factors[u]] for u in us],
                      dtype=np.intp))
            for _, us in sorted(by_count.items())
        )

    def table(self, P: np.ndarray) -> np.ndarray:
        """Monomial values (N, U) at a batch P (N, n)."""
        U = self.coeffs.shape[0]
        if self.linear.size == U:  # every monomial is a coordinate
            return P.take(self.linear_src, axis=1)
        mono = np.empty((P.shape[0], U), dtype=np.complex128)
        if self.ones.size:
            mono[:, self.ones] = 1.0
        if self.linear.size:
            mono[:, self.linear] = P.take(self.linear_src, axis=1)
        if self.power.size:
            mono[:, self.power] = P.take(self.power_src, axis=1) ** self.power_exp
        if self.products:
            S = P
            if self.factor_pow_src.size:
                S = np.concatenate(
                    [P, P.take(self.factor_pow_src, axis=1) ** self.factor_pow_exp], axis=1
                )
            for cols, src in self.products:
                mono[:, cols] = np.multiply.reduce(S.take(src, axis=1), axis=2)
        return mono

    def eval(self, P: np.ndarray) -> np.ndarray:
        """The L polynomials at a batch P (N, n): (N, L)."""
        return self.table(P) @ self.coeffs


def weighted_degree(poly: SparsePolynomial, weights: Weights) -> int:
    """Common weighted degree of all monomials, or raise.

    Raises ZeroPolynomial for the zero polynomial and NonHomogeneous when
    two monomials disagree.
    """
    if poly.is_zero:
        raise ZeroPolynomial("zero polynomial has no weighted degree")
    if poly.n != weights.n:
        raise ValueError("dimension mismatch between polynomial and weights")
    b = weights.as_array()
    degs = poly.exponent_matrix() @ b
    d0 = int(degs[0])
    if not np.all(degs == d0):
        raise NonHomogeneous(
            f"monomial weighted degrees differ: {sorted(set(int(d) for d in degs))}"
        )
    return d0


def act(s: complex, weights: Weights, z) -> np.ndarray:
    """Weighted scaling action: (s^beta_1 z_1, ..., s^beta_n z_n).

    `s` may be a scalar or an (M,) array; `z` a point (n,) or batch (N, n)
    with matching leading dimension when both are batched.
    """
    b = weights.as_array()
    z = np.asarray(z, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    if s.ndim == 0:
        return (s ** b) * z
    return (s[:, None] ** b[None, :]) * z


def int_power(w: np.ndarray, n: int) -> np.ndarray:
    """w ** n for complex w and an integer n >= 0, with the bits of numpy's
    integer-power loop (`nc_pow`) whether n is a Python or a numpy int.

    `nc_pow` returns 1 + 0j for n = 0 and +0 + 0j for a zero base, so for
    n = 1 it returns the base: a copy with its zeros set to +0 + 0j gives
    those bits without the loop's scalar call per element.  Larger n take
    the loop itself through a numpy-int exponent.  For a Python-int 2
    numpy squares instead, which can differ in the last bit; written-out
    real products for n = 2 and 3 measured slower than the loop on
    batches of 128 to 8192 points.  The result is always a fresh array:
    numpy computes `named * temporary` of a large batch into the temporary
    with the operands swapped, so a caller's `acc * int_power(w, m)` must
    hand numpy a temporary exactly where `acc * w ** m` did.
    """
    w = np.asarray(w, dtype=np.complex128)
    if n == 0:
        return np.ones(w.shape, dtype=np.complex128)
    if n >= 2:
        return w ** np.int64(n)
    out = w.copy()
    if not out.all():
        out[out == 0] = 0
    return out


@dataclass(frozen=True)
class Variety:
    """Zero locus of weighted homogeneous polynomials sharing one weight vector."""

    ambient_dim: int
    weights: Weights
    polynomials: tuple[SparsePolynomial, ...]
    degrees: tuple[int, ...]
    pure_dim: Optional[int] = None

    @staticmethod
    def build(
        weights: Weights,
        polynomials: Sequence[SparsePolynomial],
        pure_dim: Optional[int] = None,
    ) -> "Variety":
        n = weights.n
        polys = tuple(polynomials)
        if not polys:
            raise ValueError("need at least one defining polynomial")
        for p in polys:
            if p.n != n:
                raise ValueError("polynomial dimension does not match weights")
        degrees = tuple(weighted_degree(p, weights) for p in polys)
        if any(d < 1 for d in degrees):
            raise NonHomogeneous("weighted degrees must be >= 1")
        if pure_dim is not None and not (1 <= pure_dim < n):
            raise ValueError("pure_dim must satisfy 1 <= d < n")
        return Variety(n, weights, polys, degrees, pure_dim)

    @cached_property
    def _plans(self) -> tuple[MonomialPlan, MonomialPlan]:
        """One `MonomialPlan` of the Q_k, for residuals and the line
        search, and one of the dQ_k/dz_j (k major), for the Jacobian."""
        n = self.ambient_dim
        grads = [q.partial(j) for q in self.polynomials for j in range(n)]
        return MonomialPlan(n, self.polynomials), MonomialPlan(n, grads)

    def residuals(self, pts) -> np.ndarray:
        """Q_k (complex) at one point -> (K,) or batch (N, n) -> (N, K)."""
        pts = np.asarray(pts, dtype=np.complex128)
        vals = self._plans[0].eval(pts.reshape(-1, self.ambient_dim))
        return vals[0] if pts.ndim == 1 else vals

    def jacobian(self, pts) -> np.ndarray:
        """dQ_k/dz_j at one point -> (K, n) or batch (N, n) -> (N, K, n)."""
        pts = np.asarray(pts, dtype=np.complex128)
        n = self.ambient_dim
        J = self._plans[1].eval(pts.reshape(-1, n)).reshape(-1, len(self.polynomials), n)
        return J[0] if pts.ndim == 1 else J


def _membership_scales(variety: Variety, pts: np.ndarray) -> np.ndarray:
    """Per-polynomial magnitude normalization max(1, |z|^(d_k/min beta))."""
    norms = np.linalg.norm(pts, axis=-1)  # (N,)
    min_b = min(variety.weights.entries)
    degs = np.asarray(variety.degrees, dtype=np.float64)
    return np.maximum(1.0, norms[:, None] ** (degs[None, :] / min_b))


def contains_batch(variety: Variety, pts, tol: float = DEFAULT_CONTAINS_TOL) -> np.ndarray:
    """Membership mask of a batch (N, n): every |Q_k| within tol times its
    magnitude normalization."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    P = np.asarray(pts, dtype=np.complex128)
    res = np.abs(variety.residuals(P))
    return np.all(res <= tol * _membership_scales(variety, P), axis=1)


def contains(variety: Variety, z, tol: float = DEFAULT_CONTAINS_TOL) -> bool:
    return bool(contains_batch(variety, np.reshape(z, (1, -1)), tol)[0])


def regular_batch(variety: Variety, pts) -> np.ndarray:
    """Numerical-rank mask of a batch (N, n) of points on the variety: the
    Jacobian rank equals n - pure_dim.  Singular values below
    DEFAULT_RANK_TOL * sigma_max count as zero; membership is not tested."""
    if variety.pure_dim is None:
        raise ValueError("is_regular requires pure_dim")
    sv = np.linalg.svd(variety.jacobian(pts), compute_uv=False)  # (N, min(K, n))
    rank = np.sum(sv > DEFAULT_RANK_TOL * sv[:, :1], axis=1)
    return rank == variety.ambient_dim - variety.pure_dim


def is_regular(variety: Variety, z) -> bool:
    """`regular_batch` at one point; raises NotOnVariety when z fails the
    membership test at DEFAULT_CONTAINS_TOL."""
    P = np.reshape(z, (1, -1))
    if not contains_batch(variety, P)[0]:
        raise NotOnVariety(f"point {z} is not on the variety at tol {DEFAULT_CONTAINS_TOL}")
    return bool(regular_batch(variety, P)[0])


def orbit_scale(weights: Weights, pts, target) -> np.ndarray:
    """Real t > 0 per nonzero row z of a batch (N, n) with |t^beta z| =
    target, as the upper end of a bisection bracket (so |t^beta z| >=
    target).  `target` is one radius or one per row.

    The squared norm sum_j a_j t^(b_j) grows with t, so a bisection that
    runs until its bracket ends are adjacent floats returns the smallest
    float t whose norm reaches the target, whatever bracket it starts
    from.  Each row's bracket is t0 (1 -+ 1e-13) about a Newton estimate
    t0: three Newton steps on s = log t for log sum_j a_j e^(b_j s) =
    log target^2, convex in s, from the upper bound min_j
    (target^2 / a_j)^(1 / b_j) over the nonzero coordinates.  A row whose
    bracket misses the target doubles hi until it holds it, or starts
    from lo = 0.  A row with no positive estimate (a zero row) brackets
    t0 = 1, and estimates are capped at 2^59, so the norm is never taken
    far beyond the largest t returned.  The bisection stops once no row's
    bracket moves, since later steps could not move it either; its 200
    steps reach adjacent floats from [0, hi] for t above about 2^-146.
    Raises OverflowError when a row's t exceeds 2^59, as when a search
    doubling hi from 1 passes 1e18.
    """
    b = 2.0 * weights.as_array().astype(np.float64)
    amp = np.abs(np.asarray(pts, dtype=np.complex128)) ** 2
    goal = np.broadcast_to(np.asarray(target, dtype=np.float64) ** 2, amp.shape[:1])

    def nrm2(t: np.ndarray) -> np.ndarray:
        return np.sum(t[:, None] ** b * amp, axis=1)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        la = np.log(amp) - np.log(goal)[:, None]
        s = np.min(np.where(amp > 0, -la / b, np.inf), axis=1)
        for _ in range(3):
            e = np.exp(la + b * s[:, None])
            tot = e.sum(axis=1)
            s = s - np.log(tot) * tot / (e @ b)
        t0 = np.exp(s)
    t0 = np.where(t0 > 0, np.minimum(t0, 2.0 ** 59), 1.0)
    lo, hi = t0 * (1.0 - 1e-13), t0 * (1.0 + 1e-13)
    lo[nrm2(lo) >= goal] = 0.0
    while (short := nrm2(hi) < goal).any():
        hi[short] *= 2.0
        if hi.max() > 2.0 ** 60:
            raise OverflowError("orbit scale search diverged")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = nrm2(mid) >= goal
        new_lo, new_hi = np.where(up, lo, mid), np.where(up, mid, hi)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    if hi.max() > 2.0 ** 59:
        raise OverflowError("orbit scale search diverged")
    return hi


def newton_steps(J: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps -J^+ R per row for J: (M, K, r) and R: (M, K, q).

    A 1 x 1 block (K = r = 1) is solved in closed form by one division; a
    row whose J is exactly zero gets no step and is flagged, so it fails
    alone instead of stopping the rest of the batch.  Every larger block
    takes a ridge step through the smaller Gram matrix G, with
    lam = 1e-14 (1 + |J|_F^2): wide ones (K < r) the minimal-norm
    J^H (J J^H + lam I)^{-1} R, the others (K >= r) the least-squares
    (J^H J + lam I)^{-1} J^H R, which stays finite on rank-deficient
    square blocks.  A 1 x 1 G is one division too; larger ones go through
    `np.linalg.solve`.  The divisions move last bits against LAPACK's
    solve; every slice step and tangent of a hypersurface is one, and
    there LAPACK's per-row cost dominated the division's.
    Returns (step, singular).
    """
    M, K, r = J.shape
    singular = np.zeros(M, dtype=bool)
    if K == r == 1:
        singular = J[:, 0, 0] == 0
        step = -R / np.where(singular[:, None, None], 1.0, J)
        step[singular] = 0.0
    else:
        Jh = J.conj().transpose(0, 2, 1)
        G = J @ Jh if K < r else Jh @ J
        G = G + 1e-14 * np.eye(G.shape[1])[None, :, :] * (
            1.0 + np.abs(np.trace(G, axis1=1, axis2=2))[:, None, None]
        )

        def solve(B: np.ndarray) -> np.ndarray:
            return B / G if G.shape[1] == 1 else np.linalg.solve(G, B)

        step = -(Jh @ solve(R)) if K < r else -solve(Jh @ R)
    return step, singular


def damped_newton(
    variety: Variety,
    Y0: np.ndarray,
    cols: np.ndarray,
    tol: float,
    accept_tol: float,
    max_iter: int,
    halvings: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the coordinates `cols` of a batch of points.

    Y0: (N, n) start points; cols: (N, r) per-row indices of the
    coordinates to solve, every other coordinate stays fixed.  A row
    iterates until it passes the membership test at `tol`, for at most
    max_iter steps; each step is halved up to `halvings` times until |Q|^2
    does not grow.  Each row's iterates, line search and convergence test
    depend on that row alone, so a row gives the same point in any batch.
    Returns (Y, ok) with ok the membership test at accept_tol.
    """
    Y = np.array(Y0, dtype=np.complex128)
    N = Y.shape[0]
    cols = np.asarray(cols, dtype=np.intp).reshape(N, -1)
    stuck = np.zeros(N, dtype=bool)
    # residuals are kept from the line search of the rows a step moved
    res = variety.residuals(Y)  # (N, K)
    scale = _membership_scales(variety, Y)
    # row and polynomial indices that gather and scatter each row's columns
    row_idx = np.arange(N)[:, None]
    poly_idx = np.arange(res.shape[1])[None, :, None]
    for _ in range(max_iter):
        ok = np.all(np.abs(res) <= tol * scale, axis=1)
        rows = np.flatnonzero(~ok & ~stuck)
        if rows.size == 0:
            break
        Ya = Y[rows]
        ca = cols[rows]
        ri = row_idx[: rows.size]
        J = variety.jacobian(Ya)[ri[:, :, None], poly_idx, ca[:, None, :]]  # (M, K, r)
        R = res[rows]
        step, singular = newton_steps(J, R[:, :, None])
        step = step[:, :, 0]
        stuck[rows[singular]] = True
        step[~np.isfinite(step).all(axis=1)] = 0.0
        cur = Ya[ri, ca]
        base = np.sum(np.abs(R) ** 2, axis=1)
        alpha = np.ones(step.shape[0])
        trial = cur + step
        # halve each row's step until |Q|^2 does not grow; only the rows
        # still being halved are evaluated again
        res_t = np.empty_like(R)
        todo = np.arange(step.shape[0])
        for _ in range(halvings):
            Yt = Ya[todo]
            Yt[ri[: todo.size], ca[todo]] = trial[todo]
            rt = variety.residuals(Yt)
            res_t[todo] = rt
            worse = np.sum(np.abs(rt) ** 2, axis=1) > base[todo] * (1 + 1e-12)
            todo = todo[worse]
            if todo.size == 0:
                break
            alpha[todo] *= 0.5
            trial[todo] = cur[todo] + alpha[todo, None] * step[todo]
        Ya[ri, ca] = trial
        if todo.size:  # halved once more after their last evaluation
            res_t[todo] = variety.residuals(Ya[todo])
        Y[rows] = Ya
        res[rows] = res_t
        scale[rows] = _membership_scales(variety, Ya)
    ok = np.all(np.abs(res) <= accept_tol * scale, axis=1)
    return Y, ok


def project_batch(
    variety: Variety, seeds: np.ndarray, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton projection of a batch of points onto the zero locus.

    Returns (points, converged_mask): `damped_newton` on every coordinate,
    for at most 60 steps with up to 20 halvings each.  Unless the block is
    one equation on one coordinate, `newton_steps` takes the ridge step:
    minimal-norm with fewer equations than coordinates, least-squares
    otherwise, so a square Jacobian that is singular on the variety (as
    many equations as coordinates) still gives a finite step.
    """
    Z = np.asarray(seeds, dtype=np.complex128)
    N, n = Z.shape
    cols = np.broadcast_to(np.arange(n), (N, n))
    return damped_newton(variety, Z, cols, tol, tol, 60, 20)
