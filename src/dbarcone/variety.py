"""Weighted homogeneous algebraic subvarieties of C^n.

A variety is the common zero locus of finitely many polynomials that are
weighted homogeneous for one shared weight vector beta: Q(s^beta * z) =
s^d Q(z), where s^beta * z scales coordinate k by s^(beta_k).  This module
provides the scaling action, batched membership and regularity tests, the
one damped Newton (the Gauss-Newton projection used by the sampling
machinery and the charts' slice solves), and the one bisection for the
orbit scale t with |t^beta z| = target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    def _plan(self) -> tuple[tuple, np.ndarray]:
        """Per term, its (coordinate, exponent) factors with a nonzero
        exponent; and the coefficient vector (T,)."""
        factors = tuple(
            tuple((j, np.int64(e)) for j, e in enumerate(exps) if e) for exps, _ in self.terms
        )
        return factors, np.asarray([c for _, c in self.terms], dtype=np.complex128)

    def eval(self, pts) -> np.ndarray | complex:
        """Evaluate at one point (n,) or a batch (N, n); complex output.

        Term by term: each monomial multiplies only its factors with a
        nonzero exponent, then `mono @ C` sums the terms.  On a C-contiguous
        batch the value equals `np.prod(P[:, None, :] ** E[None], axis=2) @ C`
        bit for bit: z ** 1 and a factor z ** 0 = 1 are exact, an np.int64
        power takes the same loop as the broadcast power, and two or more
        factors are multiplied by `np.prod` along a contiguous axis, the same
        reduction (a binary `x * y` may differ in the last bit).  The value
        does not depend on the batch's memory layout.
        """
        pts = np.asarray(pts, dtype=np.complex128)
        single = pts.ndim == 1
        P = pts.reshape(-1, self.n)
        factors, C = self._plan
        mono = np.empty((P.shape[0], len(factors)), dtype=np.complex128)  # (N, T)
        for t, term in enumerate(factors):
            cols = [P[:, j] if e == 1 else P[:, j] ** e for j, e in term]
            if not cols:
                mono[:, t] = 1.0
            elif len(cols) == 1:
                mono[:, t] = cols[0]
            else:
                mono[:, t] = np.prod(np.stack(cols, axis=1), axis=1)
        out = mono @ C
        return out[0] if single else out

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


@lru_cache(maxsize=256)
def gradient(poly: SparsePolynomial) -> tuple[SparsePolynomial, ...]:
    return tuple(poly.partial(j) for j in range(poly.n))


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

    def residuals(self, pts) -> np.ndarray:
        """Q_k (complex) at one point -> (K,) or batch (N, n) -> (N, K)."""
        pts = np.asarray(pts, dtype=np.complex128)
        single = pts.ndim == 1
        P = pts.reshape(-1, self.ambient_dim)
        vals = np.stack([q.eval(P) for q in self.polynomials], axis=1)
        return vals[0] if single else vals

    def jacobian(self, pts) -> np.ndarray:
        """dQ_k/dz_j at one point -> (K, n) or batch (N, n) -> (N, K, n)."""
        pts = np.asarray(pts, dtype=np.complex128)
        single = pts.ndim == 1
        P = pts.reshape(-1, self.ambient_dim)
        rows = []
        for q in self.polynomials:
            grads = gradient(q)
            rows.append(np.stack([g.eval(P) for g in grads], axis=1))  # (N, n)
        J = np.stack(rows, axis=1)  # (N, K, n)
        return J[0] if single else J


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


def orbit_scale(weights: Weights, pts, target: float) -> np.ndarray:
    """Real t > 0 per nonzero row z of a batch (N, n) with |t^beta z| =
    target, as the upper end of a bisection bracket (so |t^beta z| >=
    target).  The norm grows with t, so each row's bracket [0, hi] doubles
    hi until it holds the target, then bisects; the loop stops once no
    row's bracket moves, since later steps could not move it either."""
    b = 2.0 * weights.as_array().astype(np.float64)
    amp = np.abs(np.asarray(pts, dtype=np.complex128)) ** 2
    goal = target ** 2

    def nrm2(t: np.ndarray) -> np.ndarray:
        return np.sum(t[:, None] ** b * amp, axis=1)

    hi = np.ones(amp.shape[0])
    while (short := nrm2(hi) < goal).any():
        hi[short] *= 2.0
        if hi.max() > 1e18:
            raise OverflowError("orbit scale search diverged")
    lo = np.zeros_like(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = nrm2(mid) >= goal
        new_lo, new_hi = np.where(up, lo, mid), np.where(up, mid, hi)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return hi


def newton_steps(J: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps -J^+ R per row for J: (M, K, r) and R: (M, K, q).

    Square blocks are solved exactly; a row whose block is exactly
    singular gets no step and is flagged, so it fails alone instead of
    stopping the rest of the batch.  Other blocks take a ridge step
    through the smaller Gram matrix, with lam = 1e-14 (1 + |J|_F^2): wide
    ones (K < r) the minimal-norm J^H (J J^H + lam I)^{-1} R, tall ones
    (K > r) the least-squares (J^H J + lam I)^{-1} J^H R.
    Returns (step, singular).
    """
    M, K, r = J.shape
    singular = np.zeros(M, dtype=bool)
    if K == r:
        try:
            step = -np.linalg.solve(J, R)
        except np.linalg.LinAlgError:
            step = np.zeros((M, r, R.shape[2]), dtype=np.complex128)
            for i in range(M):
                try:
                    step[i] = -np.linalg.solve(J[i : i + 1], R[i : i + 1])[0]
                except np.linalg.LinAlgError:
                    singular[i] = True
    else:
        Jh = J.conj().transpose(0, 2, 1)
        G = J @ Jh if K < r else Jh @ J
        G = G + 1e-14 * np.eye(G.shape[1])[None, :, :] * (
            1.0 + np.abs(np.trace(G, axis1=1, axis2=2))[:, None, None]
        )
        step = -(Jh @ np.linalg.solve(G, R)) if K < r else -np.linalg.solve(G, Jh @ R)
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
    for _ in range(max_iter):
        ok = np.all(np.abs(res) <= tol * scale, axis=1)
        rows = np.flatnonzero(~ok & ~stuck)
        if rows.size == 0:
            break
        Ya = Y[rows]
        ca = cols[rows]
        J = np.take_along_axis(variety.jacobian(Ya), ca[:, None, :], axis=2)  # (M, K, r)
        R = res[rows]
        step, singular = newton_steps(J, R[:, :, None])
        step = step[:, :, 0]
        stuck[rows[singular]] = True
        step[~np.isfinite(step).all(axis=1)] = 0.0
        cur = np.take_along_axis(Ya, ca, axis=1)
        base = np.sum(np.abs(R) ** 2, axis=1)
        alpha = np.ones(step.shape[0])
        trial = cur + step
        # halve each row's step until |Q|^2 does not grow; only the rows
        # still being halved are evaluated again
        res_t = np.empty_like(R)
        todo = np.arange(step.shape[0])
        for _ in range(halvings):
            Yt = Ya[todo]
            np.put_along_axis(Yt, ca[todo], trial[todo], axis=1)
            rt = variety.residuals(Yt)
            res_t[todo] = rt
            worse = np.sum(np.abs(rt) ** 2, axis=1) > base[todo] * (1 + 1e-12)
            todo = todo[worse]
            if todo.size == 0:
                break
            alpha[todo] *= 0.5
            trial[todo] = cur[todo] + alpha[todo, None] * step[todo]
        np.put_along_axis(Ya, ca, trial, axis=1)
        if todo.size:  # halved once more after their last evaluation
            res_t[todo] = variety.residuals(Ya[todo])
        Y[rows] = Ya
        res[rows] = res_t
        scale[rows] = _membership_scales(variety, Ya)
    ok = np.all(np.abs(res) <= accept_tol * scale, axis=1)
    return Y, ok


def project_batch(
    variety: Variety,
    seeds: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton projection of a batch of points onto the zero locus.

    Returns (points, converged_mask): `damped_newton` on every coordinate,
    with up to 20 halvings of each step.  With fewer equations than
    coordinates `newton_steps` takes the minimal-norm ridge step.
    """
    Z = np.asarray(seeds, dtype=np.complex128)
    N, n = Z.shape
    cols = np.broadcast_to(np.arange(n), (N, n))
    return damped_newton(variety, Z, cols, tol, tol, max_iter, 20)
