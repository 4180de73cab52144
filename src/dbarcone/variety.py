"""Weighted homogeneous algebraic subvarieties of C^n.

A variety is the common zero locus of finitely many polynomials that are
weighted homogeneous for one shared weight vector beta: Q(s^beta * z) =
s^d Q(z), where s^beta * z scales coordinate k by s^(beta_k).  This module
provides the scaling action, membership and regularity tests, and a
Gauss-Newton projection used by the sampling machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConvergedToSingular,
    NoConvergence,
    NonHomogeneous,
    NotOnVariety,
    ZeroPolynomial,
)

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

    def eval(self, pts) -> np.ndarray | complex:
        """Evaluate at one point (n,) or a batch (N, n); complex output."""
        pts = np.asarray(pts, dtype=np.complex128)
        single = pts.ndim == 1
        P = pts.reshape(-1, self.n)
        if self.is_zero:
            out = np.zeros(P.shape[0], dtype=np.complex128)
        else:
            E = self.exponent_matrix()  # (T, n)
            C = np.asarray([c for _, c in self.terms], dtype=np.complex128)  # (T,)
            mono = np.prod(P[:, None, :] ** E[None, :, :], axis=2)  # (N, T)
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

    def max_exponent(self) -> int:
        return max((max(e) for e, _ in self.terms), default=0)


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
        """|Q_k| at one point -> (K,) or batch (N, n) -> (N, K)."""
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


def contains(variety: Variety, z, tol: float = DEFAULT_CONTAINS_TOL) -> bool:
    if tol <= 0:
        raise ValueError("tol must be positive")
    P = np.asarray(z, dtype=np.complex128).reshape(1, -1)
    res = np.abs(variety.residuals(P))
    return bool(np.all(res <= tol * _membership_scales(variety, P)))


def contains_batch(variety: Variety, pts, tol: float = DEFAULT_CONTAINS_TOL) -> np.ndarray:
    P = np.asarray(pts, dtype=np.complex128)
    res = np.abs(variety.residuals(P))
    return np.all(res <= tol * _membership_scales(variety, P), axis=1)


def is_regular(
    variety: Variety,
    z,
    tol: float = DEFAULT_RANK_TOL,
    contains_tol: float = DEFAULT_CONTAINS_TOL,
) -> bool:
    """Numerical-rank test: Jacobian rank equals n - pure_dim at z.

    Singular values below tol * sigma_max count as zero.
    """
    if variety.pure_dim is None:
        raise ValueError("is_regular requires pure_dim")
    if not contains(variety, z, contains_tol):
        raise NotOnVariety(f"point {z} is not on the variety at tol {contains_tol}")
    J = variety.jacobian(np.asarray(z, dtype=np.complex128))
    sv = np.linalg.svd(J, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(sv > tol * sv[0]))
    return rank == variety.ambient_dim - variety.pure_dim


def project_batch(
    variety: Variety,
    seeds: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton projection of a batch of points onto the zero locus.

    Returns (points, converged_mask).  Minimal-norm step via the right
    pseudo-inverse J^H (J J^H)^{-1} Q with a halving line search on |Q|^2.
    """
    Z = np.array(seeds, dtype=np.complex128)
    N = Z.shape[0]
    ridge = 1e-14
    done = np.zeros(N, dtype=bool)
    for _ in range(max_iter):
        res = variety.residuals(Z)  # (N, K)
        scale = _membership_scales(variety, Z)
        done = np.all(np.abs(res) <= tol * scale, axis=1)
        active = ~done
        if not active.any():
            break
        Za = Z[active]
        Ra = res[active]
        J = variety.jacobian(Za)  # (M, K, n)
        JJh = J @ J.conj().transpose(0, 2, 1)  # (M, K, K)
        K = JJh.shape[1]
        JJh = JJh + ridge * np.eye(K)[None, :, :] * (
            1.0 + np.abs(np.trace(JJh, axis1=1, axis2=2))[:, None, None]
        )
        u = np.linalg.solve(JJh, Ra[:, :, None])  # (M, K, 1)
        step = -(J.conj().transpose(0, 2, 1) @ u)[:, :, 0]  # (M, n)
        # damped update: halve until |Q|^2 does not increase
        alpha = np.ones(Za.shape[0])
        base = np.sum(np.abs(Ra) ** 2, axis=1)
        new = Za + step
        for _ in range(20):
            cost = np.sum(np.abs(variety.residuals(new)) ** 2, axis=1)
            bad = cost > base * (1.0 + 1e-12)
            if not bad.any():
                break
            alpha[bad] *= 0.5
            new[bad] = Za[bad] + alpha[bad, None] * step[bad]
        Z[active] = new
    res = variety.residuals(Z)
    scale = _membership_scales(variety, Z)
    done = np.all(np.abs(res) <= tol * scale, axis=1)
    return Z, done


def project_to_variety(
    variety: Variety,
    z0,
    tol: float = 1e-12,
    max_iter: int = 60,
    check_regular: bool = True,
) -> np.ndarray:
    """Project one point onto the variety by damped Gauss-Newton.

    A point that already satisfies the membership test is returned
    unchanged (the origin in particular).  When pure_dim is known and
    check_regular is set, landing on a singular point that was not the
    input raises ConvergedToSingular.
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    if contains(variety, z0, max(tol, DEFAULT_CONTAINS_TOL)):
        return z0.copy()
    Z, ok = project_batch(variety, z0.reshape(1, -1), tol=tol, max_iter=max_iter)
    if not ok[0]:
        raise NoConvergence(
            f"Gauss-Newton projection did not reach tol {tol} in {max_iter} iterations"
        )
    z = Z[0]
    if check_regular and variety.pure_dim is not None:
        if not is_regular(variety, z, contains_tol=max(tol, DEFAULT_CONTAINS_TOL)):
            raise ConvergedToSingular(f"projection landed on a singular point {z}")
    return z
