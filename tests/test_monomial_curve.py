"""The monomial curve (t^3, t^4, t^5) in C^3: three equations in three
coordinates cut out a curve (d = 1), so every projection Jacobian is square
and rank-deficient on the curve, and the Newton step there is the ridge
least-squares step of `newton_steps`."""

import math

import numpy as np
import pytest

from dbarcone.measure import sample_link
from dbarcone.variety import (
    SparsePolynomial,
    Variety,
    Weights,
    act,
    contains_batch,
    newton_steps,
    orbit_scale,
    project_batch,
)


def monomial_curve() -> Variety:
    polys = [
        SparsePolynomial.from_terms(3, [((0, 2, 0), 1.0), ((1, 0, 1), -1.0)]),
        SparsePolynomial.from_terms(3, [((3, 0, 0), 1.0), ((0, 1, 1), -1.0)]),
        SparsePolynomial.from_terms(3, [((0, 0, 2), 1.0), ((2, 1, 0), -1.0)]),
    ]
    return Variety.build(Weights((3, 4, 5)), polys, pure_dim=1)


@pytest.fixture(scope="module")
def curve():
    return monomial_curve()


def test_singular_square_block_takes_the_ridge_step():
    J = np.array([[[1.0, 1.0], [1.0, 1.0]]], dtype=complex)
    R = np.array([[[1.0], [1.0]]], dtype=complex)
    step, singular = newton_steps(J, R)
    assert not singular[0] and np.isfinite(step).all()
    assert np.linalg.norm(J[0] @ step[0] + R[0]) < 1e-10


def test_polish_converges_on_every_rescaled_seed(curve):
    # the stages of `sample_link`: project Gaussian seeds, rescale them
    # along the scaling orbit to |z| = sqrt(3), then polish at 1e-13
    polished = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        seeds = (rng.standard_normal((128, 3)) + 1j * rng.standard_normal((128, 3))) / math.sqrt(2)
        Z, ok = project_batch(curve, seeds)
        assert ok.all() and np.linalg.norm(Z, axis=1).min() > 1e-8
        Z = act(orbit_scale(curve.weights, Z, math.sqrt(3)), curve.weights, Z)
        _, ok = project_batch(curve, Z, tol=1e-13)
        polished += int(ok.sum())
    assert polished == 640


@pytest.mark.parametrize("seed", range(5))
def test_sample_link_lands_on_the_curve(curve, seed):
    sample = sample_link(curve, 64, seed)
    pts = sample.points
    assert pts.shape == (64, 3) and sample.seeds_used <= 2
    assert contains_batch(curve, pts, tol=1e-9).all()
    assert np.allclose(np.linalg.norm(pts, axis=1), math.sqrt(3), rtol=1e-12, atol=0)
