import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbarcone import charts, variety
from dbarcone.errors import NonHomogeneous, NotOnVariety, ZeroPolynomial
from dbarcone.fixtures import VARIETY_FIXTURES, cone6, cusp, line2, quadric_cone
from dbarcone.measure import surface_integral
from dbarcone.solver import theta_cone
from dbarcone.variety import (
    SparsePolynomial,
    Variety,
    Weights,
    act,
    contains,
    contains_batch,
    damped_newton,
    int_power,
    is_regular,
    newton_steps,
    orbit_scale,
    project_batch,
    regular_batch,
    weighted_degree,
)

from oracles import (
    jacobian_by_polynomials,
    newton_steps_by_lapack,
    orbit_scale_by_rows,
    poly_eval_broadcast,
    project_whole_batch,
    regular_by_points,
    residuals_by_polynomials,
)
from test_twisted_cubic import twisted_cubic


def test_weighted_degree_examples():
    # z1^2 - z2^3 with weights (3, 2): both monomials weigh 6
    q = SparsePolynomial.from_terms(2, [((2, 0), 1.0), ((0, 3), -1.0)])
    assert weighted_degree(q, Weights((3, 2))) == 6
    # z1 z2 - z3^2, plain degrees
    q = SparsePolynomial.from_terms(3, [((1, 1, 0), 1.0), ((0, 0, 2), -1.0)])
    assert weighted_degree(q, Weights((1, 1, 1))) == 2


def test_weighted_degree_rejects_inhomogeneous():
    q = SparsePolynomial.from_terms(2, [((1, 0), 1.0), ((0, 2), 1.0)])
    with pytest.raises(NonHomogeneous):
        weighted_degree(q, Weights((1, 1)))


def test_weighted_degree_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        weighted_degree(SparsePolynomial.from_terms(2, []), Weights((1, 1)))


def test_act_examples():
    w = Weights((3, 2))
    assert np.allclose(act(1.0, w, [2.0, 3.0]), [2.0, 3.0])
    assert np.allclose(act(0.0, w, [2.0, 3.0]), [0.0, 0.0])
    assert np.allclose(act(2.0, w, [1.0, 1.0]), [8.0, 4.0])


def test_contains_examples():
    V = quadric_cone()
    assert contains(V, [0, 0, 0])
    assert contains(V, [1, 1, 1])
    assert not contains(V, [1, 1, 0], tol=1e-9)


def test_is_regular_examples():
    V = quadric_cone()
    assert is_regular(V, [1, 1, 1])
    assert not is_regular(V, [0, 0, 0])
    L = line2()
    assert is_regular(L, [1, 0])
    with pytest.raises(NotOnVariety):
        is_regular(V, [1, 1, 0.5])


def test_is_regular_rank_matches_svd():
    # direct SVD cross-check at a smooth point of the quadric cone
    V = quadric_cone()
    J = V.jacobian(np.array([1.0, 1.0, 1.0], dtype=complex))
    sv = np.linalg.svd(J, compute_uv=False)
    assert np.sum(sv > 1e-8 * sv[0]) == 1 == V.ambient_dim - V.pure_dim


def test_projection_fixed_point_and_origin():
    # points already on the variety, the singular origin among them, are
    # returned unchanged
    V = quadric_cone()
    Z = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex)
    P, ok = project_batch(V, Z)
    assert ok.all()
    assert np.array_equal(P, Z)


def test_projection_near_point():
    V = quadric_cone()
    eps = 1e-3
    z0 = np.array([1.0, 1.0, 1.0 + eps], dtype=complex)
    P, ok = project_batch(V, z0[None, :])
    assert ok[0]
    assert np.abs(V.residuals(P[0])).max() <= 1e-11
    assert np.linalg.norm(P[0] - z0) <= 5 * eps


def test_projection_away_from_singularity_flags():
    # a seed next to the singular origin stays there: it already passes the
    # membership test, so no Newton step moves it
    V = quadric_cone()
    z0 = np.array([1e-14, 1e-14, 0], dtype=complex)
    P, ok = project_batch(V, z0[None, :])
    assert ok[0]
    assert np.array_equal(P[0], z0)


complex_moderate = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


@st.composite
def weights_strategy(draw):
    entries = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    return Weights(tuple(entries))


@st.composite
def homogeneous_poly(draw, weights: Weights):
    """Random weighted homogeneous polynomial: random base monomial fixes the
    degree, further monomials are rejection-sampled to match it."""
    n = weights.n
    b = weights.as_array()
    base = tuple(draw(st.integers(0, 3)) for _ in range(n))
    if sum(base) == 0:
        base = tuple(1 if i == 0 else 0 for i in range(n))
    degree = int(np.dot(base, b))
    terms = [(base, draw(complex_moderate) + 1.0)]
    for _ in range(draw(st.integers(0, 3))):
        cand = tuple(draw(st.integers(0, 6)) for _ in range(n))
        if int(np.dot(cand, b)) == degree and sum(cand) > 0:
            terms.append((cand, draw(complex_moderate)))
    return SparsePolynomial.from_terms(n, terms), degree


@settings(max_examples=40, deadline=None)
@given(data=st.data(), s=complex_moderate)
def test_homogeneity_identity_ambient(data, s):
    w = data.draw(weights_strategy())
    poly, degree = data.draw(homogeneous_poly(w))
    if poly.is_zero:
        return
    assert weighted_degree(poly, w) == degree
    z = np.array([data.draw(complex_moderate) for _ in range(w.n)])
    lhs = poly.eval(act(s, w, z).reshape(1, -1))[0]
    rhs = s ** degree * poly.eval(z.reshape(1, -1))[0]
    scale = (1 + abs(s) ** degree) * (1 + np.linalg.norm(z) ** max(max(e) for e, _ in poly.terms))
    assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)


@settings(max_examples=40, deadline=None)
@given(s=complex_moderate, t=complex_moderate)
def test_act_group_law(s, t):
    w = Weights((3, 2, 1))
    z = np.array([0.5 + 0.25j, -1.0 + 0.5j, 2.0])
    a = act(s, w, act(t, w, z))
    b = act(s * t, w, z)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(s=st.complex_numbers(min_magnitude=0.01, max_magnitude=3.0,
                            allow_nan=False, allow_infinity=False),
       seed=st.integers(0, 10_000))
def test_orbit_closure_on_fixtures(s, seed):
    rng = np.random.default_rng(seed)
    for V in (quadric_cone(), cusp(), cone6()):
        raw = rng.standard_normal(V.ambient_dim) + 1j * rng.standard_normal(V.ambient_dim)
        z, ok = project_batch(V, raw.reshape(1, -1))
        if not ok[0]:
            continue
        assert contains(V, act(s, V.weights, z[0]), tol=1e-7)


@settings(max_examples=25, deadline=None)
@given(s=st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0,
                            allow_nan=False, allow_infinity=False))
def test_is_regular_scale_invariant_on_cones(s):
    V = quadric_cone()
    z = np.array([1.0, 4.0, 2.0], dtype=complex)  # on z1 z2 = z3^2
    assert is_regular(V, z) == is_regular(V, act(s, V.weights, z))


def test_homogeneity_identity_on_variety_samples():
    # the same identity with points produced by projection onto the variety
    rng = np.random.default_rng(1234)
    V = cusp()
    b = V.weights
    raw = rng.standard_normal((100, 2)) + 1j * rng.standard_normal((100, 2))
    Z, ok = project_batch(V, raw)
    Z = Z[ok]
    s_vals = 0.3 + rng.standard_normal(len(Z)) * 0.5 + 1j * rng.standard_normal(len(Z)) * 0.5
    q = V.polynomials[0]
    d = V.degrees[0]
    for z, s in zip(Z, s_vals):
        lhs = q.eval(act(s, b, z).reshape(1, -1))[0]
        rhs = s ** d * q.eval(z.reshape(1, -1))[0]
        scale = (1 + abs(s) ** d) * (1 + np.linalg.norm(z) ** max(max(e) for e, _ in q.terms))
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_variety_build_validates():
    q_bad = SparsePolynomial.from_terms(2, [((1, 0), 1.0), ((0, 2), 1.0)])
    with pytest.raises(NonHomogeneous):
        Variety.build(Weights((1, 1)), [q_bad])


def test_sparse_polynomial_gradients():
    q = SparsePolynomial.from_terms(3, [((1, 1, 0), 1.0), ((0, 0, 2), -1.0)])
    z = np.array([[1.0 + 1j, 2.0, 0.5j]])
    g1 = q.partial(0).eval(z)[0]
    g3 = q.partial(2).eval(z)[0]
    assert g1 == 2.0  # d/dz1 (z1 z2) = z2
    assert g3 == -2 * 0.5j


def _project_steps(V, seeds, tol, max_iter):
    """`project_batch` with its iteration budget of 60 replaced by max_iter:
    `damped_newton` on every coordinate, tol for both tests, 20 halvings."""
    cols = np.broadcast_to(np.arange(V.ambient_dim), seeds.shape)
    return damped_newton(V, seeds, cols, tol, tol, max_iter, 20)


def test_projection_no_convergence_budget():
    seeds = np.array([[5.0, -3.0, 9.0]], dtype=complex)
    _, ok = _project_steps(quadric_cone(), seeds, 1e-12, 1)
    assert not ok[0]


MERGED_FIXTURES = [cusp, quadric_cone, cone6]


def _gaussians(V, count, seed):
    rng = np.random.default_rng(seed)
    shape = (count, V.ambient_dim)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@pytest.mark.parametrize("make", MERGED_FIXTURES)
def test_project_batch_matches_whole_batch_line_search(make):
    # the one damped Newton gives every row the iterates of the old loop,
    # which re-evaluated the whole batch at each iteration and halving
    V = make()
    magnitudes = 10.0 ** np.random.default_rng(70).uniform(-3, 3, 64)
    seeds = _gaussians(V, 64, 71) * magnitudes[:, None]
    for tol, max_iter in ((1e-12, 60), (1e-13, 60), (1e-12, 3)):
        if max_iter == 60:
            Z, ok = project_batch(V, seeds, tol=tol)
        else:
            Z, ok = _project_steps(V, seeds, tol, max_iter)
        Z_ref, ok_ref = project_whole_batch(V, seeds, tol=tol, max_iter=max_iter)
        assert np.array_equal(ok, ok_ref)
        assert np.array_equal(Z, Z_ref)
    assert not ok.all()  # three steps leave some rows unconverged


@pytest.mark.parametrize("make", MERGED_FIXTURES)
def test_orbit_scale_matches_row_bisection(make):
    V = make()
    rng = np.random.default_rng(72)
    pts = _gaussians(V, 40, 73) * rng.uniform(1e-3, 10.0, 40)[:, None]
    for target in (1e-2, 1.0, np.sqrt(V.ambient_dim), 50.0):
        t = orbit_scale(V.weights, pts, target)
        assert np.array_equal(t, orbit_scale_by_rows(V.weights, pts, target))
        norms = np.linalg.norm(act(t, V.weights, pts), axis=1)
        assert np.allclose(norms, target, rtol=1e-12)


def test_orbit_scale_overflow_guard():
    with pytest.raises(OverflowError):
        orbit_scale(Weights((3, 2)), np.array([[1e-60, 1e-60]]), 1.0)


@pytest.mark.parametrize("entries", [(3, 2), (3, 4, 5), (1, 2), (2, 3, 7)])
def test_orbit_scale_per_row_targets_match_row_bisection(entries):
    # the Newton-bracketed search returns the row bisection's bits for one
    # target per row, for the solver's two-row call (W and the hole), and
    # for rows whose bracket misses: under weights (3, 4, 5), (1, 2) and
    # (2, 3, 7) three Newton steps leave 2, 8 and 6 of these 64 rows more
    # than 1e-13 above t, so their lo restarts from 0.  Zero coordinates
    # and amplitudes near 1e+-150 are included, the huge one on the
    # largest weight: t stays above 2^-146, where 200 bisection steps from
    # [0, 1] reach adjacent floats.
    w = Weights(entries)
    n = w.n
    rng = np.random.default_rng(75)
    pts = (rng.standard_normal((60, n)) + 1j * rng.standard_normal((60, n))) / np.sqrt(2)
    pts *= 10.0 ** rng.uniform(-3, 1, 60)[:, None]
    pts[:10, 0] = 0
    pts[10:20, -1] = 0
    top = int(np.argmax(entries))
    hand = np.ones((4, n), dtype=np.complex128)
    hand[1], hand[1, top] = 1e-75, 1e75
    hand[2, top] = 1e-75
    hand[3, 1:] = 0
    pts = np.concatenate([pts, hand])
    targets = 10.0 ** rng.uniform(-2, 1.7, len(pts))
    t = orbit_scale(w, pts, targets)
    ref = np.array([orbit_scale_by_rows(w, z[None, :], r)[0] for z, r in zip(pts, targets)])
    assert np.array_equal(t, ref)
    norms = np.linalg.norm(act(t, w, pts), axis=1)
    assert np.allclose(norms, targets, rtol=1e-12)
    for z in pts[::7]:
        two = orbit_scale(w, np.stack([z, z]), np.array([1.0, 0.3]))
        assert np.array_equal(two, [orbit_scale_by_rows(w, z[None, :], r)[0] for r in (1.0, 0.3)])


def _bits(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return np.stack([a.real.view(np.int64), a.imag.view(np.int64)])


def test_int_power_matches_numpy_integer_power():
    # the bits of numpy's integer-power loop, as a numpy-int or an array
    # exponent takes it (a Python-int 2 squares instead), on signed zeros,
    # subnormal, tiny, huge, infinite and nan bases, always in a fresh array
    rng = np.random.default_rng(76)
    w = (rng.standard_normal(400) + 1j * rng.standard_normal(400)) * 10.0 ** rng.uniform(-200, 200, 400)
    special = [complex(x, y) for x in (0.0, -0.0, 5e-324, -1e-170, 1e150, -1e300)
               for y in (0.0, -0.0, 1e-170, -1e160, 1e300)]
    special += [complex(np.inf, 1.0), complex(1.0, -np.inf), complex(np.nan, 0.0)]
    w = np.concatenate([w, special])
    with np.errstate(all="ignore"):
        for n in range(0, 8):
            out = int_power(w, n)
            assert out is not w and not np.shares_memory(out, w)
            assert np.array_equal(_bits(out), _bits(w ** np.int64(n)))
            assert np.array_equal(_bits(out), _bits((w[:, None] ** np.array([n]))[:, 0]))
            if n != 2:
                assert np.array_equal(_bits(out), _bits(w ** n))
    # above 256 KiB numpy computes `acc * temporary` into the temporary with
    # the operands swapped; the helper's fresh result keeps those bits
    big = rng.standard_normal(40000) + 1j * rng.standard_normal(40000)
    acc = rng.standard_normal(40000) + 1j * rng.standard_normal(40000)
    for m in (1, 3, 5):
        assert np.array_equal(_bits(acc * int_power(big, m)), _bits(acc * big ** np.int64(m)))
    assert np.array_equal(_bits(acc * int_power(big, 1)), _bits(acc * big ** 1))


def test_orbit_scale_zero_row_raises():
    # a zero row's norm never reaches the target: its search overflows
    with pytest.raises(OverflowError):
        orbit_scale(Weights((3, 2)), np.array([[1.0, 1.0], [0.0, 0.0]]), 1.0)


@pytest.mark.parametrize("make", MERGED_FIXTURES)
def test_regular_batch_matches_point_loop(make):
    # link points, the singular origin and points shrunk toward it
    V = make()
    Z, ok = project_batch(V, _gaussians(V, 48, 74))
    Z = Z[ok]
    pts = np.concatenate([Z, np.zeros((1, V.ambient_dim)), act(1e-6, V.weights, Z[:8])])
    assert contains_batch(V, pts).all()
    mask = regular_batch(V, pts)
    assert np.array_equal(mask, regular_by_points(V, pts))
    assert mask.any() and not mask.all()
    assert [is_regular(V, z) for z in pts] == mask.tolist()


def _same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.complex128).reshape(-1)
    b = np.ascontiguousarray(b, dtype=np.complex128).reshape(-1)
    return np.array_equal(a.view(np.float64), b.view(np.float64))


def _eval_cases() -> list[SparsePolynomial]:
    """Fixture, theta-cone and monomial-curve polynomials with their
    gradients, the zero and constant polynomials, and one dense cubic."""
    polys = [q for make in VARIETY_FIXTURES.values() for q in make().polynomials]
    polys += list(theta_cone(cusp()).polynomials)
    # the monomial curve (t^3, t^4, t^5): y^2 - xz, x^3 - yz, z^2 - x^2 y
    polys += [
        SparsePolynomial.from_terms(3, [((0, 2, 0), 1.0), ((1, 0, 1), -1.0)]),
        SparsePolynomial.from_terms(3, [((3, 0, 0), 1.0), ((0, 1, 1), -1.0)]),
        SparsePolynomial.from_terms(3, [((0, 0, 2), 1.0), ((2, 1, 0), -1.0)]),
    ]
    polys += [
        SparsePolynomial.from_terms(3, [((1, 2, 3), 0.5 - 1j), ((2, 0, 1), 2.0), ((0, 0, 0), 1j)])
    ]
    polys += [q.partial(j) for q in list(polys) for j in range(q.n)]
    polys += [SparsePolynomial.from_terms(2, []), SparsePolynomial.from_terms(3, [((0, 0, 0), 1.5 - 2j)])]
    return polys


def test_eval_matches_broadcast_formula_bit_for_bit():
    # on C-contiguous batches, the layout every caller in the package passes
    rng = np.random.default_rng(31)
    cases = _eval_cases()
    assert max(max(e) for q in cases for e, _ in q.terms) == 6
    for q in cases:
        P = rng.standard_normal((257, q.n)) + 1j * rng.standard_normal((257, q.n))
        P *= rng.uniform(0.0, 2.0, (257, 1))
        for pts in (P, P[0], P[:0], P[:1]):
            assert _same_bits(q.eval(pts), poly_eval_broadcast(q, pts)), (q, pts.shape)
        assert np.shape(q.eval(P[0])) == () and q.eval(P[:0]).shape == (0,)
        # the broadcast formula's last bits follow the memory layout of the
        # batch; the term-by-term value does not
        assert _same_bits(q.eval(np.asfortranarray(P)), q.eval(P)), q


@pytest.mark.parametrize(
    "make", list(VARIETY_FIXTURES.values()) + [twisted_cubic],
    ids=list(VARIETY_FIXTURES) + ["twisted-cubic"],
)
def test_residuals_and_jacobian_match_stacked_evals_bit_for_bit(make):
    # one monomial table and one matmul per call equal one evaluation per
    # polynomial and gradient entry, at every batch size
    V = make()
    rng = np.random.default_rng(32)
    P = rng.standard_normal((1000, V.ambient_dim)) + 1j * rng.standard_normal((1000, V.ambient_dim))
    P *= rng.uniform(0.0, 2.0, (1000, 1))
    for pts in (P[:1], P[:3], P[:17], P[:100], P, P[0]):
        for got, ref in ((V.residuals(pts), residuals_by_polynomials(V, pts)),
                         (V.jacobian(pts), jacobian_by_polynomials(V, pts))):
            assert got.shape == ref.shape
            assert np.array_equal(got, ref) and _same_bits(got, ref)


def test_jacobian_is_one_monomial_table(monkeypatch):
    # one table and one matmul per call, no per-entry polynomial evaluation
    V = twisted_cubic()
    P = np.random.default_rng(33).standard_normal((50, 4)) + 0j
    V.jacobian(P[:1])  # builds the plans
    tables, evals = [], []
    table = variety.MonomialPlan.table

    def counted_table(self, pts):
        tables.append(pts.shape)
        return table(self, pts)

    monkeypatch.setattr(variety.MonomialPlan, "table", counted_table)
    monkeypatch.setattr(variety.SparsePolynomial, "eval", lambda *a: evals.append(a))
    J = V.jacobian(P)
    assert tables == [(50, 4)] and evals == []
    assert J.shape == (50, 3, 4)


def _blocks(rng, M, K, r, q):
    """Random complex (M, K, r) and (M, K, q) blocks over 12 decades."""
    def draw(*shape):
        mag = 10.0 ** rng.uniform(-6.0, 6.0, shape)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * mag
    return draw(M, K, r), draw(M, K, q)


@pytest.mark.parametrize("K, r, q", [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 3, 1), (3, 1, 1),
                                     (2, 1, 2)])
def test_closed_form_steps_match_lapack(K, r, q):
    # 1 x 1 square blocks and 1 x 1 Gram matrices (K = 1 wide, r = 1 tall)
    # are one division: within 4 eps of the LAPACK step, row by row
    J, R = _blocks(np.random.default_rng(34), 5000, K, r, q)
    step, singular = newton_steps(J, R)
    ref, ref_singular = newton_steps_by_lapack(J, R)
    assert step.shape == ref.shape and not singular.any() and not ref_singular.any()
    err = np.linalg.norm((step - ref).reshape(5000, -1), axis=1)
    assert np.all(err <= 4 * np.finfo(float).eps * np.linalg.norm(ref.reshape(5000, -1), axis=1))


def test_closed_form_zero_jacobian_row_is_singular():
    J, R = _blocks(np.random.default_rng(35), 6, 1, 1, 1)
    J[[1, 4]] = 0.0
    for steps in (newton_steps, newton_steps_by_lapack):
        step, singular = steps(J, R)
        assert singular.tolist() == [False, True, False, False, True, False]
        assert np.all(step[singular] == 0) and np.all(step[~singular] != 0)


@pytest.mark.parametrize("K, r", [(2, 2), (3, 2), (2, 3)])
def test_larger_blocks_keep_the_lapack_step(K, r):
    J, R = _blocks(np.random.default_rng(36), 200, K, r, 2)
    step, singular = newton_steps(J, R)
    ref, ref_singular = newton_steps_by_lapack(J, R)
    assert np.array_equal(step, ref) and np.array_equal(singular, ref_singular)


def test_twisted_cubic_estimate_keeps_the_lapack_steps(monkeypatch):
    # K = 3 quadrics in C^4: no 1 x 1 block, so the estimate is unchanged
    V = twisted_cubic()

    def run():
        return surface_integral(V, lambda Z: np.sum(np.abs(Z) ** 2, axis=1), 0.8, 1200, 3)

    est = run()
    monkeypatch.setattr(variety, "newton_steps", newton_steps_by_lapack)
    monkeypatch.setattr(charts, "newton_steps", newton_steps_by_lapack)
    assert run() == est
