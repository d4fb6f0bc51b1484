import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takagi.polynomials import (
    _moebius_matrix,
    BlaschkeProduct,
    MoebiusMap,
    NonFiniteCoefficientError,
    Poly,
    boundary_values,
    find_roots,
    moebius_matrix,
    moebius_pullback,
    poly_gcd_numeric,
    poly_reflect,
    poly_roots,
    reduce_common_roots,
)


class TestPoly:
    def test_zero_polynomial_degree(self):
        assert Poly().degree == -1
        assert Poly(np.zeros(4)).degree == -1

    def test_trim(self):
        p = Poly(np.array([1.0, 2.0, 1e-30]))
        assert p.degree == 1

    @pytest.mark.parametrize(
        "coeffs", [[1.0, np.nan], [np.inf, 1.0], [[np.inf, 1.0]], [[1.0, 0.0], [0.0, np.nan]]]
    )
    def test_non_finite_coefficient_rejected(self, coeffs):
        with pytest.raises(NonFiniteCoefficientError):
            Poly(np.array(coeffs))

    def test_arithmetic(self):
        p = Poly(np.array([1.0, 1.0]))
        q = Poly(np.array([-1.0, 1.0]))
        assert np.allclose((p * q).coeffs, [-1.0, 0.0, 1.0])
        assert np.allclose((p + q).coeffs, [0.0, 2.0])

    def test_evaluation(self):
        p = Poly(np.array([1.0, 0.0, 1.0]))  # 1 + z^2
        assert p(2.0) == pytest.approx(5.0)
        assert np.allclose(p(np.array([0.0, 1j])), [1.0, 0.0])

    def test_from_roots(self):
        p = Poly.from_roots([1.0, -1.0])
        assert np.allclose(p.coeffs, [-1.0, 0.0, 1.0])

    def test_product_is_np_convolve_bit_for_bit(self):
        # One variable takes the Kronecker path of Poly.__mul__; its bits are
        # those of one np.convolve, for a constant (length 1) and the zero poly.
        rng = np.random.default_rng(5)
        for m, n in [(1, 1), (1, 7), (5, 3), (13, 19), (7, 1)]:
            a = rng.normal(size=m) + 1j * rng.normal(size=m)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            for x, y in ((a, b), (a, np.zeros(n)), (np.zeros(m), b)):
                product = (Poly(x) * Poly(y)).coeffs
                assert product.tobytes() == Poly(np.convolve(x, y)).coeffs.tobytes()
            assert np.array_equal((Poly(a) * Poly(b)).coeffs, np.convolve(a, b))


class TestTwoVariables:
    def test_eval_and_degrees(self):
        # 1 + z1 z2 + z2^2
        p = Poly(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        assert p.degrees == (1, 2)
        assert p(0.5, 2.0) == pytest.approx(1.0 + 0.5 * 2.0 + 4.0)

    def test_arithmetic(self):
        p = Poly(np.array([[1.0], [1.0]]))  # 1 + z1
        q = Poly(np.array([[1.0, 1.0]]))  # 1 + z2
        prod = p * q
        assert prod(0.3, 0.4) == pytest.approx(1.3 * 1.4)
        assert (p + q)(0.3, 0.4) == pytest.approx(2.0 + 0.3 + 0.4)

    def test_reflection_involution(self):
        rng = np.random.default_rng(0)
        C = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        p = Poly(C)
        d = (2, 3)
        back = poly_reflect(poly_reflect(p, d), d)
        assert np.allclose(back.coeffs, p.coeffs)

    def test_reflection_torus_modulus(self):
        rng = np.random.default_rng(1)
        p = Poly(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        ref = poly_reflect(p, p.degrees)
        for _ in range(32):
            z1 = np.exp(2j * np.pi * rng.uniform())
            z2 = np.exp(2j * np.pi * rng.uniform())
            assert abs(abs(ref(z1, z2)) - abs(p(z1, z2))) < 1e-10 * p.norm()

    def test_evaluation_is_the_double_sum(self):
        rng = np.random.default_rng(3)
        C = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        z1, z2 = (rng.uniform(-1, 1, (2, 20)) + 1j * rng.uniform(-1, 1, (2, 20))) * 0.9
        direct = sum(C[k1, k2] * z1**k1 * z2**k2 for k1 in range(4) for k2 in range(3))
        assert np.allclose(Poly(C)(z1, z2), direct, rtol=1e-13, atol=1e-13)

    def test_product_is_the_double_sum(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        B = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        direct = np.zeros((4, 6), dtype=complex)
        for i in range(3):
            for j in range(4):
                direct[i : i + 2, j : j + 3] += A[i, j] * B
        prod = Poly(A) * Poly(B)
        assert prod.degrees == (3, 5)
        assert np.allclose(prod.coeffs, direct, rtol=0, atol=1e-13)
        z1, z2 = (rng.uniform(-1, 1, (2, 20)) + 1j * rng.uniform(-1, 1, (2, 20))) * 0.9
        assert np.allclose(prod(z1, z2), Poly(A)(z1, z2) * Poly(B)(z1, z2), rtol=1e-12)

    def test_one_variable_factor_acts_on_the_first(self):
        p = Poly(np.array([[1.0, 2.0], [0.0, 1.0]]))  # 1 + 2 z2 + z1 z2
        q = p * Poly(np.array([-0.5, 1.0]))  # times (z1 - 1/2)
        assert q.degrees == (2, 1)
        assert q(0.3, 0.7) == pytest.approx(p(0.3, 0.7) * (0.3 - 0.5))


class TestRoots:
    def test_factored_quadratic(self):
        roots = sorted(poly_roots(Poly(np.array([-1.0, 0.0, 1.0]))), key=lambda z: z.real)
        assert np.allclose(roots, [-1.0, 1.0])

    def test_linear(self):
        assert np.allclose(poly_roots(Poly(np.array([1.0, -2.0]))), [0.5])

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(Poly())

    def test_random_degree_six_roots_evaluate_small(self):
        rng = np.random.default_rng(0)
        p = Poly(rng.normal(size=7) + 1j * rng.normal(size=7))
        scale = float(np.max(np.abs(p.coeffs)))
        for r in poly_roots(p):
            assert abs(p(r)) < 1e-8 * scale * max(1.0, abs(r)) ** 6

    def test_roots_roundtrip_degree_twelve(self):
        rng = np.random.default_rng(1)
        roots = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
        p = Poly.from_roots(roots)
        recovered = poly_roots(p)
        for r in roots:
            assert np.min(np.abs(recovered - r)) < 1e-7


class TestReflection:
    def test_linear_example(self):
        # 1 - 2z at degree 1 -> z - 2
        p = poly_reflect(Poly(np.array([1.0, -2.0])), 1)
        assert np.allclose(p.coeffs, [-2.0, 1.0])

    def test_monomial(self):
        assert np.allclose(poly_reflect(Poly(np.array([0.0, 1.0])), 1).coeffs, [1.0])

    def test_involution_real_coefficients(self):
        p = Poly(np.array([2.0, -1.0, 3.0]))
        assert np.allclose(poly_reflect(poly_reflect(p, 2), 2).coeffs, p.coeffs)

    def test_degree_below_rejected(self):
        with pytest.raises(ValueError):
            poly_reflect(Poly(np.array([1.0, 1.0, 1.0])), 1)

    def test_same_modulus_on_circle(self):
        rng = np.random.default_rng(2)
        p = Poly(rng.normal(size=5) + 1j * rng.normal(size=5))
        z = np.exp(2j * np.pi * np.arange(256) / 256)
        ref = poly_reflect(p, p.degree)
        assert np.max(np.abs(np.abs(ref(z)) - np.abs(p(z)))) < 1e-10 * p.norm()


class TestGcd:
    def test_shared_linear_factor(self):
        p = Poly.from_roots([0.5, 2.0])
        q = Poly.from_roots([0.5])
        rp, rq, common = poly_gcd_numeric(p, q, 1e-8)
        assert rp.degree == 1 and rq.degree == 0
        assert common.degree == 1
        assert abs(common(0.5)) < 1e-12

    def test_coprime_unchanged(self):
        p = Poly.from_roots([0.3])
        q = Poly.from_roots([0.9])
        rp, rq, common = poly_gcd_numeric(p, q, 1e-8)
        assert common.degree == 0
        assert rp.degree == 1 and rq.degree == 1

    def test_perturbed_common_root_cancelled(self):
        p = Poly.from_roots([0.5 + 1e-12, 2.0])
        q = Poly.from_roots([0.5])
        rp, rq, common = poly_gcd_numeric(p, q, 1e-9)
        assert rp.degree == 1
        assert rq.degree == 0
        assert common.degree == 1


class TestRootsOnce:
    def test_roots_found_once_and_read_only(self):
        p = Poly.from_roots([0.5, -0.25j, 2.0])
        roots = poly_roots(p)
        assert poly_roots(p) is roots
        with pytest.raises(ValueError):
            roots[0] = 0.0
        assert poly_roots(Poly(np.array([3.0]))).size == 0
        with pytest.raises(ValueError):
            poly_roots(Poly())

    def test_coprime_returns_inputs(self):
        p = Poly.from_roots([0.3, 0.1j])
        q = Poly.from_roots([0.9])
        rp, rq, common = poly_gcd_numeric(p, q, 1e-8)
        assert rp is p and rq is q
        assert common.degree == 0
        num, den = reduce_common_roots(p, q)
        assert num is p and den is q

    def test_constant_side_returns_inputs(self):
        p, q = Poly.from_roots([0.3]), Poly(np.array([2.0]))
        rp, rq, common = poly_gcd_numeric(p, q)
        assert rp is p and rq is q and common.degree == 0


def _greedy_pairs(rp, rq, tol):
    """The pairing loop of ``poly_gcd_numeric``: (kept roots of p, left roots of q, pairs)."""
    rq, kept_p, common = list(rq), [], []
    for r in rp:
        if rq:
            dist = [abs(r - s) for s in rq]
            k = int(np.argmin(dist))
            if dist[k] <= tol:
                common.append(0.5 * (r + rq[k]))
                del rq[k]
                continue
        kept_p.append(r)
    return kept_p, rq, common


_root = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@given(
    st.lists(_root, min_size=0, max_size=5),
    st.lists(_root, min_size=0, max_size=5),
    st.sampled_from([None, 0.5, 2.0]),
    st.sampled_from([1e-9, 1e-7, 1e-5]),
    st.floats(0.0, 2 * np.pi),
)
@settings(max_examples=150, deadline=None)
def test_early_exit_exactly_when_nothing_pairs(roots_p, roots_q, planted, tol, phase):
    """Planted near-coincidences at 0.5 tol and 2 tol: the exit fires iff the greedy loop pairs nothing."""
    if planted is not None and roots_p:
        roots_q = roots_q + [roots_p[0] + planted * tol * np.exp(1j * phase)]
    p, q = Poly.from_roots(roots_p, 1.5), Poly.from_roots(roots_q, -0.5j)
    kept_p, left_q, common = _greedy_pairs(poly_roots(p), poly_roots(q), tol)
    rp, rq, factor = poly_gcd_numeric(p, q, tol)
    assert (rp is p and rq is q) == (not common)
    if common:
        assert np.array_equal(rp.coeffs, Poly.from_roots(kept_p, p.coeffs[-1]).coeffs)
        assert np.array_equal(rq.coeffs, Poly.from_roots(left_q, q.coeffs[-1]).coeffs)
        assert np.array_equal(factor.coeffs, Poly.from_roots(common).coeffs)
    else:
        assert factor.degree == 0


class TestMoebius:
    def test_zero_parameter_is_negation(self):
        m = MoebiusMap(0.0)
        assert m(0.3 + 0.1j) == pytest.approx(-0.3 - 0.1j)

    def test_swaps_zero_and_parameter(self):
        m = MoebiusMap(0.5)
        assert m(0.5) == pytest.approx(0.0)
        assert m(0.0) == pytest.approx(0.5)

    def test_involution_at_random_points(self):
        rng = np.random.default_rng(3)
        m = MoebiusMap(0.3 - 0.4j)
        z = (rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)) * 0.7
        assert np.max(np.abs(m(m(z)) - z)) < 1e-12

    def test_parameter_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            MoebiusMap(1.0)

    @pytest.mark.parametrize(
        "size, a, extra",
        [(4, 0.2 + 0.3j, None), (1, -0.5j, 3), (7, 0.0, 0), (9, 0.6 - 0.5j, 2), (13, -0.85, 0)],
        ids=["deg3", "deg0-declared3", "deg6-origin", "deg8-declared10", "deg12"],
    )
    def test_compose_poly_matches_direct(self, size, a, extra):
        rng = np.random.default_rng(4)
        p = Poly(rng.normal(size=size) + 1j * rng.normal(size=size))
        m = MoebiusMap(a)
        d = p.degree + (extra or 0)
        pulled = moebius_pullback(p, a, d)
        z = (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)) * 0.6
        cleared = 1j ** (d % 2) * (1.0 - np.conj(a) * z) ** d
        assert np.max(np.abs(pulled(z) / cleared - p(m(z)))) < 1e-10

    @pytest.mark.parametrize("a", [0.0, 0.3, -0.45 + 0.2j, 0.9j, -0.45 + 0.77j])
    def test_matrix_is_scaled_involution(self, a):
        for d in range(13):
            M = moebius_matrix(a, d)
            assert M.shape == (d + 1, d + 1)
            target = (1.0 - abs(a) ** 2) ** d * np.eye(d + 1)
            tol = 1e-13 * max(1.0, float(np.max(np.abs(M)))) ** 2 * (d + 1)
            assert np.max(np.abs(M @ M - target)) < tol


class TestMoebiusMatrixCache:
    def test_read_only_and_equal_to_a_fresh_build(self):
        a, d = 0.3 - 0.45j, 6
        M = moebius_matrix(a, d)
        assert moebius_matrix(complex(a), d) is M
        with pytest.raises(ValueError):
            M[0, 0] = 0.0
        _moebius_matrix.cache_clear()
        fresh = moebius_matrix(a, d)
        assert fresh is not M and fresh.tobytes() == M.tobytes()

    def test_signed_zeros_are_kept_apart(self):
        assert moebius_matrix(complex(-0.5, 0.0), 3) is not moebius_matrix(complex(-0.5, -0.0), 3)


class TestPullback:
    CASES = [((5,), 0.3 - 0.4j, (4,)), ((5,), -0.6j, (5,)), ((3, 4), (0.3 - 0.2j, 0.7), (2, 3)),
             ((3, 4), (-0.5j, 0.0), (3, 3)), ((2, 2), (0.85, -0.6 + 0.4j), (1, 2))]

    @pytest.mark.parametrize("shape, a, d", CASES, ids=["k1-even", "k1-odd", "k2-odd", "k2-even",
                                                       "k2-odd-declared"])
    def test_commutes_with_reflection(self, shape, a, d):
        # reflect(pullback(p), d) == pullback(reflect(p, d)): a weak solution
        # reflect(p, d)/p pulls back to a weak solution at the same degree.
        rng = np.random.default_rng(21)
        p = Poly(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        lhs = poly_reflect(moebius_pullback(p, a, d), d)
        rhs = moebius_pullback(poly_reflect(p, d), a, d)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12 * rhs.norm()


class TestBoundaryValues:
    @pytest.mark.parametrize("k", [1, 2])
    def test_boundary_values_match_full_grid(self, k):
        rng = np.random.default_rng(22)
        shape = (7, 5)[:k]
        p = Poly(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        z = np.exp(1j * 2.0 * np.pi * (np.arange(64) + 0.5) / 64)
        full = p(*np.meshgrid(*(z,) * k, indexing="ij"))
        assert np.array_equal(boundary_values(p, 64), full)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1)], ids=["1x1", "1xk", "kx1"])
    def test_thin_grids_match_full_grid(self, shape):
        rng = np.random.default_rng(23)
        p = Poly(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        z = np.exp(1j * 2.0 * np.pi * (np.arange(32) + 0.5) / 32)
        assert p.coeffs.shape == shape
        assert np.array_equal(boundary_values(p, 32), p(*np.meshgrid(z, z, indexing="ij")))

    @pytest.mark.parametrize("k", [1, 2])
    def test_zero_poly(self, k):
        values = boundary_values(Poly(np.zeros((3,) * k)), 16)
        assert values.shape == (16,) * k and not np.any(values)


class TestFindRoots:
    # Descending, in np.roots' order: a zero constant coefficient (a root at 0),
    # a monomial, degree 1 twice, and companion matrices of sizes 1 to 4, in one call.
    CASES = [[2.0, -1.0 + 0.5j, 0.25, 0.0], [3.0 - 1.0j, 0.5j], [1.0, 0.3, -0.2j, 0.1],
             [0.5j, 0.0, 0.0], [1.0, 2.0], [0.7, -0.1 + 0.4j, 0.2, -0.6j, 0.05]]

    def test_matches_numpy_roots_bit_for_bit(self):
        polys = [Poly(np.array(c[::-1], dtype=complex)) for c in self.CASES]
        found = find_roots(polys)
        for c, p, roots in zip(self.CASES, polys, found):
            expected = np.roots(np.array(c, dtype=complex))
            assert roots.shape == expected.shape
            assert roots.astype(complex).tobytes() == expected.astype(complex).tobytes()
            assert p.roots is roots

    def test_one_eigvals_call_per_size(self, monkeypatch):
        eigvals, sizes = np.linalg.eigvals, []

        def counted(a):
            sizes.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        polys = [Poly(np.array(c[::-1], dtype=complex)) for c in self.CASES]
        find_roots(polys)
        assert sorted(sizes) == [(1, 2, 2), (1, 3, 3), (1, 4, 4), (2, 1, 1)]
        find_roots(polys)
        assert len(sizes) == 4


class TestBlaschke:
    def test_unimodular_on_circle(self):
        b = BlaschkeProduct(zeros=(0.3, -0.2 + 0.4j), constant=np.exp(0.3j))
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        assert np.max(np.abs(np.abs(b(z)) - 1.0)) < 1e-10

    def test_contractive_inside(self):
        b = BlaschkeProduct(zeros=(0.5,))
        rng = np.random.default_rng(5)
        z = (rng.uniform(-1, 1, 32) + 1j * rng.uniform(-1, 1, 32)) * 0.7
        assert np.all(np.abs(b(z)) < 1.0)

    def test_zero_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(zeros=(1.2,))

    def test_non_unimodular_constant_rejected(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(zeros=(), constant=2.0)

    def test_as_rational_matches_evaluation(self):
        b = BlaschkeProduct(zeros=(0.4j, -0.1), constant=np.exp(1.1j))
        num, den = b.as_rational()
        z = 0.3 + 0.2j
        assert num(z) / den(z) == pytest.approx(b(z))


@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=6),
    st.lists(st.floats(-5, 5), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_product_degree_additivity(a, b):
    p, q = Poly(np.array(a)), Poly(np.array(b))
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree <= p.degree + q.degree


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_reflection_is_conjugate_linear_involution(coeffs, extra):
    p = Poly(np.array(coeffs))
    if p.is_zero:
        return
    d = p.degree + extra
    assert np.allclose(poly_reflect(poly_reflect(p, d), d).coeffs, p.coeffs)
