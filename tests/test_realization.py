import numpy as np
import pytest
from scipy.linalg import expm

from takagi.bidisk import AglerPair, BidiskProblem, regularize_pair
from takagi.krein import SignatureMatrix
from takagi.linalg import hermitian_inertia, hermitize
from takagi.pick import DiskProblem, gram_decompose, pick_matrix
from takagi.polynomials import Poly
from takagi.realization import (
    Realization,
    ResolventSingularity,
    eval_realization,
    faddeev_leverrier,
    kernel_forms,
    lurking_colligation,
    realization_to_rational,
    state_vector,
)


def random_j_unitary_colligation(n_pos: int, n_neg: int, rng, scale: float = 0.8):
    """Random J-unitary (1 + n_pos-1 + n_neg) colligation and its state signature."""
    signs = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    A = rng.normal(size=signs.shape * 2 if False else (signs.size, signs.size))
    A = A + 1j * rng.normal(size=A.shape)
    S = scale * (A - A.conj().T) / 2
    V = expm(np.diag(signs).astype(complex) @ S)
    J1 = SignatureMatrix(signs[1:])
    return Realization.from_colligation(V, J1)


class TestEval:
    def test_d_zero(self):
        r = Realization(A=0.5, B=np.array([1.0]), C=np.array([2.0]), D=np.zeros((1, 1)),
                        J1=SignatureMatrix(np.array([1.0])))
        assert eval_realization(r, 0.3) == pytest.approx(0.5 + 0.3 * 2.0)

    def test_at_origin_returns_a(self):
        rng = np.random.default_rng(0)
        r = random_j_unitary_colligation(3, 2, rng)
        assert eval_realization(r, 0.0) == pytest.approx(complex(r.A))

    def test_unimodular_on_circle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            r = random_j_unitary_colligation(3, 2, rng)
            z = np.exp(2j * np.pi * rng.uniform())
            try:
                val = eval_realization(r, z)
            except ResolventSingularity:
                continue
            assert abs(abs(val) - 1.0) < 1e-9

    def test_singularity_detected(self):
        # D with eigenvalue 2 makes I - 0.5 D singular.
        r = Realization(A=0.0, B=np.array([1.0]), C=np.array([1.0]), D=np.array([[2.0]]),
                        J1=SignatureMatrix(np.array([1.0])))
        with pytest.raises(ResolventSingularity):
            eval_realization(r, 0.5)


class TestFaddeevLeVerrier:
    def test_matches_determinant_pointwise(self):
        rng = np.random.default_rng(2)
        D = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        p, Ms = faddeev_leverrier(D)
        den = Poly(p)
        for lam in (0.3, -0.7j, 1.1 + 0.2j):
            direct = np.linalg.det(np.eye(4) - lam * D)
            assert den(lam) == pytest.approx(direct, rel=1e-9)

    def test_adjugate_identity(self):
        rng = np.random.default_rng(3)
        D = rng.normal(size=(3, 3))
        p, Ms = faddeev_leverrier(D)
        lam = 0.4 - 0.1j
        M = np.eye(3) - lam * D
        adj = sum(lam**m * Ms[m] for m in range(len(Ms)))
        assert np.allclose(adj @ M, np.linalg.det(M) * np.eye(3))


class TestToRational:
    def test_d_zero(self):
        r = Realization(A=0.5, B=np.array([1.0]), C=np.array([2.0]), D=np.zeros((1, 1)),
                        J1=SignatureMatrix(np.array([1.0])))
        num, den = realization_to_rational(r)
        assert np.allclose(den.coeffs, [1.0])
        assert np.allclose(num.coeffs, [0.5, 2.0])

    def test_scalar_d(self):
        r = Realization(A=1.0, B=np.array([2.0]), C=np.array([3.0]), D=np.array([[0.5]]),
                        J1=SignatureMatrix(np.array([1.0])))
        num, den = realization_to_rational(r)
        assert np.allclose(den.coeffs, [1.0, -0.5])
        assert np.allclose(num.coeffs, [1.0, 6.0 - 0.5])

    def test_agrees_with_direct_evaluation(self):
        rng = np.random.default_rng(4)
        r = random_j_unitary_colligation(3, 3, rng)
        num, den = realization_to_rational(r)
        for _ in range(64):
            z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.9
            try:
                direct = eval_realization(r, z)
            except ResolventSingularity:
                continue
            if abs(den(z)) < 1e-9 * den.norm():
                continue
            assert abs(num(z) / den(z) - direct) <= 1e-8 * (1.0 + abs(direct))

    def test_denominator_degree_bounded(self):
        rng = np.random.default_rng(5)
        r = random_j_unitary_colligation(4, 2, rng)
        num, den = realization_to_rational(r)
        assert den.degree <= r.kappa
        assert num.degree <= r.kappa


class TestKernel:
    def test_origin_identity(self):
        rng = np.random.default_rng(6)
        r = random_j_unitary_colligation(3, 2, rng)
        lhs = kernel_forms(r, 0.0, 0.0)[0]
        assert lhs == pytest.approx(1.0 - abs(r.A) ** 2, abs=1e-10)

    def test_diagonal_real(self):
        rng = np.random.default_rng(7)
        r = random_j_unitary_colligation(2, 3, rng)
        val = kernel_forms(r, 0.3 + 0.1j, 0.3 + 0.1j)[0]
        assert abs(val.imag) < 1e-10 * (1.0 + abs(val))

    def test_matches_quotient(self):
        rng = np.random.default_rng(8)
        r = random_j_unitary_colligation(3, 2, rng)
        lam, mu = 0.4 - 0.2j, -0.1 + 0.3j
        lhs = kernel_forms(r, lam, mu)[0]
        quotient = (1.0 - eval_realization(r, lam) * np.conj(eval_realization(r, mu))) / (
            1.0 - lam * np.conj(mu)
        )
        assert lhs == pytest.approx(quotient, abs=1e-8 * (1 + abs(quotient)))

    def test_sampled_kernel_inertia_bounded(self):
        rng = np.random.default_rng(9)
        n_pos, n_neg = 3, 2  # state signature (2, 2) plus scalar channel
        r = random_j_unitary_colligation(n_pos, n_neg, rng)
        pts = (rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)) * 0.6
        K = np.array([[kernel_forms(r, li, lj)[0] for li in pts] for lj in pts])
        inertia, _, _ = hermitian_inertia(0.5 * (K + K.conj().T), 1e-8)
        assert inertia.positive <= n_pos - 1 + 1  # at most state positives
        assert inertia.negative <= n_neg


class TestStateVector:
    def test_matches_resolvent(self):
        rng = np.random.default_rng(10)
        r = random_j_unitary_colligation(2, 2, rng)
        lam = 0.2 + 0.1j
        x = state_vector(r, lam)
        assert np.allclose((np.eye(r.kappa) - lam * r.D) @ x, r.C)


def one_block_data(rng, N=4):
    """Disk nodes, targets and the Gram split of a nonsingular Pick matrix."""
    nodes = (rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)) * 0.6
    values = rng.uniform(0.2, 3.0, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
    dec = gram_decompose(pick_matrix(DiskProblem(nodes=nodes, values=values)))
    assert dec.inertia.zero == 0
    return nodes[:, None], values, [(dec.u, dec.v)]


def two_block_data(rng, N=3):
    """Bidisk nodes, targets and the Gram splits of the two terms of a generic pair."""
    nodes = (rng.uniform(-1, 1, (N, 2)) + 1j * rng.uniform(-1, 1, (N, 2))) * 0.5
    values = rng.uniform(0.3, 2.5, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
    g1 = hermitize(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
    g2 = (1.0 - np.outer(values, values.conj())
          - (1.0 - np.outer(nodes[:, 0], nodes[:, 0].conj())) * g1) / (
        1.0 - np.outer(nodes[:, 1], nodes[:, 1].conj()))
    grams = regularize_pair(AglerPair(gamma1=g1, gamma2=hermitize(g2)))
    return nodes, values, [(g.u, g.v) for g in grams]


def centered_singular_data(rng=None):
    """Nodes and targets of problems/disk_degenerate.json, inertia (1, 1, 2) with
    the first node at 0, and the centered split: the null vectors y pad both sides."""
    nodes = np.array([0.0, 0.5, -0.5, 0.5j])
    values = np.array([0.0, 1.0, 1.0, 1.0], dtype=complex)
    dec = gram_decompose(pick_matrix(DiskProblem(nodes=nodes, values=values)))
    assert dec.inertia.as_tuple() == (1, 1, 2)
    return nodes[:, None], values, [(np.hstack([dec.u, dec.y]), np.hstack([dec.v, dec.y]))]


class TestLurkingColligation:
    @pytest.mark.parametrize("data", [one_block_data, two_block_data, centered_singular_data],
                             ids=["one-block", "two-blocks", "centered-singular"])
    def test_maps_lurking_pairs_and_is_j_unitary(self, data):
        nodes, values, splits = data(np.random.default_rng(12))
        r = lurking_colligation(nodes, values, splits)
        # Block r of x_i is row i of u^r over row i of v^r, signed +1 then -1.
        X = np.vstack([w.T for u, v in splits for w in (u, v)])
        blocks = tuple(u.shape[1] + v.shape[1] for u, v in splits)
        signs = np.concatenate([np.full(w.shape[1], s) for u, v in splits
                                for w, s in ((u, 1.0), (v, -1.0))])
        assert r.blocks == blocks and r.kappa == X.shape[0]
        assert np.array_equal(r.J1.signs, signs)
        assert r.defect() < 1e-8
        V = r.colligation()
        for i in range(values.size):
            image = V @ np.concatenate([[1.0], np.repeat(nodes[i], blocks) * X[:, i]])
            expected = np.concatenate([[values[i]], X[:, i]])
            assert np.allclose(image, expected, rtol=0, atol=1e-9 * (1 + np.abs(X).max()))

    def test_centered_singular_layout(self):
        # N = 4 and (pi, nu, zeta) = (1, 1, 2): one block of N + zeta = 6,
        # signed pi + zeta = 3 times +1, then nu + zeta = 3 times -1.
        r = lurking_colligation(*centered_singular_data())
        assert r.blocks == (6,)
        assert np.array_equal(r.J1.signs, [1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
