import numpy as np
import pytest
from scipy.linalg import expm

from takagi import krein
from takagi.krein import (
    ExtensionError,
    GramMismatchError,
    SignatureMatrix,
    extend_j_isometry,
    j_gram,
    j_unitarity_defect,
)


def random_j_unitary(signs: np.ndarray, rng: np.random.Generator, scale: float = 0.8) -> np.ndarray:
    """exp(J S) with S skew-Hermitian is J-unitary."""
    n = signs.size
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    S = scale * (A - A.conj().T) / 2
    return expm(np.diag(signs).astype(complex) @ S)


class TestSignatureMatrix:
    def test_blocks(self):
        J = SignatureMatrix.blocks((2, 1), (1, -1))
        assert np.allclose(J.signs, [1, 1, -1])
        assert J.n_positive == 2 and J.n_negative == 1

    def test_invalid_signs_rejected(self):
        with pytest.raises(ValueError):
            SignatureMatrix(np.array([1.0, 0.5]))


class TestJGram:
    def test_euclidean_case(self):
        J = SignatureMatrix(np.ones(3))
        V = np.eye(3)
        assert np.allclose(j_gram(J, V), np.eye(3))

    def test_isotropic_vector(self):
        J = SignatureMatrix(np.array([1.0, -1.0]))
        v = np.array([[1.0], [1.0]])
        assert abs(j_gram(J, v)[0, 0]) < 1e-14

    def test_dimension_mismatch(self):
        J = SignatureMatrix(np.ones(2))
        with pytest.raises(ValueError):
            j_gram(J, np.ones((3, 1)))


class TestExtension:
    def test_full_basis_case(self):
        rng = np.random.default_rng(0)
        signs = np.array([1.0, 1.0, -1.0])
        J = SignatureMatrix(signs)
        U = random_j_unitary(signs, rng)
        D = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        R = U @ D
        V1 = extend_j_isometry(J, D, R)
        assert np.linalg.norm(V1 @ D - R) < 1e-8 * np.linalg.norm(R)
        assert j_unitarity_defect(J, V1) < 1e-8 * 3

    def test_euclidean_completion(self):
        rng = np.random.default_rng(1)
        J = SignatureMatrix(np.ones(4))
        Q, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        Q2, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        V1 = extend_j_isometry(J, Q, Q2)
        assert np.linalg.norm(V1.conj().T @ V1 - np.eye(4)) < 1e-8

    def test_random_indefinite_case(self):
        rng = np.random.default_rng(2)
        signs = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        J = SignatureMatrix(signs)
        U = random_j_unitary(signs, rng)
        D = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        R = U @ D
        V1 = extend_j_isometry(J, D, R)
        assert np.linalg.norm(V1 @ D - R) < 1e-8 * max(1.0, np.linalg.norm(R))
        assert j_unitarity_defect(J, V1) < 1e-8 * 6

    def test_gram_mismatch_rejected(self):
        J = SignatureMatrix(np.array([1.0, -1.0]))
        D = np.array([[1.0], [0.0]])
        R = np.array([[0.0], [1.0]])  # J-norm +1 vs -1
        with pytest.raises(GramMismatchError):
            extend_j_isometry(J, D, R)

    @pytest.mark.parametrize("d_shape, r_shape", [((2, 1), (2, 2)), ((2, 1), (3, 1)), ((3, 1), (3, 1))])
    def test_shape_mismatch_rejected(self, d_shape, r_shape):
        """Domain and range must have the same shape, with J's dimension as rows."""
        J = SignatureMatrix(np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="shape mismatch"):
            extend_j_isometry(J, np.ones(d_shape), np.ones(r_shape))

    def test_consistent_dependent_domain_extends(self):
        """Dependent columns whose images follow: every column is mapped."""
        rng = np.random.default_rng(6)
        signs = np.array([1.0, 1.0, -1.0, -1.0, 1.0])
        J = SignatureMatrix(signs)
        U = random_j_unitary(signs, rng)
        D = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        D = np.hstack([D, D @ np.array([[2.0, 0.5j], [-1.0, 1.0]]), D[:, :1]])
        R = U @ D
        V1 = extend_j_isometry(J, D, R)
        assert np.linalg.norm(V1 @ D - R) < 1e-8 * np.linalg.norm(R)
        assert j_unitarity_defect(J, V1) < 1e-8 * 5

    def test_inconsistent_dependent_domain_rejected(self):
        """d2 = 2 d1 with r2 = 3 r1: equal J-Grams, but r2 does not follow."""
        J = SignatureMatrix(np.array([1.0, -1.0, 1.0]))
        d1 = np.array([1.0, 1.0, 0.0])
        D = np.column_stack([d1, 2 * d1])
        R = np.column_stack([d1, 3 * d1])
        assert np.allclose(j_gram(J, D), j_gram(J, R))
        with pytest.raises(ExtensionError, match="dependent"):
            extend_j_isometry(J, D, R)

    def test_isotropic_domain_vector(self):
        """Radical handling: a J-isotropic prescribed vector still extends."""
        rng = np.random.default_rng(4)
        signs = np.array([1.0, 1.0, -1.0, -1.0])
        J = SignatureMatrix(signs)
        U = random_j_unitary(signs, rng)
        iso = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)[:, None]  # J-norm 0
        R = U @ iso
        V1 = extend_j_isometry(J, iso, R)
        assert np.linalg.norm(V1 @ iso - R) < 1e-7 * np.linalg.norm(R)
        assert j_unitarity_defect(J, V1) < 1e-8 * 4

    def test_determinant_nonzero(self):
        rng = np.random.default_rng(5)
        signs = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
        J = SignatureMatrix(signs)
        U = random_j_unitary(signs, rng)
        D = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        V1 = extend_j_isometry(J, D, U @ D)
        assert abs(np.linalg.det(V1)) > 1e-8


class TestSquareCompletion:
    """n x (n-1) domains with a nonsingular J-Gram: one complement vector per side."""

    @pytest.mark.parametrize("dropped_sign", [1.0, -1.0])
    def test_square_completion_extends(self, dropped_sign, monkeypatch):
        """D spans the J-orthogonal complement of column k of a J-unitary W, whose
        J-norm ``dropped_sign`` is the complement's; the general route never runs."""
        def general_route(*args):
            raise AssertionError("the square completion took the general route")

        monkeypatch.setattr(krein, "_j_orthonormal_complement", general_route)
        rng = np.random.default_rng(7)
        signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        J = SignatureMatrix(signs)
        k = int(np.flatnonzero(signs == dropped_sign)[0])
        W = random_j_unitary(signs, rng)
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        D = np.delete(W, k, axis=1) @ M
        R = random_j_unitary(signs, rng) @ D
        V1 = extend_j_isometry(J, D, R)
        assert np.linalg.norm(V1 @ D - R) < 1e-8 * max(1.0, np.linalg.norm(R))
        assert j_unitarity_defect(J, V1) < 1e-8 * 6

    def test_square_domain_with_radical_takes_general_route(self, monkeypatch):
        """An isotropic column makes a radical: the general route extends it."""
        calls = []
        complement = krein._j_orthonormal_complement

        def counted(*args):
            calls.append(1)
            return complement(*args)

        monkeypatch.setattr(krein, "_j_orthonormal_complement", counted)
        rng = np.random.default_rng(8)
        signs = np.array([1.0, -1.0, 1.0, 1.0])
        J = SignatureMatrix(signs)
        D = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=complex)
        R = random_j_unitary(signs, rng) @ D
        V1 = extend_j_isometry(J, D, R)
        assert len(calls) == 2
        assert np.linalg.norm(V1 @ D - R) < 1e-7 * np.linalg.norm(R)
        assert j_unitarity_defect(J, V1) < 1e-8 * 4
