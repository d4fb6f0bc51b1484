import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takagi.krein import SignatureMatrix
from takagi.linalg import (
    Inertia,
    NotHermitianError,
    check_hermitian,
    hermitian_inertia,
    hermitize,
    inertia_of,
    real_combination,
    sample_grid,
    transfer_coefficients,
)
from takagi.io import load_problem
from takagi.pick import DiskProblem, pick_matrix
from takagi.polynomials import Poly
from takagi.realization import Realization, eval_realization, faddeev_leverrier

from mp_reference import inertia_60_digits


def test_identity_inertia():
    inertia, evals, _ = hermitian_inertia(np.eye(3), 1e-10)
    assert inertia.as_tuple() == (3, 0, 0)
    assert np.allclose(evals, 1.0)


def test_diagonal_mixed_inertia():
    inertia, _, _ = hermitian_inertia(np.diag([1.0, -1.0, 0.0]))
    assert inertia.as_tuple() == (1, 1, 1)


def test_degenerate_interpolation_matrix_inertia():
    problem = DiskProblem(
        nodes=np.array([0.0, 0.5, -0.5, 0.5j]),
        values=np.array([0.0, 1.0, 1.0, 1.0]),
    )
    G = pick_matrix(problem)
    inertia, _, _ = hermitian_inertia(G, 1e-9)
    assert inertia.as_tuple() == (1, 1, 2)


def test_non_hermitian_rejected():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NotHermitianError) as err:
        hermitian_inertia(M)
    assert err.value.asymmetry > 0


def test_eigenvalues_ascending():
    M = np.diag([3.0, -5.0, 1.0])
    _, evals, _ = hermitian_inertia(M)
    assert np.all(np.diff(evals) >= 0)


def test_inertia_dimension():
    inertia = Inertia(2, 1, 3)
    assert inertia.dimension == 6
    assert inertia.as_tuple() == (2, 1, 3)


def test_sylvester_stability():
    """Congruence by a random invertible matrix preserves inertia."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        M = hermitize(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        inertia, _, _ = hermitian_inertia(M)
        while True:
            S = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            if np.linalg.cond(S) < 1e4:
                break
        congruent = hermitize(S.conj().T @ M @ S)
        inertia2, _, _ = hermitian_inertia(congruent)
        assert inertia2.as_tuple() == inertia.as_tuple()


def test_zero_rule_default_cutoff():
    # The cutoff is 32 * 16 * eps = 1.14e-13 at N = 16 with max|lam| = 1.
    evals = np.array([-1.0, 1e-13, 1.2e-13] + [1.0] * 13)
    assert inertia_of(evals).as_tuple() == (14, 1, 1)
    assert inertia_of(evals, 1e-9).as_tuple() == (13, 1, 2)


def test_zero_rule_matches_60_digit_inertia():
    """Clustered N = 16 Pick matrices: the float64 rule against a 60-digit reference.

    Square nodes of half-width 0.5 (pairwise at least 0.05 apart) and targets
    of modulus 0.2 to 3.  These matrices are nonsingular, with eigenvalues down
    to about 1e-11 relative, and a 1e-9 cutoff calls some of them singular.
    """
    old_singular = 0
    for k in range(12):
        rng = np.random.default_rng([16, k])
        while True:
            nodes = (rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)) * 0.5
            if np.min(np.abs(nodes[:, None] - nodes[None, :]) + np.eye(16)) > 0.05:
                break
        values = rng.uniform(0.2, 3.0, 16) * np.exp(2j * np.pi * rng.uniform(0, 1, 16))
        problem = DiskProblem(nodes=nodes, values=values)
        evals = np.linalg.eigvalsh(pick_matrix(problem))
        assert inertia_of(evals).as_tuple() == inertia_60_digits(problem.nodes, problem.values)
        old_singular += inertia_of(evals, 1e-9).zero > 0
    assert old_singular >= 1


def test_zero_rule_keeps_the_singular_reference():
    problem, _, _ = load_problem("problems/disk_degenerate.json")
    evals = np.linalg.eigvalsh(pick_matrix(problem))
    reference = inertia_60_digits(problem.nodes, problem.values)
    assert inertia_of(evals).as_tuple() == reference == (1, 1, 2)


def test_real_combination_single_candidate_takes_unit_weight():
    t, rejected = real_combination(np.array([[2.0], [1.0j]]), 2.0, np.random.default_rng(0), 8)
    assert t.tolist() == [1.0] and rejected == []


def test_real_combination_reports_every_rejected_trial():
    # Both candidates vanish at the second node, so every weight vector is rejected.
    vals = np.array([[1.0, 1.0], [0.0, 0.0]])
    t, rejected = real_combination(vals, 1.0, np.random.default_rng(0), 5)
    assert t is None
    assert len(rejected) == 5 and all(row[1] == 0.0 for row in rejected)


def test_check_hermitian_accepts_roundoff():
    M = np.array([[1.0, 0.5 + 1e-15j], [0.5, 1.0]])
    check_hermitian(M)


@given(
    st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=8)
)
@settings(max_examples=60, deadline=None)
def test_diagonal_inertia_matches_sign_counts(diag):
    d = np.array(diag)
    inertia, _, _ = hermitian_inertia(np.diag(d), 1e-9)
    cutoff = 1e-9 * max(1.0, float(np.max(np.abs(d))))
    assert inertia.positive == int(np.sum(d > cutoff))
    assert inertia.negative == int(np.sum(d < -cutoff))


def random_colligation_blocks(rng, k, scale=0.4):
    A = complex(rng.normal(), rng.normal())
    B, C = (rng.normal(size=k) + 1j * rng.normal(size=k) for _ in range(2))
    D = scale * (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))) / np.sqrt(max(k, 1))
    return A, B, C, D


@pytest.mark.parametrize("k", [1, 3, 7])
def test_transfer_kernel_one_axis_matches_per_sample_loop(k):
    rng = np.random.default_rng(30 + k)
    A, B, C, D = random_colligation_blocks(rng, k)

    def loop(z):
        M = np.eye(k, dtype=complex) - z * D
        return np.linalg.det(M), np.linalg.det(M) * (A + z * (B @ np.linalg.solve(M, C)))

    num_c, den_c = transfer_coefficients(A, B, C, D, (k,))
    assert num_c.shape == den_c.shape == (k + 1,)
    for zm in 0.7 * np.exp(2j * np.pi * (np.arange(5) + 0.3) / 5):
        d, n = loop(zm)
        assert abs(Poly(den_c)(zm) - d) < 1e-12 * (1 + abs(d))
        assert abs(Poly(num_c)(zm) - n) < 1e-12 * (1 + abs(n))


@pytest.mark.parametrize("blocks", [(2, 3), (3, 0), (0, 2)])
def test_transfer_kernel_two_axes_matches_bidisk_evaluation(blocks):
    rng = np.random.default_rng(sum(blocks) + 10 * blocks[0])
    A, B, C, D = random_colligation_blocks(rng, sum(blocks))
    r = Realization(A=A, B=B, C=C, D=D, J1=SignatureMatrix(np.ones(sum(blocks))), blocks=blocks)
    num_c, den_c = transfer_coefficients(A, B, C, D, blocks)
    assert num_c.shape == den_c.shape == (blocks[0] + 1, blocks[1] + 1)
    num, den = Poly(num_c), Poly(den_c)
    for _ in range(10):
        z = (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) * 0.6
        direct = eval_realization(r, z)
        assert abs(num(*z) / den(*z) - direct) < 1e-10 * (1 + abs(direct))
        E = np.repeat(z, blocks)
        assert abs(den(*z) - np.linalg.det(np.eye(sum(blocks)) - D * E)) < 1e-12


def colligation_with_unit_eigenvalue(rng, k):
    """Colligation blocks whose D has the eigenvalue 1, so I - D E_z is singular at z = 1."""
    A, B, C, _ = random_colligation_blocks(rng, k)
    X = np.eye(k) + 0.3 * (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    rest = 0.5 * (rng.uniform(-1, 1, k - 1) + 1j * rng.uniform(-1, 1, k - 1))
    return A, B, C, X @ np.diag(np.concatenate([[1.0], rest])) @ np.linalg.inv(X)


def test_transfer_kernel_one_axis_is_division_free():
    # z = 1 is a sample point and I - D is singular there; den is
    # Faddeev-LeVerrier's det(I - z D) and num = A den + z B adj(I - z D) C.
    rng = np.random.default_rng(41)
    k = 4
    A, B, C, D = colligation_with_unit_eigenvalue(rng, k)
    assert sample_grid((k,))[0, 0] == 1.0
    assert abs(np.linalg.det(np.eye(k) - D)) < 1e-12
    num_c, den_c = transfer_coefficients(A, B, C, D, (k,))
    p, Ms = faddeev_leverrier(D)
    num = A * p + np.concatenate([[0.0], [B @ M @ C for M in Ms]])
    assert np.max(np.abs(den_c - p)) < 1e-12 * max(1.0, np.max(np.abs(p)))
    assert np.max(np.abs(num_c - num)) < 1e-12 * max(1.0, np.max(np.abs(num)))


def test_transfer_kernel_two_axes_is_division_free():
    # I - D E_z is singular at the sample point z = (1, 1).
    blocks = (2, 3)
    rng = np.random.default_rng(42)
    A, B, C, D = colligation_with_unit_eigenvalue(rng, sum(blocks))
    assert abs(np.linalg.det(np.eye(sum(blocks)) - D)) < 1e-12
    r = Realization(A=A, B=B, C=C, D=D, J1=SignatureMatrix(np.ones(sum(blocks))), blocks=blocks)
    num, den = (Poly(c) for c in transfer_coefficients(A, B, C, D, blocks))
    for _ in range(10):
        z = (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) * 0.6
        direct = eval_realization(r, z)
        assert abs(num(*z) / den(*z) - direct) < 1e-10 * (1 + abs(direct))
