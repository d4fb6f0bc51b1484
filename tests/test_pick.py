import numpy as np
import pytest

from takagi.linalg import hermitian_inertia
from takagi.pick import DiskProblem, gram_decompose, pick_matrix


class TestDiskProblem:
    def test_basic(self):
        p = DiskProblem(nodes=np.array([0.0, 0.5]), values=np.array([1.0, 2.0]))
        assert p.size == 2

    def test_node_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            DiskProblem(nodes=np.array([1.0]), values=np.array([0.0]))

    def test_coincident_nodes_rejected(self):
        with pytest.raises(ValueError):
            DiskProblem(nodes=np.array([0.1, 0.1]), values=np.array([0.0, 1.0]))

    def test_first_coincident_pair_in_row_major_order_is_named(self):
        # Pairs (0, 3) and (1, 2) coincide; row-major order meets (0, 3) first.
        with pytest.raises(ValueError, match=r"^nodes 0 and 3 coincide$"):
            DiskProblem(nodes=np.array([0.1, 0.2j, 0.2j, 0.1]), values=np.zeros(4))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiskProblem(nodes=np.array([0.1]), values=np.array([0.0, 1.0]))

    @pytest.mark.parametrize(
        "nodes, values",
        [([0.1, np.nan], [0.0, 1.0]), ([0.1, 0.2j], [np.inf, 1.0]), ([0.1], [complex(0, -np.inf)])],
    )
    def test_non_finite_rejected(self, nodes, values):
        with pytest.raises(ValueError, match="finite"):
            DiskProblem(nodes=np.array(nodes), values=np.array(values))


class TestPickMatrix:
    def test_single_node_zero_value(self):
        p = DiskProblem(nodes=np.array([0.0]), values=np.array([0.0]))
        assert np.allclose(pick_matrix(p), [[1.0]])

    def test_single_node_large_value(self):
        p = DiskProblem(nodes=np.array([0.0]), values=np.array([2.0]))
        assert np.allclose(pick_matrix(p), [[-3.0]])

    def test_equal_unimodular_values_give_zero_matrix(self):
        w = np.exp(0.4j)
        p = DiskProblem(nodes=np.array([0.0, 0.3, -0.2j]), values=np.full(3, w))
        G = pick_matrix(p)
        assert np.max(np.abs(G)) < 1e-14
        inertia, _, _ = hermitian_inertia(G)
        assert inertia.as_tuple() == (0, 0, 3)

    def test_hermitian(self):
        rng = np.random.default_rng(0)
        p = DiskProblem(
            nodes=(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)) * 0.5,
            values=rng.normal(size=4) + 1j * rng.normal(size=4),
        )
        G = pick_matrix(p)
        assert np.allclose(G, G.conj().T)


class TestGramDecomposition:
    def test_diagonal_indefinite(self):
        G = np.diag([1.0, -1.0])
        dec = gram_decompose(G)
        assert dec.inertia.as_tuple() == (1, 1, 0)
        recon = dec.u @ dec.u.conj().T - dec.v @ dec.v.conj().T
        assert np.allclose(recon, G)

    def test_zero_matrix(self):
        dec = gram_decompose(np.zeros((2, 2)))
        assert dec.inertia.as_tuple() == (0, 0, 2)
        assert dec.u.shape == (2, 0)
        assert dec.v.shape == (2, 0)
        B = dec.y @ dec.y.conj().T
        evals = np.linalg.eigvalsh(B)
        assert evals.min() > 1e-8 * evals.max()

    def test_degenerate_example(self):
        p = DiskProblem(
            nodes=np.array([0.0, 0.5, -0.5, 0.5j]),
            values=np.array([0.0, 1.0, 1.0, 1.0]),
        )
        G = pick_matrix(p)
        dec = gram_decompose(G)
        assert dec.inertia.as_tuple() == (1, 1, 2)
        recon = dec.u @ dec.u.conj().T - dec.v @ dec.v.conj().T
        assert np.linalg.norm(recon - G) < 1e-10

    def test_reconstruction_on_random_problems(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            N = rng.integers(1, 9)
            while True:
                nodes = (rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)) * 0.6
                if N == 1 or min(
                    abs(nodes[i] - nodes[j]) for i in range(N) for j in range(i + 1, N)
                ) > 1e-3:
                    break
            values = rng.uniform(0.2, 3.0, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
            G = pick_matrix(DiskProblem(nodes=nodes, values=values))
            dec = gram_decompose(G)
            recon = dec.u @ dec.u.conj().T - dec.v @ dec.v.conj().T
            assert np.linalg.norm(recon - G) <= 1e-9 * (1.0 + np.linalg.norm(G))

    def test_stacked_vectors_have_full_rank(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            N = rng.integers(1, 7)
            while True:
                nodes = (rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)) * 0.6
                if N == 1 or min(
                    abs(nodes[i] - nodes[j]) for i in range(N) for j in range(i + 1, N)
                ) > 1e-3:
                    break
            values = rng.uniform(0.2, 3.0, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
            G = pick_matrix(DiskProblem(nodes=nodes, values=values))
            dec = gram_decompose(G)
            X = np.hstack([dec.u, dec.y, dec.v, dec.y])  # rows are the stacked vectors
            s = np.linalg.svd(X, compute_uv=False)
            assert s.size >= N and s[N - 1] > 1e-8 * s[0]

    def test_positive_case_has_no_negative_vectors(self):
        rng = np.random.default_rng(9)
        nodes = np.array([0.0, 0.4, -0.3j])
        b = lambda z: (0.5 - z) / (1 - 0.5 * z)  # noqa: E731
        values = 0.9 * b(nodes)
        G = pick_matrix(DiskProblem(nodes=nodes, values=values))
        evals = np.linalg.eigvalsh(G)
        assert evals.min() > 0  # classical strictly positive case
        dec = gram_decompose(G)
        assert dec.inertia.negative == 0
        assert dec.v.shape[1] == 0
