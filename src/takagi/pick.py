"""Pick matrices and their Gram-vector decompositions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Inertia, check_finite, hermitian_inertia, hermitize

MIN_NODE_SEPARATION = 1e-9


def check_distinct_nodes(nodes: np.ndarray) -> None:
    """Raise ValueError naming the first pair (row-major) of nodes within MIN_NODE_SEPARATION.

    ``nodes`` holds one node per row, or one complex node per entry; two nodes
    coincide when every coordinate does.  One distance matrix tests every pair;
    its diagonal, each node against itself, is zero.
    """
    pts = nodes.reshape(nodes.shape[0], -1)
    close = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2) <= MIN_NODE_SEPARATION
    if np.count_nonzero(close) > len(close):
        i, j = np.argwhere(np.triu(close, 1))[0]
        raise ValueError(f"nodes {i} and {j} coincide")


@dataclass(frozen=True)
class DiskProblem:
    """Interpolation data on the unit disk: distinct nodes, arbitrary values."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=complex))
        values = np.atleast_1d(np.asarray(self.values, dtype=complex))
        if nodes.size == 0:
            raise ValueError("need at least one node")
        if nodes.size != values.size:
            raise ValueError("nodes and values must have equal length")
        check_finite("nodes and values", nodes, values)
        if np.any(np.abs(nodes) >= 1.0):
            raise ValueError("all nodes must lie strictly inside the unit disk")
        check_distinct_nodes(nodes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.nodes.size


def pick_matrix_of_function(values, points) -> np.ndarray:
    """Hermitian matrix (1 - w_i conj(w_j)) / (1 - z_i conj(z_j)) of values w at points z."""
    w = np.asarray(values, dtype=complex)
    z = np.asarray(points, dtype=complex)
    return hermitize((1.0 - np.outer(w, w.conj())) / (1.0 - np.outer(z, z.conj())))


def pick_matrix(problem: DiskProblem) -> np.ndarray:
    """The Pick matrix of the problem: its targets at its nodes."""
    return pick_matrix_of_function(problem.values, problem.nodes)


@dataclass(frozen=True)
class GramDecomposition:
    """Split of a Hermitian G into Gram(u) - Gram(v), plus its null vectors y.

    Rows of u/v/y are the per-node vectors; ``G = u u* - v v*``, and the
    columns of y are orthonormal eigenvectors spanning the kernel of G, so
    ``u u* + v v* + y y*`` is positive definite.
    """

    u: np.ndarray  # N x pi
    v: np.ndarray  # N x nu
    y: np.ndarray  # N x zeta
    inertia: Inertia


def gram_decompose(G: np.ndarray) -> GramDecomposition:
    """Eigen-based Gram decomposition of a Hermitian matrix.

    The ascending eigenpairs split by ``hermitian_inertia``'s counts: u from
    the positive ones scaled by sqrt(lam), v from the negative ones scaled by
    sqrt(|lam|), y the null eigenvectors unscaled (``disk.solve_centered``,
    their one reader, scales them).
    """
    inertia, evals, evecs = hermitian_inertia(G)
    _, nu, zeta = inertia.as_tuple()
    u = evecs[:, nu + zeta:] * np.sqrt(evals[nu + zeta:])
    v = evecs[:, :nu] * np.sqrt(-evals[:nu])
    y = evecs[:, nu:nu + zeta]
    return GramDecomposition(u=u, v=v, y=y, inertia=inertia)
