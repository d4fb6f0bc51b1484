"""Dense Hermitian eigen-analysis with tolerance-aware inertia counting.

Also holds the randomized real-combination search that the disk and bidisk
solvers share (``real_combination``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_RTOL = 1e-12
DEFAULT_ZERO_TOL = 1e-9


class NotHermitianError(ValueError):
    def __init__(self, asymmetry: float):
        self.asymmetry = asymmetry
        super().__init__(f"matrix is not Hermitian (max asymmetry {asymmetry:.3e})")


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts (positive, negative, zero) of a Hermitian matrix."""

    positive: int
    negative: int
    zero: int

    @property
    def dimension(self) -> int:
        return self.positive + self.negative + self.zero

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.negative, self.zero)

    def __str__(self) -> str:
        return f"({self.positive},{self.negative},{self.zero})"


def check_hermitian(M: np.ndarray, rtol: float = HERMITIAN_RTOL) -> None:
    """Raise NotHermitianError if M deviates from M* beyond rtol (relative)."""
    M = np.asarray(M)
    scale = max(1.0, float(np.max(np.abs(M)))) if M.size else 1.0
    asym = float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0
    if asym > rtol * scale:
        raise NotHermitianError(asym)


def hermitian_inertia(
    M: np.ndarray, tol: float = DEFAULT_ZERO_TOL
) -> tuple[Inertia, np.ndarray, np.ndarray]:
    """Inertia of a Hermitian matrix, with its eigendecomposition.

    Eigenvalues lam with ``|lam| <= tol * max(1, |lam|_max)`` count as zero.
    Returns (inertia, eigenvalues ascending, eigenvectors as columns).
    """
    M = np.asarray(M, dtype=complex)
    check_hermitian(M)
    evals, evecs = np.linalg.eigh(M)
    cutoff = tol * max(1.0, float(np.max(np.abs(evals))) if evals.size else 0.0)
    pos = int(np.sum(evals > cutoff))
    neg = int(np.sum(evals < -cutoff))
    zero = evals.size - pos - neg
    return Inertia(pos, neg, zero), evals, evecs


def hermitize(M: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (M + M*)/2."""
    M = np.asarray(M, dtype=complex)
    return 0.5 * (M + M.conj().T)


def rank_with_tol(M: np.ndarray, tol: float = DEFAULT_ZERO_TOL) -> int:
    """Numerical rank via singular values relative to the largest."""
    s = np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def real_combination(
    vals: np.ndarray, scale: float, rng: np.random.Generator, retries: int
) -> tuple[np.ndarray | None, list[list[float]]]:
    """Random real weights t whose combination ``vals @ t`` avoids zero at every row.

    ``vals[i, j]`` is candidate j at node i and ``scale`` the largest
    coefficient among the candidates.  A single candidate is tried with t = 1
    first.  Returns (t, moduli of the rejected trials); t is None when all
    ``retries`` trials came within ``1e-8 * scale * |t|`` of zero somewhere.
    """
    M = vals.shape[1]
    rejected = []
    for trial in range(retries):
        t = np.ones(M) if (trial == 0 and M == 1) else rng.uniform(-1.0, 1.0, size=M)
        node_vals = vals @ t
        if np.min(np.abs(node_vals)) > 1e-8 * scale * float(np.linalg.norm(t)):
            return t, rejected
        rejected.append(np.abs(node_vals).tolist())
    return None, rejected
