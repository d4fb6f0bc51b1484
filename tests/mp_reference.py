"""60-digit reference inertia of the disk Pick matrix (test dependency mpmath).

Shared by ``tests/test_linalg.py`` and ``scripts/stress_ensemble.py``; it
depends on the problem data alone, not on ``takagi``.
"""

import mpmath
import numpy as np


def inertia_60_digits(nodes, values) -> tuple[int, int, int]:
    """Inertia of the Pick matrix formed and diagonalised at 60 digits.

    An eigenvalue counts as zero below 1e-40 of max(1, max|lam|), far under
    any float64 rounding of the inputs' exact matrix.
    """
    with mpmath.workdps(60):
        lam = [mpmath.mpc(z) for z in nodes]
        w = [mpmath.mpc(v) for v in values]
        n = len(lam)
        G = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                G[i, j] = (1 - w[i] * mpmath.conj(w[j])) / (1 - lam[i] * mpmath.conj(lam[j]))
        evals = np.array([float(e) for e in mpmath.eighe(G, eigvals_only=True)])
    cutoff = 1e-40 * max(1.0, float(np.max(np.abs(evals))))
    pos, neg = int(np.sum(evals > cutoff)), int(np.sum(evals < -cutoff))
    return pos, neg, n - pos - neg
