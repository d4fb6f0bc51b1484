"""Transfer-function realizations with k state blocks, and the lurking-isometry colligation.

A colligation V1 = [[A, B], [C, D]] whose state space splits into k blocks
has the transfer function

    phi(lam) = A + B E_lam (I - D E_lam)^-1 C,

where E_lam scales block r by the coordinate lam[r].  On the disk k = 1 and
this is A + lam B (I - lam D)^-1 C; on the bidisk k = 2.  Both solvers build
V1 the same way (``lurking_colligation``), from one Gram split (u^r, v^r)
per state block: the lurking isometry (1, E_lam_i x_i) -> (w_i, x_i), whose
two sides have equal J-Grams by the interpolation identity, extended to a
J-unitary matrix.  The state layout (x_i, J1 and the block sizes) is built
there alone; callers pass only the splits.  The evaluators
``state_vector``, ``eval_realization`` and ``kernel_forms`` serve any k.

The numerator/denominator polynomials, den = det(I - D E_lam) and den * phi,
come from samples on the unit circle (k = 1) or torus (k = 2) and a forward
DFT (``realization_to_rational``, through ``linalg.transfer_coefficients``);
the disk and the bidisk both extract there.  Both samples are determinants
(den * phi is a bordered one), so a root of den on the circle or torus costs
nothing.  The one-variable Faddeev-LeVerrier recurrence
(``faddeev_leverrier``) gives the same polynomials exactly in arithmetic but
loses accuracy for widely spread eigenvalues of D; it is kept as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .krein import SignatureMatrix, extend_j_isometry, j_unitarity_defect
from .linalg import resolvent_stack, transfer_coefficients
from .polynomials import Poly


class ResolventSingularity(ArithmeticError):
    def __init__(self, lam):
        self.lam = lam
        super().__init__(f"I - D E_lam is singular at lam = {lam}")


@dataclass(frozen=True)
class Realization:
    """Block data of a J-unitary colligation V1 = [[A, B], [C, D]].

    A is a scalar, B a row, C a column, D a kappa x kappa matrix; J1 is the
    signature of the state space, so diag(1, J1) is preserved by V1.  The state
    space splits into blocks of the sizes in ``blocks``, block r scaled by the
    coordinate lam[r]; without ``blocks`` it is one block of size kappa.
    """

    A: complex
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    J1: SignatureMatrix
    blocks: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "B", np.asarray(self.B, dtype=complex).reshape(-1))
        object.__setattr__(self, "C", np.asarray(self.C, dtype=complex).reshape(-1))
        object.__setattr__(self, "D", np.asarray(self.D, dtype=complex))
        blocks = (self.B.size,) if self.blocks is None else tuple(int(k) for k in self.blocks)
        if sum(blocks) != self.B.size:
            raise ValueError("block sizes do not sum to the state dimension")
        object.__setattr__(self, "blocks", blocks)

    @property
    def kappa(self) -> int:
        return self.B.size

    def colligation(self) -> np.ndarray:
        V = np.zeros((self.kappa + 1, self.kappa + 1), dtype=complex)
        V[0, 0] = self.A
        V[0, 1:] = self.B
        V[1:, 0] = self.C
        V[1:, 1:] = self.D
        return V

    def full_signature(self) -> SignatureMatrix:
        return SignatureMatrix(np.concatenate([[1.0], self.J1.signs]))

    def defect(self) -> float:
        return j_unitarity_defect(self.full_signature(), self.colligation())

    @staticmethod
    def from_colligation(
        V: np.ndarray, J1: SignatureMatrix, blocks: tuple[int, ...] | None = None
    ) -> "Realization":
        return Realization(A=complex(V[0, 0]), B=V[0, 1:], C=V[1:, 0], D=V[1:, 1:], J1=J1,
                           blocks=blocks)


def lurking_colligation(
    nodes: np.ndarray, values: np.ndarray, splits: Sequence[tuple[np.ndarray, np.ndarray]]
) -> Realization:
    """J-unitary extension of the lurking isometry (1, E_lam_i x_i) -> (w_i, x_i).

    ``nodes`` is N x k, row i holding the k coordinates of node i.  ``splits``
    holds one Gram split (u^r, v^r) per state block, each with one row per
    node.  Block r of the state vector x_i is row i of u^r over row i of v^r,
    with signature +1 on u^r's columns and -1 on v^r's, and E_lam scales it
    by lam^r.  The two sides have equal J-Grams exactly when
    sum_r (1 - lam_i^r conj(lam_j^r)) (u^r u^r* - v^r v^r*)_ij equals
    1 - w_i conj(w_j); ``krein.extend_j_isometry`` then extends the map.
    """
    X = np.vstack([w.T for u, v in splits for w in (u, v)])
    J1 = SignatureMatrix.blocks(*[(w.shape[1], s) for u, v in splits for w, s in ((u, 1), (v, -1))])
    blocks = tuple(u.shape[1] + v.shape[1] for u, v in splits)
    # Nodes on the left of the product, as in linalg.resolvent_stack: its last
    # bit moves the degrees of some solutions for a singular Pick matrix.
    E = np.repeat(np.asarray(nodes).T, blocks, axis=0)
    domain = np.vstack([np.ones((1, values.size)), E * X])
    range_ = np.vstack([values[None, :], X])
    J = SignatureMatrix(np.concatenate([[1.0], J1.signs]))
    V1 = extend_j_isometry(J, domain, range_)
    return Realization.from_colligation(V1, J1, blocks)


def _point(r: Realization, lam) -> np.ndarray:
    """lam as one coordinate per block (a scalar is accepted for one block)."""
    z = np.atleast_1d(np.asarray(lam, dtype=complex))
    if z.shape != (len(r.blocks),):
        raise ValueError(f"expected {len(r.blocks)} coordinates, got {z.size}")
    return z


def state_vector(r: Realization, lam) -> np.ndarray:
    """x(lam) = (I - D E_lam)^-1 C; raises ResolventSingularity near a singular I - D E_lam."""
    z = _point(r, lam)
    if r.kappa == 0:
        return np.zeros(0, dtype=complex)
    M = resolvent_stack(r.D, r.blocks, z[None, :])[0]
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] <= 1e-12 * max(s[0], 1.0):
        raise ResolventSingularity(lam)
    return np.linalg.solve(M, r.C)


def eval_realization(r: Realization, lam) -> complex:
    """phi(lam) = A + B E_lam x(lam) via a linear solve."""
    x = state_vector(r, lam)
    return complex(r.A + np.repeat(_point(r, lam), r.blocks) * r.B @ x)


def faddeev_leverrier(D: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Coefficients of det(I - lam D) and matrices of adj(I - lam D).

    Returns (p, [M_0, ..., M_{k-1}]) with ``det(I - lam D) = sum p_m lam**m``
    and ``adj(I - lam D) = sum lam**m M_m``.
    """
    k = D.shape[0]
    # charpoly det(mu I - D) = sum a_j mu**j, a_k = 1, built by the recurrence
    a = np.zeros(k + 1, dtype=complex)
    a[k] = 1.0
    Ms = []
    M = np.eye(k, dtype=complex)
    for step in range(1, k + 1):
        Ms.append(M)
        DM = D @ M
        a[k - step] = -np.trace(DM) / step
        M = DM + a[k - step] * np.eye(k, dtype=complex)
    p = a[::-1].copy()  # det(I - lam D) coefficient of lam**m is a_{k-m}
    return p, Ms


def _rational_by_sampling(r: Realization) -> tuple[Poly, Poly]:
    """num/den coefficients from determinants on the unit circle or torus, via the forward DFT."""
    num, den = transfer_coefficients(r.A, r.B, r.C, r.D, r.blocks)
    return Poly(num), Poly(den)


def realization_to_rational(r: Realization) -> tuple[Poly, Poly]:
    """Exact (numerator, denominator) of phi with den = det(I - D E_lam), for any k.

    Both are polynomials of degree at most ``blocks[r]`` in lam[r], recovered
    from samples of den and den * phi on the grid of ``linalg.sample_grid``
    (``_rational_by_sampling``).  The disk and the bidisk both extract here,
    and nothing re-checks the result against the realization: the
    certificate judges the answer built from it.
    """
    if r.kappa == 0:
        k = len(r.blocks)
        return Poly(np.full((1,) * k, r.A)), Poly.one(k)
    return _rational_by_sampling(r)


def kernel_forms(r: Realization, lam, mu) -> np.ndarray:
    """Per-block forms G^r = <J1 x^r(lam), x^r(mu)>, with x^r block r of the state.

    When the colligation is J-unitary they split the kernel of phi:
    1 - phi(lam) conj(phi(mu)) = sum_r (1 - lam[r] conj(mu[r])) G^r.  With one
    block, G is (1 - phi(lam) conj(phi(mu))) / (1 - lam conj(mu)).
    """
    terms = state_vector(r, mu).conj() * (r.J1.signs * state_vector(r, lam))
    bounds = np.cumsum((0, *r.blocks))
    return np.array([terms[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])])
