"""Transfer-function realizations phi(lam) = A + lam B (I - lam D)^-1 C.

The numerator/denominator polynomials, den = det(I - lam D) and den * phi,
come from samples on a circle and a forward DFT (``realization_to_rational``),
through the batched kernel ``linalg.transfer_coefficients`` that the bidisk
extraction shares.  The Faddeev-LeVerrier recurrence (``faddeev_leverrier``)
gives the same polynomials exactly in arithmetic but loses accuracy for widely
spread eigenvalues of D; it is kept as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .krein import SignatureMatrix, j_unitarity_defect
from .linalg import transfer_coefficients
from .polynomials import Poly


class ResolventSingularity(ArithmeticError):
    def __init__(self, lam):
        self.lam = lam
        super().__init__(f"I - lam D is singular at lam = {lam}")


@dataclass(frozen=True)
class Realization:
    """Block data of a J-unitary colligation V1 = [[A, B], [C, D]].

    A is a scalar, B a row, C a column, D a kappa x kappa matrix; J1 is the
    signature of the state space, so diag(1, J1) is preserved by V1.
    """

    A: complex
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    J1: SignatureMatrix

    def __post_init__(self):
        object.__setattr__(self, "B", np.asarray(self.B, dtype=complex).reshape(-1))
        object.__setattr__(self, "C", np.asarray(self.C, dtype=complex).reshape(-1))
        object.__setattr__(self, "D", np.asarray(self.D, dtype=complex))

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
    def from_colligation(V: np.ndarray, J1: SignatureMatrix) -> "Realization":
        return Realization(A=complex(V[0, 0]), B=V[0, 1:], C=V[1:, 0], D=V[1:, 1:], J1=J1)


def eval_realization(r: Realization, lam: complex, rtol: float = 1e-12) -> complex:
    """phi(lam) via a linear solve; raises ResolventSingularity near sigma(D)^-1."""
    if r.kappa == 0:
        return complex(r.A)
    M = np.eye(r.kappa, dtype=complex) - lam * r.D
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] <= rtol * max(s[0], 1.0):
        raise ResolventSingularity(lam)
    return complex(r.A + lam * (r.B @ np.linalg.solve(M, r.C)))


def state_vector(r: Realization, lam: complex) -> np.ndarray:
    """x(lam) = (I - lam D)^-1 C."""
    if r.kappa == 0:
        return np.zeros(0, dtype=complex)
    M = np.eye(r.kappa, dtype=complex) - lam * r.D
    try:
        return np.linalg.solve(M, r.C)
    except np.linalg.LinAlgError as exc:
        raise ResolventSingularity(lam) from exc


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


def _sampling_radius(r: Realization) -> float:
    """Circle radius staying clear of the moduli of the denominator roots."""
    eigs = np.linalg.eigvals(r.D)
    moduli = np.array([1.0 / abs(d) for d in eigs if abs(d) > 1e-300])
    candidates = [1.0, 0.9, 1.1, 0.8, 1.25, 0.7, 1.45, 0.55, 1.7, 0.45, 2.0, 0.35, 2.5]
    for rad in candidates:
        if moduli.size == 0 or np.min(np.abs(moduli - rad)) > 0.03:
            return rad
    gaps = [float(np.min(np.abs(moduli - rad))) for rad in candidates]
    return candidates[int(np.argmax(gaps))]


def _rational_by_sampling(r: Realization) -> tuple[Poly, Poly]:
    """num/den coefficients from values on a circle, via the forward DFT.

    The samples come from ``linalg.transfer_coefficients``, the batched kernel
    shared with the bidisk extraction; the circle avoids the roots of the
    denominator (``_sampling_radius``).
    """
    num, den = transfer_coefficients(r.A, r.B, r.C, r.D, (r.kappa,), (_sampling_radius(r),))
    return Poly(num), Poly(den)


def realization_to_rational(r: Realization) -> tuple[Poly, Poly]:
    """Exact (numerator, denominator) of phi with den = det(I - lam D).

    Both are polynomials of degree at most kappa, recovered from kappa + 1
    samples of den and den * phi on a circle (``_rational_by_sampling``).
    """
    if r.kappa == 0:
        return Poly(np.array([r.A])), Poly.one()
    return _rational_by_sampling(r)


def kernel_gamma(r: Realization, lam: complex, mu: complex) -> complex:
    """Value of (1 - phi(lam) conj(phi(mu))) / (1 - lam conj(mu)) from the state space.

    Computed as <J1 x(lam), x(mu)> with x = (I - lam D)^-1 C; agreement with
    the direct quotient is a certificate of J-unitarity of the colligation.
    """
    xl = state_vector(r, lam)
    xm = state_vector(r, mu)
    return complex(xm.conj() @ (r.J1.signs * xl))
