"""Indefinite inner products: signature matrices and J-isometry extension.

A partially defined map sending domain vectors to range vectors with equal
J-Grams extends to a full J-unitary matrix.  The extension here is one
construction: split off the radical of the common Gram, adjoin hyperbolic
partners to both sides, match J-orthonormalized bases of the two
J-orthogonal complements sign by sign, polish both bases onto their shared
Gram S and take V1 = Br S^-1 Bd* J.  The radical, and a degenerate
complement, are decided by the one zero rule ``linalg.zero_cutoff``.

Dependent domain vectors, which a singular Gram gives on the disk and on the
bidisk alike, are handled here once: the extension runs on a maximal
independent subset (``_independent_columns``), and the dropped columns must
then follow, V1 d_i = r_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitize, zero_cutoff

GRAM_MISMATCH_TOL = 1e-9  # relative, per prescribed vector


class ExtensionError(RuntimeError):
    pass


class GramMismatchError(ExtensionError):
    def __init__(self, mismatch: float):
        self.mismatch = mismatch
        super().__init__(f"domain/range J-Grams disagree (norm {mismatch:.3e})")


@dataclass(frozen=True)
class SignatureMatrix:
    """Diagonal matrix of +-1 defining the indefinite inner product <Jx, y>."""

    signs: np.ndarray

    def __post_init__(self):
        signs = np.atleast_1d(np.asarray(self.signs, dtype=float))
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("signature entries must be +-1")
        object.__setattr__(self, "signs", signs)
        self.signs.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.signs.size

    @property
    def n_positive(self) -> int:
        return int(np.sum(self.signs > 0))

    @property
    def n_negative(self) -> int:
        return int(np.sum(self.signs < 0))

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.signs[:, None] * X if X.ndim == 2 else self.signs * X

    @staticmethod
    def blocks(*counts_and_signs: tuple[int, int]) -> "SignatureMatrix":
        parts = [np.full(n, float(s)) for n, s in counts_and_signs]
        return SignatureMatrix(np.concatenate(parts) if parts else np.zeros(0))


def j_gram(J: SignatureMatrix, vectors: np.ndarray) -> np.ndarray:
    """Matrix of pairings G[i, j] = <J v_j, v_i> for the columns of ``vectors``."""
    if vectors.shape[0] != J.dimension:
        raise ValueError("vector dimension does not match signature dimension")
    return vectors.conj().T @ J.apply(vectors)


def _hyperbolic_partner(span: np.ndarray, idx: int, signs: np.ndarray) -> np.ndarray:
    """Vector J-orthogonal to every column of span except unit pairing with column idx,
    corrected to be J-isotropic itself."""
    A = span.conj().T * signs[None, :]
    t = np.zeros(A.shape[0], dtype=complex)
    t[idx] = 1.0
    w0, res, *_ = np.linalg.lstsq(A, t, rcond=None)
    if np.linalg.norm(A @ w0 - t) > 1e-7 * max(1.0, np.linalg.norm(t)):
        raise ExtensionError("cannot adjoin hyperbolic partner (inconsistent system)")
    alpha = np.real(np.vdot(w0, signs * w0))
    return w0 - 0.5 * alpha * span[:, idx]


def _j_orthonormal_complement(span: np.ndarray, signs: np.ndarray):
    """J-orthonormal basis of the J-orthogonal complement of the span.

    Returns (basis columns, their +-1 J-norms sorted positives first, each
    group by descending Gram eigenvalue magnitude).
    """
    n = span.shape[0]
    A = span.conj().T * signs[None, :]
    if span.shape[1] == 0:
        Q = np.eye(n, dtype=complex)
    else:
        _, s, Vh = np.linalg.svd(A)
        rank = int(np.sum(s > max(s[0], 1.0) * 1e-13)) if s.size else 0
        Q = Vh[rank:].conj().T
    if Q.shape[1] == 0:
        return Q, np.zeros(0)
    Gc = hermitize(Q.conj().T @ (signs[:, None] * Q))
    evals, evecs = np.linalg.eigh(Gc)
    if np.min(np.abs(evals)) <= zero_cutoff(evals):
        raise ExtensionError("complement J-Gram is degenerate")
    order = sorted(range(evals.size), key=lambda k: (0 if evals[k] > 0 else 1, -abs(evals[k])))
    basis = (Q @ evecs[:, order]) / np.sqrt(np.abs(evals[order]))[None, :]
    return basis, np.sign(evals[order])


def _independent_columns(D: np.ndarray) -> list[int]:
    """Greedy maximal independent subset: in column order, keep a column whose
    residual against the kept ones exceeds 1e-9 of max(1, its norm)."""
    keep: list[int] = []
    basis = np.zeros((D.shape[0], 0), dtype=complex)
    for j in range(D.shape[1]):
        col = D[:, j]
        resid = col - basis @ (basis.conj().T @ col)
        if np.linalg.norm(resid) > 1e-9 * max(1.0, np.linalg.norm(col)):
            keep.append(j)
            basis = np.hstack([basis, (resid / np.linalg.norm(resid))[:, None]])
    return keep


def extend_j_isometry(J: SignatureMatrix, D: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Extend the prescribed action D[:, i] -> R[:, i] to an n x n J-unitary matrix V1.

    ValueError unless D and R are both n x N with n = J.dimension.  Raises
    GramMismatchError when the J-Grams of domain and range disagree
    beyond ``GRAM_MISMATCH_TOL`` (relative).  Dependent domain columns are
    extended on ``_independent_columns`` alone; ExtensionError when the
    dropped columns' images then miss their prescribed values beyond
    1e-8 * N * max(1, ||R||), or when the geometry degenerates.
    """
    D = np.asarray(D, dtype=complex)
    R = np.asarray(R, dtype=complex)
    if D.shape != R.shape or D.shape[0] != J.dimension:
        raise ValueError("domain/range shape mismatch")
    n, N = D.shape
    if N == 0:
        return np.eye(n, dtype=complex)
    Gd = j_gram(J, D)
    Gr = j_gram(J, R)
    mismatch = float(np.linalg.norm(Gd - Gr))
    if mismatch > GRAM_MISMATCH_TOL * max(1.0, float(np.linalg.norm(Gd))) * N:
        raise GramMismatchError(mismatch)
    if np.linalg.matrix_rank(D, tol=1e-10 * max(1.0, np.linalg.norm(D))) == N:
        return _extend_independent(J, D, R, Gd, Gr)
    keep = _independent_columns(D)
    Dk, Rk = D[:, keep], R[:, keep]
    V1 = _extend_independent(J, Dk, Rk, j_gram(J, Dk), j_gram(J, Rk))
    residual = float(np.linalg.norm(V1 @ D - R))
    if residual > 1e-8 * N * max(1.0, float(np.linalg.norm(R))):
        raise ExtensionError(
            f"dependent domain vectors do not map consistently (residual {residual:.3e})"
        )
    return V1


def _extend_independent(
    J: SignatureMatrix, D: np.ndarray, R: np.ndarray, Gd: np.ndarray, Gr: np.ndarray
) -> np.ndarray:
    """The extension for independent domain columns with J-Grams Gd and Gr."""
    signs = J.signs
    n, N = D.shape
    if N == n:
        return np.linalg.solve(D.conj().T, R.conj().T).conj().T
    scale = max(1.0, float(np.linalg.norm(Gd)))
    G = hermitize(0.5 * (Gd + Gr))
    evals, evecs = np.linalg.eigh(G)
    radical = np.abs(evals) <= zero_cutoff(evals)
    # Rotate so radical directions sit in designated columns on both sides,
    # then rescale each column pair by a common factor (which preserves the
    # prescribed map) so the Gram is +-1/0 diagonal and well conditioned.
    Sd = D @ evecs
    Sr = R @ evecs
    col_scale = np.where(
        radical,
        1.0 / np.maximum(np.linalg.norm(Sd, axis=0), 1e-300),
        1.0 / np.sqrt(np.maximum(np.abs(evals), 1e-300)),
    )
    Sd = Sd * col_scale[None, :]
    Sr = Sr * col_scale[None, :]
    rad_idx = list(np.nonzero(radical)[0])
    Fd, Fr = Sd.copy(), Sr.copy()
    for i in rad_idx:
        wd = _hyperbolic_partner(Fd, i, signs)
        wr = _hyperbolic_partner(Fr, i, signs)
        Fd = np.hstack([Fd, wd[:, None]])
        Fr = np.hstack([Fr, wr[:, None]])
    Cd, sd = _j_orthonormal_complement(Fd, signs)
    Cr, sr = _j_orthonormal_complement(Fr, signs)
    if Cd.shape[1] != Cr.shape[1] or not np.array_equal(sd, sr):
        raise ExtensionError("complement signatures do not match")
    Bd = np.hstack([Fd, Cd])
    Br = np.hstack([Fr, Cr])
    if Bd.shape[1] != n:
        raise ExtensionError("extended bases do not span the space")
    # Ideal shared Gram of both bases: +-1/0 prescribed part, hyperbolic
    # pairings for the radical columns, +-1 complement.
    S = np.zeros((n, n), dtype=complex)
    n_pre = Sd.shape[1]
    for i in range(n_pre):
        S[i, i] = 0.0 if radical[i] else np.sign(evals[i])
    for pos, i in enumerate(rad_idx):
        j = n_pre + pos
        S[i, j] = S[j, i] = 1.0
    for k, s in enumerate(sd):
        S[n_pre + len(rad_idx) + k, n_pre + len(rad_idx) + k] = s
    # Polishing each basis onto the exact Gram makes V1 = Br S^-1 Bd* J
    # J-unitary up to the individual basis residuals, with no amplification
    # by the conditioning of the base change.
    Sinv = np.linalg.inv(S)
    Bd = _polish_to_gram(Bd, signs, S, Sinv)
    Br = _polish_to_gram(Br, signs, S, Sinv)
    V1 = Br @ Sinv @ (Bd.conj().T * signs[None, :])
    defect = j_unitarity_defect(J, V1)
    if defect > 1e-8 * n * scale:
        raise ExtensionError(f"extension failed J-unitarity check (defect {defect:.3e})")
    return V1


def _polish_to_gram(
    B: np.ndarray, signs: np.ndarray, S: np.ndarray, Sinv: np.ndarray, iterations: int = 10
) -> np.ndarray:
    """Newton steps toward B* J B = S, kept only while the residual shrinks.

    The accepted candidate's Gram residual is the next step's, so each step
    forms one Gram product.
    """
    best = B
    F = best.conj().T @ (signs[:, None] * best) - S
    best_res = float(np.linalg.norm(F))
    for _ in range(iterations):
        cand = best - 0.5 * best @ (Sinv @ F)
        Fc = cand.conj().T @ (signs[:, None] * cand) - S
        res = float(np.linalg.norm(Fc))
        if res >= best_res:
            break
        best, best_res, F = cand, res, Fc
    return best


def j_unitarity_defect(J: SignatureMatrix, V: np.ndarray) -> float:
    """Frobenius norm of V* J V - J."""
    return float(np.linalg.norm(V.conj().T @ (J.signs[:, None] * V) - np.diag(J.signs)))
