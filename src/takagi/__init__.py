"""Unimodular rational Pick interpolation on the disk and bidisk."""

from .linalg import Inertia, hermitian_inertia
from .pick import DiskProblem, gram_decompose, pick_matrix
from .polynomials import BlaschkeProduct, MoebiusMap, Poly, Rational
from .krein import SignatureMatrix, extend_j_isometry, j_gram
from .realization import (
    Realization,
    eval_realization,
    kernel_forms,
    lurking_colligation,
    realization_to_rational,
)
from .disk import TakagiSolution, combine, solve, solve_all_shifts, solve_centered
from .bidisk import (
    AglerPair,
    BidiskProblem,
    BidiskSolution,
    build_bidisk_realization,
    one_variable_pair,
    regularize_pair,
    restrict_balanced,
    solve_bidisk,
    to_birational,
    toral_check,
    validate_pair,
)

__all__ = [
    "AglerPair",
    "BidiskProblem",
    "BidiskSolution",
    "build_bidisk_realization",
    "one_variable_pair",
    "regularize_pair",
    "restrict_balanced",
    "solve_bidisk",
    "to_birational",
    "toral_check",
    "validate_pair",
    "Inertia",
    "hermitian_inertia",
    "DiskProblem",
    "pick_matrix",
    "gram_decompose",
    "Poly",
    "Rational",
    "MoebiusMap",
    "BlaschkeProduct",
    "SignatureMatrix",
    "j_gram",
    "extend_j_isometry",
    "Realization",
    "eval_realization",
    "realization_to_rational",
    "kernel_forms",
    "lurking_colligation",
    "TakagiSolution",
    "solve",
    "solve_centered",
    "solve_all_shifts",
    "combine",
]
