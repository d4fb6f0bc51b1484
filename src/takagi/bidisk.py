"""Unimodular rational interpolation on the bidisk.

Input data come with a two-term decomposition of the interpolation identity:
Hermitian matrices (Gamma1, Gamma2) satisfying

    1 - w_i conj(w_j) = sum_r (1 - lam_i^r conj(lam_j^r)) Gamma^r_ij.

``regularize_pair`` gives the Gram split of each term (two
``pick.GramDecomposition``s, whose inertias the solve keeps), and the disk's
lurking-isometry construction (``realization.lurking_colligation``, here
with one state block per term) assembles from them a J-unitary colligation
whose transfer function in two variables,
phi(lam) = A + B E_lam (I - D E_lam)^{-1} C with E_lam block-scalar,
is unimodular on the torus off a finite set and interpolates the data.  Its
numerator and denominator are determinants sampled on the unit torus, by the
disk's extraction with two state blocks
(``realization.realization_to_rational``, which ``to_birational`` wraps);
nothing checks them against the realization, since the certificate judges
the answer.  ``solve_bidisk`` returns reflect(den, d)/den through the disk's
strict tail (``disk.strict_tail``: den projected onto the weak identity, then
strict at every node required), which alone judges it.  When it breaks down,
per-node Moebius re-centering in both coordinates plus a real combination
upgrades weak interpolation to strict, as on the disk: each shift hands on
its denominator and bidegree only, and ``combine_bidisk`` takes the pair's
inertias, which the transported pairs keep.  The pair is used as
given: a singular term makes the lurking isometry's domain vectors
dependent, which ``krein.extend_j_isometry`` handles as on the disk.  The
polynomials are two-variable ``polynomials.Poly``s and the quotients
``polynomials.Rational``s.  Only the per-node solve (``_shifted_denominator``)
is the bidisk's own; the extraction, the per-node colligation
(``disk.centered_pair``), the reflective-pair rule, the pull-back, the vacuous
node factors, the loop over the shifts, the real combination, the strict tail
and the torus scan are the disk's (``disk.solve_shifts`` and its neighbours,
``polynomials.moebius_pullback``, ``polynomials.boundary_values``).  Every
bidisk error is a ``disk.SolveError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .disk import (
    BREAKDOWNS,
    ShiftedFamily,
    SolveError,
    best_reflective_pair,
    centered_pair,
    combine_shifts,
    enforce_weak_interpolation,
    solve_shifts,
    strict_tail,
)
from .linalg import Inertia, check_finite, check_hermitian, hermitize
from .pick import DiskProblem, GramDecomposition, check_distinct_nodes, gram_decompose, pick_matrix
from .polynomials import (
    MoebiusMap,
    Poly,
    Rational,
    boundary_values,
    find_roots,
    moebius_matrix,
    moebius_pullback,
    pad_coeffs,
    reduce_common_roots,
)
from .realization import Realization, lurking_colligation, realization_to_rational
from .verify import TORAL_NUMERATOR, certify_bidisk, near_pole

PAIR_RESIDUAL_TOL = 1e-9


class BidiskError(SolveError):
    pass


class PairValidationError(BidiskError):
    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"decomposition identity residual {residual:.3e} beyond tolerance")


class RestrictionBreakdown(BidiskError):
    """Restricted denominator identically zero (theoretically excluded)."""


# ---------------------------------------------------------------------------
# Problems and decomposition pairs


@dataclass(frozen=True)
class BidiskProblem:
    """Interpolation data on the bidisk: distinct node pairs, arbitrary values."""

    nodes: np.ndarray  # N x 2 complex
    values: np.ndarray  # N complex

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=complex)
        if nodes.ndim == 1:
            nodes = nodes.reshape(1, -1)
        values = np.atleast_1d(np.asarray(self.values, dtype=complex))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must be an N x 2 array of bidisk points")
        if nodes.shape[0] == 0:
            raise ValueError("need at least one node")
        if nodes.shape[0] != values.size:
            raise ValueError("nodes and values must have equal length")
        check_finite("nodes and values", nodes, values)
        if np.any(np.abs(nodes) >= 1.0):
            raise ValueError("both coordinates of every node must lie strictly inside the disk")
        check_distinct_nodes(nodes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class AglerPair:
    """Hermitian pair splitting 1 - w_i conj(w_j) across the two coordinates."""

    gamma1: np.ndarray
    gamma2: np.ndarray

    def __post_init__(self):
        g1 = np.asarray(self.gamma1, dtype=complex)
        g2 = np.asarray(self.gamma2, dtype=complex)
        check_finite("gamma1 and gamma2", g1, g2)
        check_hermitian(g1)
        check_hermitian(g2)
        if g1.shape != g2.shape:
            raise ValueError("the two matrices must have equal shape")
        object.__setattr__(self, "gamma1", hermitize(g1))
        object.__setattr__(self, "gamma2", hermitize(g2))

    @property
    def size(self) -> int:
        return self.gamma1.shape[0]

    def gammas(self) -> tuple[np.ndarray, np.ndarray]:
        return self.gamma1, self.gamma2


def one_variable_pair(problem: BidiskProblem, variable: int = 0) -> AglerPair:
    """Embedding of the one-variable identity: all weight on one coordinate."""
    disk = DiskProblem(nodes=problem.nodes[:, variable], values=problem.values)
    G = pick_matrix(disk)
    Z = np.zeros_like(G)
    return AglerPair(gamma1=G, gamma2=Z) if variable == 0 else AglerPair(gamma1=Z, gamma2=G)


def pair_residual(problem: BidiskProblem, pair: AglerPair) -> float:
    """Frobenius residual of the two-term decomposition identity."""
    lam = problem.nodes
    w = problem.values
    lhs = 1.0 - np.outer(w, w.conj())
    rhs = np.zeros_like(lhs)
    for r, G in enumerate(pair.gammas()):
        rhs = rhs + (1.0 - np.outer(lam[:, r], lam[:, r].conj())) * G
    return float(np.linalg.norm(lhs - rhs))


def validate_pair(problem: BidiskProblem, pair: AglerPair) -> float:
    """Residual of the decomposition identity; PairValidationError beyond PAIR_RESIDUAL_TOL."""
    if pair.size != problem.size:
        raise ValueError("pair dimension does not match the problem size")
    residual = pair_residual(problem, pair)
    if residual > PAIR_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(problem.values))) ** 2):
        raise PairValidationError(residual)
    return residual


def regularize_pair(pair: AglerPair) -> tuple[GramDecomposition, GramDecomposition]:
    """Gram split of each term of the pair (``pick.gram_decompose``).

    The split alone feeds the realization: when the Gram data are singular,
    ``krein.extend_j_isometry`` extends on a maximal independent subset of
    the dependent domain vectors.  The name is the historical one of this
    pipeline stage and its benchmark span; ROADMAP item 7 renames both.
    """
    return gram_decompose(pair.gamma1), gram_decompose(pair.gamma2)


# ---------------------------------------------------------------------------
# Realization


def build_bidisk_realization(
    problem: BidiskProblem, pair: AglerPair, grams: tuple[GramDecomposition, GramDecomposition]
) -> Realization:
    """The lurking-isometry colligation of the pair, with two state blocks.

    ``grams`` are the terms' Gram splits as ``regularize_pair`` returns them;
    block r holds term r's split (u^r, v^r) and E_lam scales it by the
    coordinate lam^r (``realization.lurking_colligation``).
    """
    return lurking_colligation(problem.nodes, problem.values, [(g.u, g.v) for g in grams])


# ---------------------------------------------------------------------------
# Polynomial extraction


def to_birational(r: Realization) -> Rational:
    """``realization.realization_to_rational`` of the two-block realization, as a ``Rational``.

    Numerator and denominator det(I - D E_lam) come from determinants on the
    unit torus and a 2-D DFT, the disk's extraction with two state blocks.
    """
    return Rational(*realization_to_rational(r))


# ---------------------------------------------------------------------------
# Toral and balanced-disk certificates


@dataclass(frozen=True)
class ToralReport:
    common_near_zero_cells: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def toral_check(br: Rational, grid: int = 256) -> ToralReport:
    """Torus scan: where den nearly vanishes, so must num (grid reference of ``certify_bidisk``)."""
    qv = boundary_values(br.denominator, grid)
    pv = np.abs(boundary_values(br.numerator, grid))
    q_small = near_pole(qv)
    p_large = pv > TORAL_NUMERATOR * max(float(pv.max()), 1e-300)
    return ToralReport(common_near_zero_cells=int(np.sum(q_small & near_pole(pv))),
                       violations=int(np.sum(q_small & p_large)))


def restrict_balanced(br: Rational, maps: list[MoebiusMap]) -> list[tuple[Poly, Poly]]:
    """One-variable numerator/denominator of z -> phi(z, m(z)), reduced, for each map m.

    Clears the Moebius denominator at the common second-variable degree, which
    cancels in the ratio, then divides out near-common roots.  The
    compositions for all the maps are one stacked product per polynomial, and
    the roots of every restricted numerator and denominator come from one
    ``polynomials.find_roots`` call.  The reduction stays: a root the pair
    shares is no zero or pole of the restriction, but left in, one inside the
    disk would count once as a zero and once as a pole and could break the pi
    and nu bounds of ``verify.certify_bidisk``.  When no root pairs, the
    reduction costs one distance matrix per tolerance.
    """
    d2 = max(br.numerator.degrees[1], br.denominator.degrees[1], 0)
    M2s = np.stack([moebius_matrix(m.a, d2) for m in maps])

    def compose(p: Poly) -> list[Poly]:
        # Row k1 of map i's C @ M2.T holds the cleared composition of z1**k1's
        # slice; after z1 = z, coefficient n of the result sums the antidiagonal
        # k1 + j = n, k1 ascending.
        B = pad_coeffs(p.coeffs, (p.coeffs.shape[0] - 1, d2)) @ M2s.transpose(0, 2, 1)
        out = np.zeros((len(maps), B.shape[1] + d2), dtype=complex)
        for k1 in range(B.shape[1]):
            out[:, k1:k1 + d2 + 1] += B[:, k1]
        return [Poly(c) for c in out]

    pairs = list(zip(compose(br.numerator), compose(br.denominator)))
    floor = 1e-12 * max(br.denominator.norm(), 1.0)
    if any(den.is_zero or den.norm() <= floor for _, den in pairs):
        raise RestrictionBreakdown("restricted denominator is numerically zero")
    find_roots([p for pair in pairs for p in pair if p.degree > 0])
    return [(num, den) if num.is_zero else reduce_common_roots(num, den) for num, den in pairs]


# ---------------------------------------------------------------------------
# Strict solve: per-node re-centering and real combination


def _transport_pair(problem: BidiskProblem, pair: AglerPair, j: int) -> tuple[BidiskProblem, AglerPair, tuple[MoebiusMap, MoebiusMap]]:
    """Moebius-shift both coordinates so node j sits at the origin.

    The identity transports by a diagonal congruence per term, so the shifted
    pair satisfies the decomposition identity for the shifted nodes exactly and
    keeps each term's inertia.
    """
    maps = (MoebiusMap(complex(problem.nodes[j, 0])), MoebiusMap(complex(problem.nodes[j, 1])))
    new_nodes = np.column_stack([maps[0](problem.nodes[:, 0]), maps[1](problem.nodes[:, 1])])
    shifted_problem = BidiskProblem(nodes=new_nodes, values=problem.values)

    def congruence(r: int, G: np.ndarray) -> np.ndarray:
        a = maps[r].a
        d = 1.0 - np.conj(a) * problem.nodes[:, r]
        return hermitize(np.outer(d, d.conj()) * G / (1.0 - abs(a) ** 2))

    g1, g2 = (congruence(r, G) for r, G in enumerate(pair.gammas()))
    return shifted_problem, AglerPair(gamma1=g1, gamma2=g2), maps


class BidiskSolveError(BidiskError):
    pass


def _shifted_denominator(
    problem: BidiskProblem, pair: AglerPair, j: int
) -> tuple[Poly, tuple[int, int]]:
    """Centered solve at node j pulled back to the original coordinates.

    Returns (denominator, bidegree), the per-node solve of ``disk.solve_shifts``.
    """
    shifted, shifted_pair, maps = _transport_pair(problem, pair, j)
    grams = regularize_pair(shifted_pair)
    den, d = centered_pair(shifted.nodes, shifted.values, [(g.u, g.v) for g in grams])
    den = moebius_pullback(den, [m.a for m in maps], d)
    den, d, statuses = enforce_weak_interpolation(den, d, problem)
    if statuses[j] != "strict":
        raise BidiskSolveError(f"lost strict interpolation at the re-centered node {j}")
    return den, d


def solve_bidisk_shifts(problem: BidiskProblem, pair: AglerPair) -> ShiftedFamily:
    """One re-centered solve per node (``disk.solve_shifts``), padded to a common bidegree."""
    return solve_shifts(problem, lambda j: _shifted_denominator(problem, pair, j))


@dataclass(frozen=True)
class BidiskSolution(Rational):
    """Strict interpolant numerator/denominator with the data its certificate reads."""

    bidegree: tuple[int, int]
    inertias: tuple[Inertia, Inertia]
    node_status: list[str]
    certificates: dict = field(default_factory=dict)


def _strict_bidisk(den: Poly, d: tuple[int, int], problem: BidiskProblem, stage: str,
                   inertias: tuple[Inertia, Inertia]) -> BidiskSolution:
    """``disk.strict_tail``'s num/den with the data the bidisk certificate reads."""
    num, den, statuses = strict_tail(den, d, problem, stage)
    return BidiskSolution(numerator=num, denominator=den, bidegree=d, inertias=inertias,
                          node_status=statuses)


def combine_bidisk(
    family: ShiftedFamily,
    problem: BidiskProblem,
    inertias: tuple[Inertia, Inertia],
    rng: np.random.Generator,
) -> BidiskSolution:
    """Real combination of the shifted denominators (``disk.combine_shifts``), strict at every node.

    ``inertias`` are the pair's terms' (``regularize_pair``), which every
    transported pair keeps (``_transport_pair``).
    """
    q = combine_shifts(family, problem, rng)
    return _strict_bidisk(q, family.refl_degree, problem, "combination", inertias)


def solve_bidisk(
    problem: BidiskProblem,
    pair: AglerPair | None = None,
    seed: int = 0,
    certify: bool = True,
) -> BidiskSolution:
    """Full pipeline: the pair's Gram split, the single solve, certification.

    The single solve takes the pair's uncentered realization as reflect(den, d)/den,
    with ``regularize_pair``'s inertias, judged by the strict tail alone; only
    when it breaks down (in the extension's construction, the extraction or
    the strict tail) do the re-centered solves answer (``solve_bidisk_shifts``,
    ``combine_bidisk``); when they break down too, their error is raised with
    the single solve's as its ``__cause__``.
    With no pair, the one-variable embedding with all weight on the first
    coordinate is used.  PairValidationError, before any solve, when the pair
    misses the decomposition identity.
    """
    if pair is None:
        pair = one_variable_pair(problem, 0)
    validate_pair(problem, pair)
    grams = regularize_pair(pair)
    inertias = (grams[0].inertia, grams[1].inertia)
    try:
        br = to_birational(build_bidisk_realization(problem, pair, grams))
        den, d = best_reflective_pair(br.numerator, br.denominator)
        solution = _strict_bidisk(den, d, problem, "single solve", inertias)
    except BREAKDOWNS as single_error:
        try:
            family = solve_bidisk_shifts(problem, pair)
            solution = combine_bidisk(family, problem, inertias, np.random.default_rng(seed))
        except BREAKDOWNS as shift_error:
            raise shift_error from single_error
    if certify:
        solution.certificates.update(certify_bidisk(solution, problem))
    return solution
