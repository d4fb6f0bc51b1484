"""Unimodular rational interpolation on the disk with indefinite Pick matrices.

Rank-degree path (``solve_positive``): one colligation from the Gram vectors
alone, of degrees (pi, nu) even for a singular Pick matrix; for a nonsingular
one it is the paper's step 1, the uncentered lurking colligation.  General
path (step 2): a centered solve through a J-unitary colligation (strict at the
origin, weak elsewhere), one Moebius-shifted solve per node and a real
combination of the shifted denominators, strict everywhere.  The shifts carry
denominators only: ``solve_centered`` returns (den, d), a ``ShiftedFamily``
holds the padded denominators and their common declared degree, and
``combine`` takes the Pick matrix's inertia from ``solve``, which every
shifted Pick matrix shares (a congruence).  ``solve`` tries the rank-degree
path first unless the Pick matrix is singular and indefinite; each path is the
other's fallback.  Both end in ``_strict_solution``, the strict tail and a
Blaschke split.  The certificate counts zeros and poles against the Pick
matrix's inertia; it and the strict tail alone judge the rank-degree solve.

The strict tail (``strict_tail``: reflect(den, d)/den, den projected once onto
the weak identity, strict at every node), the shifted-solve stage
(``solve_shifts``, ``combine_shifts``), the per-node colligation
(``centered_pair``), the reflective-pair rule (``best_reflective_pair``) and
the vacuous node factors (``enforce_weak_interpolation``) are written once
here and serve the bidisk as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from .krein import ExtensionError
from .linalg import Inertia, real_combination
from .pick import DiskProblem, GramDecomposition, gram_decompose, pick_matrix
from .polynomials import (
    BlaschkeProduct,
    MoebiusMap,
    NonFiniteCoefficientError,
    Poly,
    Rational,
    find_roots,
    moebius_pullback,
    pad_coeffs,
    pad_to_degree,
    poly_reflect,
    reflective_constant,
    roots_in_disk,
    vacuous_node_factor,
)
from .realization import lurking_colligation, realization_to_rational
from .verify import certify_disk, check_interpolation, declared_degree, node_coordinates

# Random real combinations tried before the combination is declared broken down.
COMBINATION_RETRIES = 64


class SolveError(RuntimeError):
    pass


class CombinationError(SolveError):
    def __init__(self, residuals):
        self.residuals = residuals
        super().__init__("could not find a real combination avoiding all nodes")


# Numerical breakdowns of one solve attempt; each hands the problem on.
BREAKDOWNS = (SolveError, ExtensionError, NonFiniteCoefficientError)


def best_reflective_pair(num: Poly, den: Poly) -> tuple[Poly, int | tuple[int, ...]]:
    """den rotated by the phase of ``reflective_constant``'s c, and d = ``verify.declared_degree``.

    d is an int on one variable.  Nothing is judged here: the answer
    reflect(den, d)/den is built from den alone.
    """
    d = declared_degree(num, den)
    d = d[0] if len(d) == 1 else d
    c, _ = reflective_constant(num, den, d)
    return np.exp(-0.5j * np.angle(c)) * den, d


def centered_pair(nodes, values, splits) -> tuple[Poly, int | tuple[int, ...]]:
    """``best_reflective_pair`` of a per-node solve's ``lurking_colligation``.

    ExtensionError, sparing the extraction, when the colligation's defect
    exceeds 1e-8 (kappa + 1) max(1, ||G||_F), with G = w w* + sum_r (u^r u^r*
    - v^r v^r*) the J-Gram of both sides: the one J-unitarity test.
    """
    real = lurking_colligation(nodes, values, splits)
    defect, bound = real.defect(), 1e-8 * (real.kappa + 1)
    if defect > bound:  # max(1, ||G||_F) >= 1, so G is formed only past the bound at scale 1
        gram = sum((u @ u.conj().T - v @ v.conj().T for u, v in splits),
                   np.outer(values, values.conj()))
        if defect > bound * max(1.0, float(np.linalg.norm(gram))):
            raise ExtensionError(f"colligation failed J-unitarity check (defect {defect:.3e})")
    return best_reflective_pair(*realization_to_rational(real))


def enforce_weak_interpolation(
    den: Poly, d: int | tuple[int, ...], problem
) -> tuple[Poly, int | tuple[int, ...], list[str]]:
    """Adjoin vacuous self-reflective factors at nodes where the weak identity fails.

    The pair is (reflect(den, d), den); a node whose ``node_status`` is
    ``fail`` gets a factor vanishing there, which makes the weak condition
    hold trivially.  On the bidisk (``d`` a bidegree, ``problem`` a
    ``BidiskProblem``) the factor is taken in the first variable.  Returns the
    adjusted (den, d) and per-node status before adjustment.
    """
    statuses = check_interpolation(poly_reflect(den, d), den, problem)
    for lam, status in zip(node_coordinates(problem)[0], statuses):
        if status == "fail":
            den = den * vacuous_node_factor(lam)
    added = 2 * statuses.count("fail")
    return den, (d + added if np.ndim(d) == 0 else (d[0] + added, *d[1:])), statuses


def solve_centered(problem: DiskProblem) -> tuple[Poly, int]:
    """Step-1 solve for a problem whose first node is the origin.

    Returns (den, d): the weak solution reflect(den, d)/den, strict at the origin.
    """
    if abs(problem.nodes[0]) > 1e-14:
        raise ValueError("solve_centered requires the first node at the origin")
    G = pick_matrix(problem)
    dec = gram_decompose(G)
    # The null vectors, scaled by sqrt(max(1, ||G||_2)), pad both sides of the
    # split: (u y)(u y)* - (v y)(v y)* is still G, and the state dimension is
    # N + zeta.  The 2-norm is an SVD, paid only when zeta > 0.
    y = dec.y
    if y.shape[1]:
        y = y * np.sqrt(max(1.0, float(np.linalg.norm(G, 2))))
    den, d = centered_pair(
        problem.nodes[:, None], problem.values, [(np.hstack([dec.u, y]), np.hstack([dec.v, y]))]
    )
    den, d, statuses = enforce_weak_interpolation(den, d, problem)
    if statuses[0] != "strict":
        raise SolveError("lost strict interpolation at the centered node")
    return den, d


@dataclass(frozen=True)
class ShiftedFamily:
    """Per-node shifted denominators, padded to a common declared degree."""

    dens: list[Poly]
    refl_degree: int | tuple[int, ...]


def solve_shifts(problem, shift: Callable[[int], tuple]) -> ShiftedFamily:
    """One re-centered weak solve per node, on the disk or the bidisk.

    ``shift(j)`` returns the solve centered at node j, pulled back, as
    (denominator, declared degree), strict at node j.  A shift that breaks
    down (``BREAKDOWNS``) is dropped; SolveError when none is left.  The rest
    are padded to the largest declared degree in each variable.
    """
    kept, errors = [], []
    for j in range(problem.size):
        try:
            kept.append(shift(j))
        except BREAKDOWNS as exc:
            errors.append(f"node {j}: {exc}")
    if not kept:
        raise SolveError("every shifted solve failed: " + "; ".join(errors))
    degrees = [d for _, d in kept]
    target = max(degrees) if np.ndim(degrees[0]) == 0 else tuple(map(max, zip(*degrees)))
    return ShiftedFamily(dens=[pad_to_degree(den, d, target) for den, d in kept],
                         refl_degree=target)


def combine_shifts(family: ShiftedFamily, problem, rng: np.random.Generator) -> Poly:
    """A real combination q of the family, clear of zero at every node.

    CombinationError when COMBINATION_RETRIES random combinations all come
    near zero at some node.
    """
    coords = node_coordinates(problem)
    vals = np.column_stack([p(*coords) for p in family.dens])
    t, residual_table = real_combination(
        vals, max(p.norm() for p in family.dens), rng, COMBINATION_RETRIES
    )
    if t is None:
        raise CombinationError(residual_table)
    return sum((tj * p for tj, p in zip(t, family.dens)), start=Poly())


def _project_weak(den: Poly, d: int | tuple[int, ...], problem) -> Poly:
    """Minimum-norm coefficient correction making the weak identity exact.

    The constraints reflect(den, d)(lam_i) = w_i den(lam_i), in one variable
    or two, are real-linear in the flattened coefficients: V is the row-wise
    Kronecker product of one Vandermonde matrix per variable, and the
    reflected side is ``V[:, ::-1]`` (flipping every axis reverses the
    flattened array).  The least-squares correction removes the residual left
    by the realization arithmetic; the original polynomial is kept when the
    correction is large.  Below that guard it is real-linear (the residual is
    real-linear in the coefficients, and the correction is one fixed
    pseudo-inverse applied to it), so projecting a real combination
    sum_j t_j den_j once gives sum_j t_j times the projected den_j.
    """
    degrees = tuple(np.atleast_1d(d))
    padded = pad_coeffs(den.coeffs, degrees)
    c = padded.ravel()
    V = reduce(
        lambda V1, V2: (V1[:, :, None] * V2[:, None, :]).reshape(len(V1), -1),
        [np.vander(x, k + 1, increasing=True) for x, k in zip(node_coordinates(problem), degrees)],
    )
    A_c = -(problem.values[:, None] * V)
    A_cbar = V[:, ::-1]
    r = A_c @ c + A_cbar @ np.conj(c)
    top = np.hstack([A_c + A_cbar, 1j * (A_c - A_cbar)])
    A_real = np.vstack([top.real, top.imag])
    rhs = np.concatenate([(-r).real, (-r).imag])
    x, *_ = np.linalg.lstsq(A_real, rhs, rcond=None)
    dc = x[: c.size] + 1j * x[c.size :]
    if np.linalg.norm(dc) > 1e-3 * max(1.0, np.linalg.norm(c)):
        return den
    return Poly((c + dc).reshape(padded.shape))


def strict_tail(den: Poly, d, problem, stage: str) -> tuple[Poly, Poly, list[str]]:
    """(num, den, per-node statuses) of reflect(den, d)/den, den projected (``_project_weak``).

    The tail of every disk and bidisk answer; raises SolveError naming
    ``stage`` unless num/den is strict at every node.
    """
    den = _project_weak(den, d, problem)
    num = poly_reflect(den, d)
    statuses = check_interpolation(num, den, problem)
    if any(s != "strict" for s in statuses):
        raise SolveError(f"{stage} is not strict at all nodes: {statuses}")
    return num, den, statuses


def solve_all_shifts(problem: DiskProblem) -> ShiftedFamily:
    """One centered solve per node (``solve_shifts``), pulled back to the problem's nodes."""
    N = problem.size

    def shift(j: int) -> tuple[Poly, int]:
        m = MoebiusMap(problem.nodes[j])
        order = [j] + [i for i in range(N) if i != j]
        den, d = solve_centered(
            DiskProblem(nodes=m(problem.nodes[order]), values=problem.values[order])
        )
        return moebius_pullback(den, m.a, d), d

    return solve_shifts(problem, shift)


@dataclass(frozen=True)
class TakagiSolution:
    """Strict interpolant num/den = constant * f / g, with per-node statuses."""

    interpolant: Rational
    f: BlaschkeProduct
    g: BlaschkeProduct
    constant: complex
    inertia: Inertia
    node_status: list[str]
    certificates: dict = field(default_factory=dict)


def _inner_factor(p: Poly) -> BlaschkeProduct:
    """Blaschke product over the roots of p inside the disk."""
    return BlaschkeProduct(zeros=tuple(complex(r) for r in roots_in_disk(p)))


def _strict_solution(
    den: Poly, d: int, problem: DiskProblem, stage: str, inertia: Inertia
) -> TakagiSolution:
    """``strict_tail``'s num/den split into Blaschke factors."""
    num, den, statuses = strict_tail(den, d, problem, stage)
    find_roots([num, den])  # both at once: equal-size companions share one eigvals call
    f = _inner_factor(num)
    g = _inner_factor(den)
    interp = Rational(numerator=num, denominator=den)
    # Unimodular constant with phi = c f / g at a pole-free sample point.
    z0 = 0.237 + 0.111j
    fz, gz = f(z0), g(z0)
    c_phi = interp(z0) * gz / fz if abs(fz) > 1e-12 else 1.0 + 0.0j
    if abs(abs(c_phi) - 1.0) > 1e-6:
        c_phi = c_phi / abs(c_phi)
    return TakagiSolution(interpolant=interp, f=f, g=g, constant=complex(c_phi),
                          inertia=inertia, node_status=statuses)


def combine(
    family: ShiftedFamily, problem: DiskProblem, inertia: Inertia, rng: np.random.Generator
) -> TakagiSolution:
    """Real combination of shifted denominators (``combine_shifts``) into a strict interpolant.

    ``inertia`` is the Pick matrix's.  Each shifted Pick matrix is congruent
    to it (C Gamma C* with C = diag((1 - conj(a) lam_i) / sqrt(1 - |a|^2))),
    so by Sylvester's law every shift has the same inertia.
    """
    q = combine_shifts(family, problem, rng)
    return _strict_solution(q, family.refl_degree, problem, "combination", inertia)


def solve_positive(problem: DiskProblem, dec: GramDecomposition) -> TakagiSolution:
    """Rank-degree solve: an interpolant with deg f = pi and deg g = nu.

    ``dec`` is the Gram decomposition of the problem's Pick matrix.  The
    colligation is built from the split (u, v) alone, with no null vectors,
    so the transfer function has
    degree rank(Gamma) even when the matrix is singular; with nu = 0 it is the
    classical pole-free Blaschke product.  Only the answer is judged: SolveError
    when reflect(den, d)/den is not strict at every node (``strict_tail``);
    the certificate then checks the degrees against the inertia.
    """
    # With a singular matrix the domain columns are dependent, which
    # ``krein.extend_j_isometry`` handles.
    real = lurking_colligation(problem.nodes[:, None], problem.values, [(dec.u, dec.v)])
    den, d = best_reflective_pair(*realization_to_rational(real))
    return _strict_solution(den, d, problem, "rank-degree solve", dec.inertia)


def solve(
    problem: DiskProblem,
    seed: int = 0,
    certify: bool = True,
) -> TakagiSolution:
    """Full pipeline: the rank-degree path and the general path, then certification.

    The general path is the shifted solves and the real combination.  The
    rank-degree solve goes first, with the general path as its fallback,
    unless the Pick matrix is singular and indefinite (nu > 0 and zeta > 0);
    then the order is reversed.  When both break down, the general path's
    error is raised, with the rank-degree solve's as its ``__cause__``.
    """
    dec = gram_decompose(pick_matrix(problem))

    def general() -> TakagiSolution:
        return combine(solve_all_shifts(problem), problem, dec.inertia,
                       np.random.default_rng(seed))

    def rank_degree() -> TakagiSolution:
        return solve_positive(problem, dec)

    paths = (rank_degree, general)
    if dec.inertia.negative > 0 and dec.inertia.zero > 0:
        paths = paths[::-1]
    errors = {}
    for path in paths:
        try:
            solution = path()
            break
        except BREAKDOWNS as exc:
            errors[path] = exc
    else:
        raise errors[general] from errors[rank_degree]
    if certify:
        solution.certificates.update(certify_disk(solution, problem))
    return solution
