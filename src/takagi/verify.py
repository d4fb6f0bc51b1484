"""Independent certification of interpolants, and the node-status rules.

Every check here recomputes its quantities from the rational function and the
problem data alone, never reusing solver intermediates, so a passing
certificate is evidence independent of the construction path.

The one per-node classification rule, ``node_status`` (strict | weak | fail),
lives here and serves the disk and bidisk solvers alike: it judges a weak
solution in the weak stage (``disk.enforce_weak_interpolation``), a centered
solve at its own node, and a finished interpolant in the strict stage and the
certificates.  ``check_interpolation`` and ``check_unimodular`` take one or
two variables: they are the one node check and the one boundary check, on the
circle or the torus.  Both certificates recompute the node statuses; neither
reads them from the solution.

Unimodularity comes from the coefficients: reflect(den, d) has the modulus of
den on the circle (torus), so with delta = ||num - c reflect(den, d)||_1 and
|c| = 1 (``reflection_defect``), ||phi(z)| - 1| <= delta / |den(z)| there.
``check_unimodular`` reads |den| on its grid once, for both the near-pole mask
and the minimum; d is the ``declared_degree``, which is also the bidegree the
bidisk certificate bounds.  The bidisk certificate's balanced-disk
restrictions are one ``bidisk.restrict_balanced`` call for all its Moebius
maps, which finds all their roots at once (``polynomials.find_roots``).

``interior_points`` draws its candidates in rounds from the same stream as a
one-at-a-time loop, with the same points and the generator left in the same
state.  Where only an inertia is read (the sampled kernel, the augmented
matrix, the lemma oracle), it comes from the eigenvalues alone, as for the
Pick matrix in ``certify_disk``: those matrices are Hermitian by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Inertia, inertia_of
from .pick import DiskProblem, pick_matrix, pick_matrix_of_function
from .polynomials import (
    BlaschkeProduct,
    MoebiusMap,
    Poly,
    boundary_values,
    pad_coeffs,
    poly_roots,
    reflect_coeffs,
    roots_in_disk,
)

STRICT_TOL = 1e-7
UNIMODULAR_TOL = 1e-7
# Boundary points where |den| is below this fraction of its largest grid value
# count as near a pole: there the rounding of den alone, about machine epsilon
# times its largest value, can reach UNIMODULAR_TOL of |phi|.
POLE_EXCLUSION = 1e-9
# A near-pole torus cell with |num| above this fraction of its top is a toral violation.
TORAL_NUMERATOR = 1e-3
# Seed of the certificates' random sample points and Moebius restrictions.
CERTIFICATE_SEED = 12345
# Balanced-disk restrictions checked by the bidisk certificate.
BALANCED_RESTRICTIONS = 5


class OracleError(ValueError):
    pass


def node_status(num_vals, den_vals, values, scale: float) -> list[str]:
    """Per-node strict | weak | fail from the values of num and den at the nodes.

    Weak interpolation is the cleared identity num = w * den; strict adds a
    denominator clear of zero.  A node is strict when |den| is above 1e-8 of
    ``scale`` (the largest coefficient of the pair) and num/den matches the
    target; otherwise weak when the cleared residual |num - w den| is small
    against ``scale``; otherwise fail.
    """
    out = []
    for qv, pv, w in zip(num_vals, den_vals, values):
        if abs(pv) > 1e-8 * scale and abs(qv / pv - w) <= STRICT_TOL * (1.0 + abs(w)):
            out.append("strict")
        elif abs(qv - w * pv) <= STRICT_TOL * scale * (1.0 + abs(w)):
            out.append("weak")
        else:
            out.append("fail")
    return out


def node_coordinates(problem) -> np.ndarray:
    """The nodes as one row per variable: ``p(*node_coordinates(problem))`` evaluates p."""
    return problem.nodes.reshape(problem.size, -1).T


def node_values(num: Poly, den: Poly, problem) -> tuple[np.ndarray, np.ndarray]:
    """num and den at the nodes, in one or two variables."""
    coords = node_coordinates(problem)
    return num(*coords), den(*coords)


def check_interpolation(num: Poly, den: Poly, problem, at_nodes=None) -> list[str]:
    """Per-node ``node_status`` of phi = num/den, in one or two variables.

    The scale is the largest coefficient of the pair.  ``at_nodes`` is
    ``node_values(num, den, problem)`` when the caller has it already.
    """
    qv, pv = node_values(num, den, problem) if at_nodes is None else at_nodes
    scale = max(num.norm(), den.norm(), 1e-300)
    return node_status(qv, pv, problem.values, scale)


def _statuses_and_residuals(num: Poly, den: Poly, problem) -> tuple[list[str], np.ndarray]:
    """``check_interpolation`` and the residuals |num/den - w|, from one evaluation at the nodes."""
    qv, pv = node_values(num, den, problem)
    return check_interpolation(num, den, problem, (qv, pv)), np.abs(qv / pv - problem.values)


def near_pole(values: np.ndarray) -> np.ndarray:
    """Mask of the grid values below POLE_EXCLUSION times the largest of them."""
    return _near_pole_mags(np.abs(values))


def _near_pole_mags(mags: np.ndarray) -> np.ndarray:
    """``near_pole`` from the magnitudes of the grid values."""
    return mags < POLE_EXCLUSION * max(float(np.max(mags)), 1e-300)


def declared_degree(num: Poly, den: Poly) -> tuple[int, ...]:
    """The larger of num's and den's degrees in each variable (0 at least)."""
    return tuple(max(a, b, 0) for a, b in zip(num.degrees, den.degrees))


def reflection_defect(num: Poly, den: Poly) -> float:
    """||num - c reflect(den, d)||_1, d the ``declared_degree``, c the phase of one vdot."""
    d = declared_degree(num, den)
    nc, rc = pad_coeffs(num.coeffs, d), reflect_coeffs(den.coeffs, d)
    s = np.vdot(rc, nc)
    c = s / abs(s) if s else 1.0
    return float(np.sum(np.abs(nc - c * rc)))


def check_unimodular(num: Poly, den: Poly, samples: int = 512, defect: float | None = None) -> float:
    """``reflection_defect`` over the least |den| on the ``samples``-point grid, off ``near_pole``.

    A bound on | |phi| - 1 | where |den| is no smaller: at every point of the grid.
    ``defect`` is ``reflection_defect(num, den)`` when the caller has it already.
    """
    mags = np.abs(boundary_values(den, samples))
    keep = ~_near_pole_mags(mags)
    if not np.any(keep):
        return np.inf
    if defect is None:
        defect = reflection_defect(num, den)
    return defect / float(np.min(mags, where=keep, initial=np.inf))


def count_zeros_poles(num: Poly, den: Poly) -> tuple[int, int]:
    """Counts of numerator/denominator roots with modulus < 1 (reduced pair)."""
    return roots_in_disk(num).size, roots_in_disk(den).size


def lemma_inertia_oracle(
    f: BlaschkeProduct, g: BlaschkeProduct, points, tol: float = 1e-8
) -> Inertia:
    """Inertia of the Pick matrix of f/g at deg f + deg g points off the poles.

    For relatively prime Blaschke products the result is (deg f, deg g, 0).
    """
    points = np.asarray(points, dtype=complex)
    if points.size != f.degree + g.degree:
        raise OracleError("need exactly deg f + deg g sample points")
    for zf in f.zeros:
        for zg in g.zeros:
            if abs(zf - zg) <= 1e-8:
                raise OracleError("Blaschke products share a zero")
    for p in points:
        for zg in g.zeros:
            if abs(p - zg) <= 1e-8:
                raise OracleError("sample point touches a pole of f/g")
    return inertia_of(np.linalg.eigvalsh(pick_matrix_of_function(f(points) / g(points), points)), tol)


def interior_points(n_points: int, rng: np.random.Generator, poles: np.ndarray) -> np.ndarray:
    """Random points in the square of half-width 0.665, 1e-3 off the poles and each other.

    The points are those of drawing one candidate at a time (x, then y) and
    keeping it when it is 1e-3 off the poles and the points kept before it.
    Candidates come in rounds of as many as are still missing, one draw each,
    so no round draws a candidate the one-at-a-time loop would not, and ``rng``
    ends where that loop leaves it.  A round tests the poles and the earlier
    points with one distance matrix each; only a round with two candidates
    closer than 1e-3 keeps its candidates one at a time.
    """
    pts = np.zeros(0, dtype=complex)
    while pts.size < n_points:
        xy = rng.uniform(-0.95, 0.95, size=(n_points - pts.size, 2))
        z = (xy[:, 0] + 1j * xy[:, 1]) * 0.7
        for near in (poles, pts):
            if near.size:
                z = z[~(np.min(np.abs(np.subtract.outer(z, near)), axis=1) < 1e-3)]
        close = np.abs(np.subtract.outer(z, z)) < 1e-3
        if np.any(np.triu(close, 1)):
            kept = []
            for i in range(z.size):
                if not np.any(close[i, kept]):
                    kept.append(i)
            z = z[kept]
        pts = np.concatenate((pts, z))
    return pts


def sampled_kernel_inertia(
    num: Poly, den: Poly, n_points: int, rng: np.random.Generator
) -> Inertia:
    """Inertia of the Pick kernel of phi at random interior points off den's roots.

    The kernel matrix is Hermitian by construction, so its eigenvalues alone decide.
    """
    pts = interior_points(n_points, rng, poly_roots(den))
    vals = num(pts) / den(pts)
    return inertia_of(np.linalg.eigvalsh(pick_matrix_of_function(vals, pts)), 1e-8)


@dataclass(frozen=True)
class AugmentedInertiaResult:
    inertia: Inertia
    constant: complex
    level_points: np.ndarray
    n_appended: int


def augmented_inertia(
    num: Poly,
    den: Poly,
    problem: DiskProblem,
    c: complex | None = None,
    tol: float = 1e-8,
) -> AugmentedInertiaResult:
    """Inertia of the Pick matrix of phi at the nodes plus level-set points.

    Appends deg f + deg g - N roots of num - c*den inside the disk; for an
    interpolant of maximal degrees this matrix is invertible with inertia
    (deg f, deg g, 0).  When c is not given, magnitudes 1.3 and 0.7 over
    eight phases are all tried, and the constant whose level points lie
    deepest inside the disk is used: a point near the circle inflates the
    matrix and lets the relative cutoff swallow a genuine small eigenvalue.
    """
    zf, zg = count_zeros_poles(num, den)
    eta = zf + zg - problem.size
    nodes = list(problem.nodes)
    used_c = complex(c) if c is not None else 0.0j
    level = np.zeros(0, dtype=complex)
    if eta > 0:
        candidates = (
            [complex(c)]
            if c is not None
            else [mag * np.exp(2j * np.pi * k / 8) for mag in (1.3, 0.7) for k in range(8)]
        )
        poles = poly_roots(den)
        found = None
        for cand in candidates:
            if abs(abs(cand) - 1.0) < 1e-3:
                continue
            eq = num - cand * den
            if eq.degree < 1:
                continue
            roots = poly_roots(eq)
            good = []
            for r in roots:
                if abs(r) >= 1.0 - 1e-9:
                    continue
                if nodes and min(abs(r - n) for n in nodes) < 1e-6:
                    continue
                if poles.size and np.min(np.abs(r - poles)) < 1e-8:
                    continue
                good.append(complex(r))
            if len(good) >= eta:
                good = sorted(good, key=abs)[:eta]
                if found is None or abs(good[-1]) < abs(found[1][-1]):
                    found = (cand, good)
        if found is None:
            raise OracleError("no level-set constant yielded enough interior points")
        used_c, level_list = found
        level = np.array(level_list)
        nodes = nodes + level_list
    pts = np.array(nodes)
    vals = num(pts) / den(pts)
    # Values at the original nodes are the interpolation targets by construction.
    inertia = inertia_of(np.linalg.eigvalsh(pick_matrix_of_function(vals, pts)), tol)
    return AugmentedInertiaResult(
        inertia=inertia, constant=used_c, level_points=level, n_appended=max(eta, 0)
    )


def torus_unimodularity(num2, den2, grid: int = 128, defect: float | None = None) -> float:
    """``check_unimodular`` on the torus, ``grid`` points per variable."""
    return check_unimodular(num2, den2, grid, defect)


def certify_bidisk(solution, problem) -> dict:
    """Certificate block for a bidisk solution; all quantities recomputed.

    The bidegree bound is pi^r + nu^r per variable, from the inertias of the
    pair's terms (``solution.inertias``; ``io.result_to_solution`` rejects a
    result file whose inertias are not its pair's), and the bidegree checked
    against it is the ``declared_degree`` of num and den, so a numerator of higher degree than
    the denominator cannot pass.  Each balanced-disk restriction of the answer
    has at most pi^1 + pi^2 zeros and nu^1 + nu^2 poles in the disk; the
    ``BALANCED_RESTRICTIONS`` maps go to one ``bidisk.restrict_balanced`` call.

    ``toral`` comes from delta = ``reflection_defect`` alone.  ``bidisk.toral_check``
    flags a cell with |den| < POLE_EXCLUSION * M (M the largest grid |den|) and
    |num| > TORAL_NUMERATOR * max|num|.  As | |num| - |den| | <= delta on the
    torus, |num| <= POLE_EXCLUSION * M + delta there and max|num| >= M - delta,
    so a violation needs delta (1 + TORAL_NUMERATOR) > (TORAL_NUMERATOR -
    POLE_EXCLUSION) M.  By Parseval the mean of |den|^2 on a midpoint grid
    finer than the degree is ||den||_2^2, so M >= ||den||_2 and the verdict
    (delta / ||den||_2 in place of delta / M) rules out every such violation.
    """
    from .bidisk import restrict_balanced

    num2 = solution.numerator
    den2 = solution.denominator
    statuses, residuals = _statuses_and_residuals(num2, den2, problem)
    wmax = float(np.max(np.abs(problem.values)))
    delta = reflection_defect(num2, den2)
    defect = torus_unimodularity(num2, den2, defect=delta)
    reflection = delta / max(float(np.linalg.norm(den2.coeffs)), 1e-300)
    toral = reflection * (1 + TORAL_NUMERATOR) <= TORAL_NUMERATOR - POLE_EXCLUSION
    (pi1, nu1, _), (pi2, nu2, _) = (inertia.as_tuple() for inertia in solution.inertias)
    bound = (pi1 + nu1, pi2 + nu2)
    bidegree = declared_degree(num2, den2)
    rng = np.random.default_rng(CERTIFICATE_SEED)
    maps = [MoebiusMap(complex((rng.uniform(-0.85, 0.85) + 1j * rng.uniform(-0.85, 0.85)) * 0.7))
            for _ in range(BALANCED_RESTRICTIONS)]
    restriction_counts = [count_zeros_poles(rnum, rden)
                          for rnum, rden in restrict_balanced(solution, maps)]
    restrictions_ok = all(zeros <= pi1 + pi2 and poles <= nu1 + nu2
                          for zeros, poles in restriction_counts)
    verdicts = {
        "strict_all_nodes": all(s == "strict" for s in statuses),
        "interpolation": bool(np.max(residuals) <= STRICT_TOL * (1.0 + wmax)),
        "unimodular": bool(defect <= UNIMODULAR_TOL),
        "bidegree": bidegree[0] <= bound[0] and bidegree[1] <= bound[1],
        "toral": toral,
        "balanced_restrictions": restrictions_ok,
    }
    return {
        "node_status": statuses,
        "interpolation_residuals": residuals.tolist(),
        "unimodularity_defect": defect,
        "bidegree": bidegree,
        "bidegree_bound": bound,
        "reflection_defect": reflection,
        "balanced_restriction_counts": restriction_counts,
        "verdicts": verdicts,
        "pass": all(verdicts.values()),
    }


def certify_disk(solution, problem: DiskProblem) -> dict:
    """Certificate block for a disk solution; all quantities recomputed, the inertia too."""
    num = solution.interpolant.numerator
    den = solution.interpolant.denominator
    pi, nu, zeta = inertia_of(np.linalg.eigvalsh(pick_matrix(problem))).as_tuple()
    N = problem.size
    statuses, residuals = _statuses_and_residuals(num, den, problem)
    defect = check_unimodular(num, den)
    zf, zg = count_zeros_poles(num, den)
    rng = np.random.default_rng(CERTIFICATE_SEED)
    kernel = sampled_kernel_inertia(num, den, 2 * N, rng)
    poles = poly_roots(den)
    circle_gap = float(np.min(np.abs(np.abs(poles) - 1.0))) if poles.size else np.inf
    wmax = float(np.max(np.abs(problem.values)))
    verdicts = {
        "strict_all_nodes": all(s == "strict" for s in statuses),
        "interpolation": bool(np.max(residuals) <= STRICT_TOL * (1.0 + wmax)),
        "unimodular": bool(defect <= UNIMODULAR_TOL),
        "degree_sandwich": (pi <= zf <= pi + zeta) and (nu <= zg <= nu + zeta),
        "kernel_bound": kernel.positive <= N - nu and kernel.negative <= N - pi,
        "poles_off_circle": circle_gap > 1e-8,
    }
    return {
        "node_status": statuses,
        "interpolation_residuals": residuals.tolist(),
        "unimodularity_defect": defect,
        "zeros_in_disk": zf,
        "poles_in_disk": zg,
        "kernel_inertia": kernel.as_tuple(),
        "pole_circle_gap": circle_gap,
        "verdicts": verdicts,
        "pass": all(verdicts.values()),
    }
