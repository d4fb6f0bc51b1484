from pathlib import Path

import numpy as np
import pytest

import takagi.disk as disk_module
from takagi.bidisk import (
    build_bidisk_realization,
    regularize_pair,
    solve_bidisk,
    solve_bidisk_shifts,
    to_birational,
)
from takagi.disk import (
    CombinationError,
    ShiftedFamily,
    SolveError,
    best_reflective_pair,
    combine,
    enforce_weak_interpolation,
    reflective_constant,
    solve,
    solve_all_shifts,
    solve_centered,
)
from takagi.io import load_problem
from takagi.linalg import Inertia
from takagi.pick import DiskProblem, gram_decompose, pick_matrix
from takagi.polynomials import Poly, Rational, pad_coeffs, poly_reflect, vacuous_node_factor
from takagi.verify import node_coordinates

# Nodes and targets of problems/disk_basic.json; every shift solves.
BASIC = DiskProblem(
    nodes=np.array([0.2 + 0.1j, -0.4, 0.3j]), values=np.array([1.8, 0.4 - 0.2j, -0.9j])
)


def degree_one_one_problem():
    """Data of a degree-(1, 1) Blaschke quotient at four nodes (as in TestSolveOrder).

    Gamma is singular and indefinite, inertia (1, 1, 2), so the general path goes first.
    """
    nodes = np.array([0.1, -0.4 + 0.2j, 0.5j, -0.3 - 0.5j])
    phi = np.exp(0.6j) * (nodes - 0.3) / (1 - 0.3 * nodes) * (1 + 0.2j * nodes) / (nodes - 0.2j)
    return DiskProblem(nodes=nodes, values=phi)


def square_stress_problem(n, k):
    """Problem k of the square-node stress cell of size n (as in test_clustered_sixteen_nodes_certify)."""
    rng = np.random.default_rng([777, n, k, 6])
    while True:
        nodes = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * 0.5
        gaps = np.abs(nodes[:, None] - nodes[None, :]) + np.eye(n)
        if gaps.min() > 0.05:
            break
    values = rng.uniform(0.2, 3.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    return DiskProblem(nodes=nodes, values=values)


def random_problem(rng, n_max=6):
    N = int(rng.integers(1, n_max + 1))
    while True:
        nodes = (rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)) * 0.6
        if N == 1 or min(
            abs(nodes[i] - nodes[j]) for i in range(N) for j in range(i + 1, N)
        ) > 5e-2:
            break
    values = rng.uniform(0.2, 3.0, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
    return DiskProblem(nodes=nodes, values=values)


class TestReflectiveStructure:
    def test_reflective_constant_exact(self):
        den = Poly(np.array([1.0, 0.5 + 0.2j]))
        num = 2.0 * poly_reflect(den, 1)
        c, defect = reflective_constant(num, den, 1)
        assert c == pytest.approx(2.0)
        assert defect < 1e-12

    def test_best_pair_recovers_degree(self):
        den = Poly(np.array([1.0, 0.3 - 0.1j, 0.2]))
        num = poly_reflect(den, 2)
        d2, d = best_reflective_pair(num, den)
        assert d == 2
        c, defect = reflective_constant(num, d2, d)
        assert defect < 1e-10
        assert abs(abs(c) - 1.0) < 1e-10


def random_centered_problem(rng, n_max=5):
    """Random problem whose first node is the origin."""
    while True:
        p = random_problem(rng, n_max=n_max)
        nodes = p.nodes.copy()
        nodes[0] = 0.0
        if p.size == 1 or np.min(np.abs(nodes[1:])) > 5e-2:
            return DiskProblem(nodes=nodes, values=p.values)


class TestCenteredSolve:
    def test_single_node_at_origin(self):
        p = DiskProblem(nodes=np.array([0.0]), values=np.array([0.5]))
        den, d = solve_centered(p)
        num = poly_reflect(den, d)
        assert abs(num(0.0) / den(0.0) - 0.5) < 1e-9

    def test_values_reproduced_weakly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_centered_problem(rng, n_max=4)
            den, d = solve_centered(p)
            num = poly_reflect(den, d)
            for lam, w in zip(p.nodes, p.values):
                # Weak condition: the pair (1, w) is matched projectively.
                assert abs(num(lam) - w * den(lam)) <= 1e-7 * (1.0 + abs(w)) * max(
                    1.0, den.norm()
                )

    def test_denominator_is_reflective(self):
        rng = np.random.default_rng(1)
        p = random_centered_problem(rng, n_max=5)
        den, d = solve_centered(p)
        c, defect = reflective_constant(poly_reflect(den, d), den, d)
        assert defect < 1e-7 * max(1.0, den.norm())
        assert abs(abs(c) - 1.0) < 1e-7

    def test_noncentered_rejected(self):
        p = DiskProblem(nodes=np.array([0.3]), values=np.array([0.5]))
        with pytest.raises(ValueError):
            solve_centered(p)

    def test_vacuous_factor_at_node_missing_weak_identity(self):
        # phi = 1/1 matches w at the origin only; the node 0.5 gets a factor vanishing there.
        p = DiskProblem(nodes=np.array([0.0, 0.5]), values=np.array([1.0, 2.0]))
        den, d, statuses = enforce_weak_interpolation(Poly.one(), 0, p)
        assert statuses == ["strict", "fail"]
        assert d == 2
        assert abs(den(0.5)) < 1e-15
        num = poly_reflect(den, d)
        for lam, w in zip(p.nodes, p.values):
            assert abs(num(lam) - w * den(lam)) < 1e-12


class TestShiftedFamily:
    def test_family_size_and_degree(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, n_max=4)
        fam = solve_all_shifts(p)
        assert len(fam.dens) == p.size
        for den in fam.dens:
            assert den.degree <= fam.refl_degree

    def test_every_shift_failing_is_a_solve_error(self, monkeypatch):
        def failing(problem):
            raise SolveError("lost strict interpolation at the centered node")

        monkeypatch.setattr(disk_module, "solve_centered", failing)
        with pytest.raises(SolveError, match="every shifted solve failed"):
            solve_all_shifts(BASIC)

    def test_non_finite_shift_is_dropped(self, monkeypatch):
        centered = disk_module.solve_centered
        calls = []

        def first_non_finite(problem):
            calls.append(problem)
            if len(calls) == 1:
                Poly(np.array([1.0, np.nan]))
            return centered(problem)

        monkeypatch.setattr(disk_module, "solve_centered", first_non_finite)
        fam = solve_all_shifts(BASIC)
        assert len(fam.dens) == BASIC.size - 1

    def test_lower_degree_shifts_padded_to_common_degree(self, monkeypatch):
        # The first shift gains a vacuous factor (two degrees); the others must
        # be padded up to its degree and keep the weak identity there.
        centered = disk_module.solve_centered
        degrees = []

        def first_raised(problem):
            den, d = centered(problem)
            if not degrees:
                den, d = den * vacuous_node_factor(problem.nodes[1]), d + 2
            degrees.append(d)
            return den, d

        monkeypatch.setattr(disk_module, "solve_centered", first_raised)
        fam = solve_all_shifts(BASIC)
        assert len(fam.dens) == BASIC.size
        assert fam.refl_degree == degrees[0] > max(degrees[1:])
        for den in fam.dens:
            num = poly_reflect(den, fam.refl_degree)
            scale = max(den.norm(), num.norm())
            for lam, w in zip(BASIC.nodes, BASIC.values):
                assert abs(num(lam) - w * den(lam)) <= 1e-7 * scale * (1 + abs(w))


class TestShiftInertia:
    # combine takes the Pick matrix's inertia for every shift: a shifted Pick
    # matrix is C Gamma C* with C diagonal, so Sylvester's law keeps the inertia.
    @pytest.mark.parametrize("problem", [BASIC, degree_one_one_problem(), square_stress_problem(16, 22)],
                             ids=["basic", "singular-indefinite", "clustered-sixteen"])
    def test_every_shifted_pick_matrix_has_gammas_inertia(self, monkeypatch, problem):
        centered, shifted = disk_module.solve_centered, []

        def recorded(p):
            shifted.append(p)
            return centered(p)

        monkeypatch.setattr(disk_module, "solve_centered", recorded)
        solve_all_shifts(problem)
        inertia = gram_decompose(pick_matrix(problem)).inertia
        assert len(shifted) == problem.size
        for p in shifted:
            assert gram_decompose(pick_matrix(p)).inertia == inertia


PAIR_FILE = Path(__file__).resolve().parent.parent / "problems" / "bidisk_pair.json"


def basic_shifts():
    return BASIC, solve_all_shifts(BASIC)


def bidisk_pair_shifts():
    problem, pair, _ = load_problem(str(PAIR_FILE))
    return problem, solve_bidisk_shifts(problem, pair)


def weak_residual(num, den, problem):
    """Norm over the nodes of num - w * den, the residual ``_project_weak`` removes."""
    coords = node_coordinates(problem)
    return float(np.linalg.norm(num(*coords) - problem.values * den(*coords)))


class TestProjection:
    def test_commutes_with_a_real_combination(self):
        # The shifted denominators, each moved off the weak identity by a 1e-5
        # coefficient perturbation, so that every projection corrects visibly;
        # on the disk and on the bidisk.
        for shifts in (basic_shifts, bidisk_pair_shifts):
            rng = np.random.default_rng(3)
            problem, fam = shifts()
            d = fam.refl_degree
            degrees = tuple(np.atleast_1d(d))
            shape = tuple(k + 1 for k in degrees)
            dens = [Poly(pad_coeffs(p.coeffs, degrees) + 1e-5 * p.norm() * (
                rng.normal(size=shape) + 1j * rng.normal(size=shape))) for p in fam.dens]
            t = rng.normal(size=len(dens))
            projected = [disk_module._project_weak(p, d, problem) for p in dens]
            for p, q in zip(dens, projected):
                change = pad_coeffs(q.coeffs, degrees) - pad_coeffs(p.coeffs, degrees)
                assert np.linalg.norm(change) > 1e-7
            combined = sum((tj * p for tj, p in zip(t, dens)), start=Poly())
            once = disk_module._project_weak(combined, d, problem)
            each = sum((tj * q for tj, q in zip(t, projected)), start=Poly())
            diff = pad_coeffs(once.coeffs, degrees) - pad_coeffs(each.coeffs, degrees)
            assert np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(each.coeffs)

    def test_bidisk_answer_is_projected(self):
        # The single solve's answer on problems/bidisk_pair.json against its raw
        # extraction: the projection leaves a smaller weak residual.
        problem, pair, _ = load_problem(str(PAIR_FILE))
        br = to_birational(build_bidisk_realization(problem, pair, regularize_pair(pair)))
        raw, d = best_reflective_pair(br.numerator, br.denominator)
        sol = solve_bidisk(problem, pair, seed=0, certify=False)
        assert sol.bidegree == d
        assert weak_residual(sol.numerator, sol.denominator, problem) < weak_residual(
            poly_reflect(raw, d), raw, problem)


class TestCombine:
    def test_no_combination_avoiding_a_node(self):
        # Every candidate vanishes at the node 0.3.
        fam = ShiftedFamily(dens=[Poly(np.array([-0.3, 1.0]))], refl_degree=1)
        p = DiskProblem(nodes=np.array([0.3, -0.2]), values=np.array([0.5, 0.5]))
        with pytest.raises(CombinationError) as info:
            combine(fam, p, Inertia(1, 0, 0), np.random.default_rng(0))
        assert len(info.value.residuals) == 64

    def test_combination_missing_a_target_is_not_strict(self):
        # The constant 1 avoids every node but interpolates neither target.
        fam = ShiftedFamily(dens=[Poly.one()], refl_degree=0)
        p = DiskProblem(nodes=np.array([0.3, -0.2]), values=np.array([2.0, 0.5]))
        with pytest.raises(SolveError, match="combination is not strict at all nodes"):
            combine(fam, p, Inertia(1, 0, 0), np.random.default_rng(0))


class TestSolve:
    def test_strict_interpolation_small_example(self):
        p = DiskProblem(
            nodes=np.array([0.2 + 0.1j, -0.4, 0.3j]),
            values=np.array([1.8, 0.4 - 0.2j, -0.9j]),
        )
        sol = solve(p, seed=0)
        assert sol.certificates["pass"]
        vals = sol.interpolant(p.nodes)
        assert np.max(np.abs(vals - p.values)) < 1e-7 * (1 + np.max(np.abs(p.values)))

    def test_degenerate_example(self):
        p = DiskProblem(
            nodes=np.array([0.0, 0.5, -0.5, 0.5j]),
            values=np.array([0.0, 1.0, 1.0, 1.0]),
        )
        sol = solve(p, seed=0)
        assert sol.inertia.as_tuple() == (1, 1, 2)
        assert sol.certificates["pass"]
        # Degenerate problems force the degree up to at least N - 1.
        assert sol.f.degree >= p.size - 1
        assert sol.g.degree >= p.size - 1

    def test_unimodular_on_circle(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng)
        sol = solve(p, seed=1)
        z = np.exp(2j * np.pi * rng.uniform(0, 1, 200))
        num, den = sol.interpolant.numerator, sol.interpolant.denominator
        mask = np.abs(den(z)) > 1e-6 * den.norm()
        assert np.max(np.abs(np.abs(num(z[mask]) / den(z[mask])) - 1.0)) < 1e-7

    def test_blaschke_quotient_matches_interpolant(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng)
        sol = solve(p, seed=2)
        z = (rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)) * 0.5
        direct = sol.interpolant(z)
        quotient = sol.constant * sol.f(z) / sol.g(z)
        assert np.max(np.abs(direct - quotient)) < 1e-6 * (1 + np.max(np.abs(direct)))

    def test_degree_counts_match_inertia_window(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            p = random_problem(rng)
            sol = solve(p, seed=seed)
            pi, nu, zeta = sol.inertia.as_tuple()
            assert pi <= sol.f.degree <= pi + zeta
            assert nu <= sol.g.degree <= nu + zeta
            assert sol.certificates["pass"]

    def test_positive_semidefinite_gives_no_poles(self):
        b = lambda z: 0.8 * (z - 0.3) / (1 - 0.3 * z)  # noqa: E731
        nodes = np.array([0.0, 0.4, -0.2 + 0.3j])
        p = DiskProblem(nodes=nodes, values=b(nodes))
        G = pick_matrix(p)
        assert np.linalg.eigvalsh(G).min() > 0
        sol = solve(p, seed=0)
        assert sol.g.degree == 0
        assert sol.certificates["pass"]

    def test_non_finite_positive_solve_falls_back_to_shifts(self, monkeypatch):
        def non_finite(problem, dec):
            return Poly(np.array([np.inf, 1.0]))

        monkeypatch.setattr(disk_module, "solve_positive", non_finite)
        b = lambda z: 0.8 * (z - 0.3) / (1 - 0.3 * z)  # noqa: E731
        nodes = np.array([0.0, 0.4, -0.2 + 0.3j])
        sol = solve(DiskProblem(nodes=nodes, values=b(nodes)), seed=0)
        assert sol.certificates["pass"]

    def test_rank_degree_fallback_when_general_path_fails(self, monkeypatch):
        # Data of a degree-(1, 1) Blaschke quotient at four nodes: Gamma is
        # singular and indefinite, inertia (1, 1, 2).
        def failing(problem):
            raise SolveError("every shifted solve failed: forced")

        monkeypatch.setattr(disk_module, "solve_all_shifts", failing)
        phi = lambda z: np.exp(0.6j) * (z - 0.3) / (1 - 0.3 * z) * (1 + 0.2j * z) / (z - 0.2j)  # noqa: E731
        nodes = np.array([0.1, -0.4 + 0.2j, 0.5j, -0.3 - 0.5j])
        sol = solve(DiskProblem(nodes=nodes, values=phi(nodes)), seed=0)
        assert sol.inertia.as_tuple() == (1, 1, 2)
        assert (sol.f.degree, sol.g.degree) == (1, 1)
        assert sol.certificates["pass"]

    @pytest.mark.parametrize("problem", [BASIC, DiskProblem(
        nodes=np.array([0.0, 0.4]), values=np.array([0.5, 0.2 + 0.1j])), degree_one_one_problem()])
    def test_general_error_raised_when_both_paths_fail(self, monkeypatch, problem):
        # BASIC (inertia (2, 1, 0)) and the positive definite second problem
        # run the rank-degree solve first; the third, singular and indefinite
        # (inertia (1, 1, 2)), runs the general path first.
        def general_fails(problem):
            raise SolveError("general path failed")

        def rank_degree_fails(problem, dec):
            raise SolveError("rank-degree solve failed")

        monkeypatch.setattr(disk_module, "solve_all_shifts", general_fails)
        monkeypatch.setattr(disk_module, "solve_positive", rank_degree_fails)
        with pytest.raises(SolveError, match="general path failed"):
            solve(problem, seed=0)

    def test_clustered_sixteen_nodes_certify(self):
        # A square-node stress problem (N = 16, k = 22): nodes uniform in the
        # square of half-width 0.5, at least 0.05 apart, targets of modulus
        # 0.2 to 3.  Gamma is nonsingular, and the J-Gram of every shifted
        # solve has an eigenvalue of 1e-10 to 1e-9 (relative) that is not zero.
        rng = np.random.default_rng([777, 16, 22, 6])
        while True:
            nodes = (rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)) * 0.5
            gaps = np.abs(nodes[:, None] - nodes[None, :]) + np.eye(16)
            if gaps.min() > 0.05:
                break
        values = rng.uniform(0.2, 3.0, 16) * np.exp(2j * np.pi * rng.uniform(0, 1, 16))
        sol = solve(DiskProblem(nodes=nodes, values=values), seed=22)
        assert sol.inertia.zero == 0
        assert sol.certificates["pass"]

    def test_disk_node_stress_problem_certifies(self):
        # A disk-node stress problem (N = 24, k = 0): nodes uniform in the disk
        # of radius 0.85, at least 0.05 apart, targets of modulus 0.2 to 3.
        # Projecting each shift kept 6 of the 16 shifts unprojected (the
        # projection's guards), and their combination was weak at most nodes
        # ("combination is not strict"); the combination projected once is strict.
        rng = np.random.default_rng([777, 24, 0, 4])
        while True:
            radii = 0.85 * np.sqrt(rng.uniform(0, 1, 24))
            nodes = radii * np.exp(2j * np.pi * rng.uniform(0, 1, 24))
            gaps = np.abs(nodes[:, None] - nodes[None, :]) + np.eye(24)
            if gaps.min() > 0.05:
                break
        values = rng.uniform(0.2, 3.0, 24) * np.exp(2j * np.pi * rng.uniform(0, 1, 24))
        sol = solve(DiskProblem(nodes=nodes, values=values), seed=0)
        assert sol.inertia.as_tuple() == (11, 13, 0)
        assert sol.certificates["pass"]

    def test_deterministic_for_fixed_seed(self):
        p = DiskProblem(
            nodes=np.array([0.1, -0.2j]), values=np.array([2.0, 0.3 + 0.4j])
        )
        s1 = solve(p, seed=7)
        s2 = solve(p, seed=7)
        assert np.allclose(s1.interpolant.numerator.coeffs, s2.interpolant.numerator.coeffs)
        assert np.allclose(
            s1.interpolant.denominator.coeffs, s2.interpolant.denominator.coeffs
        )


class TestSolveOrder:
    # BASIC has a nonsingular indefinite Pick matrix, inertia (2, 1, 0).
    @pytest.mark.parametrize("problem", [BASIC, degree_one_one_problem()],
                             ids=["rank-degree-first", "general-first"])
    def test_both_causes_kept_when_both_paths_fail(self, monkeypatch, problem):
        def general_fails(problem):
            raise SolveError("general path failed")

        def rank_degree_fails(problem, dec):
            raise SolveError("rank-degree solve failed")

        monkeypatch.setattr(disk_module, "solve_all_shifts", general_fails)
        monkeypatch.setattr(disk_module, "solve_positive", rank_degree_fails)
        with pytest.raises(SolveError, match="general path failed") as info:
            solve(problem, seed=0)
        assert str(info.value.__cause__) == "rank-degree solve failed"

    def test_rank_degree_solve_answers_first(self, monkeypatch):
        def shifts_not_run(problem):
            raise AssertionError("the shifted solves ran")

        monkeypatch.setattr(disk_module, "solve_all_shifts", shifts_not_run)
        sol = solve(BASIC, seed=0)
        assert sol.inertia.as_tuple() == (2, 1, 0)
        assert sol.certificates["pass"]

    def test_shifts_answer_when_rank_degree_solve_breaks_down(self, monkeypatch):
        shifts, calls = disk_module.solve_all_shifts, []

        def rank_degree_fails(problem, dec):
            raise SolveError("rank-degree solve failed")

        def counted(problem):
            calls.append(problem.size)
            return shifts(problem)

        monkeypatch.setattr(disk_module, "solve_positive", rank_degree_fails)
        monkeypatch.setattr(disk_module, "solve_all_shifts", counted)
        sol = solve(BASIC, seed=0)
        assert calls == [BASIC.size]
        assert sol.inertia.as_tuple() == (2, 1, 0)
        assert sol.certificates["pass"]

    def test_general_error_raised_when_both_fail_on_a_singular_indefinite_problem(
        self, monkeypatch
    ):
        # Inertia (1, 1, 2): the general path goes first, the rank-degree solve second.
        order = []

        def general_fails(problem):
            order.append("general")
            raise SolveError("general path failed")

        def rank_degree_fails(problem, dec):
            order.append("rank-degree")
            raise SolveError("rank-degree solve failed")

        monkeypatch.setattr(disk_module, "solve_all_shifts", general_fails)
        monkeypatch.setattr(disk_module, "solve_positive", rank_degree_fails)
        phi = lambda z: np.exp(0.6j) * (z - 0.3) / (1 - 0.3 * z) * (1 + 0.2j * z) / (z - 0.2j)  # noqa: E731
        nodes = np.array([0.1, -0.4 + 0.2j, 0.5j, -0.3 - 0.5j])
        problem = DiskProblem(nodes=nodes, values=phi(nodes))
        assert gram_decompose(pick_matrix(problem)).inertia.as_tuple() == (1, 1, 2)
        with pytest.raises(SolveError, match="general path failed"):
            solve(problem, seed=0)
        assert order == ["general", "rank-degree"]


class TestInterpolantCallable:
    def test_scalar_and_vector(self):
        f = Rational(
            numerator=Poly(np.array([0.0, 1.0])), denominator=Poly(np.array([1.0]))
        )
        assert f(0.5) == pytest.approx(0.5)
        assert np.allclose(f(np.array([0.1, 0.2])), [0.1, 0.2])
