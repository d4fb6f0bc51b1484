from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import takagi.bidisk as bidisk_module
import takagi.disk as disk_module
import takagi.realization as realization_module
from takagi.disk import CombinationError, ReflectiveStructureError, SolveError, best_reflective_pair
from takagi.krein import ExtensionError, SignatureMatrix
from takagi.bidisk import (
    _shifted_denominator,
    _transport_pair,
    AglerPair,
    BidiskProblem,
    BidiskSolution,
    BidiskSolveError,
    PairValidationError,
    build_bidisk_realization,
    combine_bidisk,
    one_variable_pair,
    pair_residual,
    regularize_pair,
    restrict_balanced,
    solve_bidisk,
    solve_bidisk_shifts,
    to_birational,
    toral_check,
    validate_pair,
)
from takagi.io import bidisk_result_to_dict, dump_json, load_problem
from takagi.linalg import hermitize
from takagi.polynomials import (
    MoebiusMap,
    Poly,
    Rational,
    moebius_pullback,
    poly_reflect,
    roots_in_disk,
    vacuous_node_factor,
)
from takagi.realization import Realization, eval_realization, kernel_forms, realization_to_rational
from takagi.verify import BALANCED_RESTRICTIONS, certify_bidisk, check_unimodular, torus_unimodularity


def random_bidisk_problem(rng, n_max=4):
    N = int(rng.integers(1, n_max + 1))
    while True:
        nodes = (rng.uniform(-1, 1, (N, 2)) + 1j * rng.uniform(-1, 1, (N, 2))) * 0.5
        ok = all(
            np.max(np.abs(nodes[i] - nodes[j])) > 5e-2
            for i in range(N)
            for j in range(i + 1, N)
        )
        if ok:
            break
    values = rng.uniform(0.3, 2.5, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
    return BidiskProblem(nodes=nodes, values=values)


def random_two_variable_pair(problem, rng):
    """Random Hermitian first term; second term solved entrywise from the identity."""
    lam = problem.nodes
    w = problem.values
    N = problem.size
    lhs = 1.0 - np.outer(w, w.conj())
    g1 = hermitize(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
    den2 = 1.0 - np.outer(lam[:, 1], lam[:, 1].conj())
    g2 = (lhs - (1.0 - np.outer(lam[:, 0], lam[:, 0].conj())) * g1) / den2
    return AglerPair(gamma1=g1, gamma2=hermitize(g2))


class TestComposeWithMaps:
    @pytest.mark.parametrize("a1, a2", [(0.0, 0.0), (0.3 - 0.2j, 0.0), (-0.5j, 0.7), (0.85, -0.6 + 0.4j)])
    def test_moebius_composition_matches_direct(self, a1, a2):
        rng = np.random.default_rng(14)
        p = Poly(rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
        d = (4, 5)
        m1, m2 = MoebiusMap(a1), MoebiusMap(a2)
        composed = moebius_pullback(p, (a1, a2), d)
        for _ in range(20):
            z1, z2 = (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) * 0.6
            cleared = (1.0 - np.conj(a1) * z1) ** d[0] * (1.0 - np.conj(a2) * z2) ** d[1]
            direct = 1j ** (sum(d) % 2) * cleared * p(m1(z1), m2(z2))
            assert abs(composed(z1, z2) - direct) < 1e-11 * composed.norm()


class TestProblemAndPair:
    def test_node_outside_rejected(self):
        with pytest.raises(ValueError):
            BidiskProblem(nodes=np.array([[1.0, 0.0]]), values=np.array([0.0]))

    def test_coincident_nodes_rejected(self):
        with pytest.raises(ValueError):
            BidiskProblem(
                nodes=np.array([[0.1, 0.2], [0.1, 0.2]]), values=np.array([0.0, 1.0])
            )

    def test_first_coincident_pair_in_row_major_order_is_named(self):
        # Pairs (0, 3) and (1, 2) coincide; (1, 4) agrees in z1 only and stays apart.
        nodes = np.array([[0.1, 0.2], [0.3j, -0.1], [0.3j, -0.1], [0.1, 0.2], [0.3j, 0.4]])
        with pytest.raises(ValueError, match=r"^nodes 0 and 3 coincide$"):
            BidiskProblem(nodes=nodes, values=np.zeros(5))

    @pytest.mark.parametrize(
        "nodes, values",
        [([[0.1, np.nan]], [0.5]), ([[0.1, 0.2]], [np.inf]), ([[0.1, 0.2], [0.3, -0.2]], [0.5, np.nan])],
    )
    def test_non_finite_problem_rejected(self, nodes, values):
        with pytest.raises(ValueError, match="finite"):
            BidiskProblem(nodes=np.array(nodes), values=np.array(values))

    @pytest.mark.parametrize("field", ["gamma1", "gamma2"])
    def test_non_finite_pair_rejected(self, field):
        matrices = {"gamma1": np.eye(2), "gamma2": np.zeros((2, 2))}
        matrices[field] = np.array([[1.0, 0.0], [0.0, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            AglerPair(**matrices)

    def test_one_variable_pair_residual_zero(self):
        rng = np.random.default_rng(2)
        p = random_bidisk_problem(rng)
        for variable in (0, 1):
            pair = one_variable_pair(p, variable)
            assert pair_residual(p, pair) < 1e-12 * (1 + np.max(np.abs(p.values)) ** 2)

    def test_random_pair_residual_zero(self):
        rng = np.random.default_rng(3)
        p = random_bidisk_problem(rng)
        pair = random_two_variable_pair(p, rng)
        assert pair_residual(p, pair) < 1e-10 * (1 + np.max(np.abs(p.values)) ** 2)

    def test_validate_rejects_wrong_pair(self):
        rng = np.random.default_rng(4)
        p = random_bidisk_problem(rng, n_max=3)
        N = p.size
        bad = AglerPair(gamma1=np.eye(N) * 5.0, gamma2=np.eye(N) * 5.0)
        with pytest.raises(PairValidationError):
            validate_pair(p, bad)

    def test_non_hermitian_pair_rejected(self):
        with pytest.raises(Exception):
            AglerPair(gamma1=np.array([[0.0, 1.0], [0.0, 0.0]]), gamma2=np.zeros((2, 2)))


class TestRealization:
    def _build(self, seed, n_max=3):
        rng = np.random.default_rng(seed)
        p = random_bidisk_problem(rng, n_max=n_max)
        pair = random_two_variable_pair(p, rng)
        r = build_bidisk_realization(p, pair, regularize_pair(pair))
        return p, pair, r

    def test_colligation_j_unitary(self):
        p, pair, r = self._build(0)
        assert r.defect() < 1e-7

    def test_unimodular_on_torus(self):
        p, pair, r = self._build(1)
        rng = np.random.default_rng(10)
        hits = 0
        for _ in range(20):
            z = (np.exp(2j * np.pi * rng.uniform()), np.exp(2j * np.pi * rng.uniform()))
            try:
                val = eval_realization(r, z)
            except ArithmeticError:
                continue
            hits += 1
            assert abs(abs(val) - 1.0) < 1e-8
        assert hits > 10

    def test_interpolates_at_nodes(self):
        p, pair, r = self._build(2)
        for lam, w in zip(p.nodes, p.values):
            try:
                val = eval_realization(r, lam)
            except ArithmeticError:
                continue
            assert abs(val - w) < 1e-7 * (1 + abs(w))

    def test_kernel_forms_match_kernel(self):
        p, pair, r = self._build(3)
        rng = np.random.default_rng(11)
        lam = (rng.uniform(-0.5, 0.5) + 0.2j, rng.uniform(-0.5, 0.5))
        mu = (0.1 - 0.2j, -0.3 + 0.1j)
        g1, g2 = kernel_forms(r, lam, mu)
        phi_l = eval_realization(r, lam)
        phi_m = eval_realization(r, mu)
        lhs = 1.0 - phi_l * np.conj(phi_m)
        rhs = (1.0 - lam[0] * np.conj(mu[0])) * g1 + (1.0 - lam[1] * np.conj(mu[1])) * g2
        assert abs(lhs - rhs) < 1e-8 * (1 + abs(lhs))


class TestBirationalExtraction:
    def test_matches_realization(self):
        rng = np.random.default_rng(5)
        p = random_bidisk_problem(rng, n_max=3)
        pair = random_two_variable_pair(p, rng)
        r = build_bidisk_realization(p, pair, regularize_pair(pair))
        br = to_birational(r)
        for _ in range(30):
            z = ((rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.5,
                 (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.5)
            dv = br.denominator(z[0], z[1])
            if abs(dv) < 1e-8 * br.denominator.norm():
                continue
            try:
                direct = eval_realization(r, z)
            except ArithmeticError:
                continue
            assert abs(br.numerator(z[0], z[1]) / dv - direct) < 1e-6 * (1 + abs(direct))

    def test_wrong_coefficient_is_rejected(self, monkeypatch):
        # No check against the realization: the perturbed pair is no longer
        # reflective (raw defect 1e-5, beyond REFLECTIVE_DEFECT), so the
        # reflective-pair rule that every bidisk answer goes through rejects it.
        rng = np.random.default_rng(5)
        p = random_bidisk_problem(rng, n_max=3)
        pair = random_two_variable_pair(p, rng)
        r = build_bidisk_realization(p, pair, regularize_pair(pair))
        extract = realization_module.transfer_coefficients

        def perturbed(*args):
            num, den = extract(*args)
            num = num.copy()
            num[0, 0] += 1e-5 * np.max(np.abs(num))
            return num, den

        monkeypatch.setattr(realization_module, "transfer_coefficients", perturbed)
        br = to_birational(r)
        with pytest.raises(ReflectiveStructureError):
            best_reflective_pair(br.numerator, br.denominator)

    def test_zero_state_gives_two_variable_constants(self):
        r = Realization(A=0.6 - 0.8j, B=np.zeros(0), C=np.zeros(0), D=np.zeros((0, 0)),
                        J1=SignatureMatrix(np.zeros(0)), blocks=(0, 0))
        num, den = realization_to_rational(r)
        assert num.coeffs.shape == den.coeffs.shape == (1, 1)
        assert num.coeffs[0, 0] == 0.6 - 0.8j and den.coeffs[0, 0] == 1.0
        br = to_birational(r)
        assert np.array_equal(br.numerator.coeffs, num.coeffs)
        assert np.array_equal(br.denominator.coeffs, den.coeffs)

    def test_torus_unimodularity_and_toral_report(self):
        rng = np.random.default_rng(6)
        p = random_bidisk_problem(rng, n_max=3)
        pair = random_two_variable_pair(p, rng)
        r = build_bidisk_realization(p, pair, regularize_pair(pair))
        br = to_birational(r)
        assert torus_unimodularity(br.numerator, br.denominator) < 1e-7
        report = toral_check(br, grid=128)
        assert report.passed


class TestBalancedRestrictions:
    def test_unimodular_with_bounded_roots(self):
        rng = np.random.default_rng(7)
        p = random_bidisk_problem(rng, n_max=3)
        pair = random_two_variable_pair(p, rng)
        grams = regularize_pair(pair)
        r = build_bidisk_realization(p, pair, grams)
        br = to_birational(r)
        (i1, i2) = (g.inertia for g in grams)
        for k in range(3):
            a = 0.5 * np.exp(2j * np.pi * k / 3)
            num, den = restrict_balanced(br, [MoebiusMap(a)])[0]
            assert check_unimodular(num, den) < 1e-6
            assert roots_in_disk(num).size <= i1.positive + i2.positive
            assert roots_in_disk(den).size <= i1.negative + i2.negative


    @pytest.mark.parametrize("a", [0.0, 0.5, -0.3 + 0.6j, 0.9j])
    def test_restriction_matches_direct(self, a):
        rng = np.random.default_rng(15)
        p = random_bidisk_problem(rng, n_max=3)
        pair = random_two_variable_pair(p, rng)
        br = to_birational(build_bidisk_realization(p, pair, regularize_pair(pair)))
        m = MoebiusMap(a)
        num, den = restrict_balanced(br, [m])[0]
        checked = 0
        for _ in range(40):
            z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.6
            dv = br.denominator(z, m(z))
            if abs(dv) < 1e-6 * br.denominator.norm() or abs(den(z)) < 1e-6 * den.norm():
                continue
            direct = br.numerator(z, m(z)) / dv
            assert abs(num(z) / den(z) - direct) < 1e-8 * (1.0 + abs(direct))
            checked += 1
        assert checked >= 20


class TestShiftedSolves:
    @staticmethod
    def _setup():
        rng = np.random.default_rng(8)
        p = random_bidisk_problem(rng, n_max=3)
        while p.size < 3:
            p = random_bidisk_problem(rng, n_max=3)
        return p, one_variable_pair(p, 0), rng

    def test_forced_weak_node_gets_a_factor_in_z1(self, monkeypatch):
        p, pair, rng = self._setup()
        plain, d, *_ = _shifted_denominator(p, pair, 0)
        check_interpolation = disk_module.check_interpolation

        def fail_at_1(*args):
            statuses = check_interpolation(*args)
            statuses[1] = "fail"
            return statuses

        monkeypatch.setattr(disk_module, "check_interpolation", fail_at_1)
        den, d_forced, *_ = _shifted_denominator(p, pair, 0)
        assert d_forced == (d[0] + 2, d[1])
        factor = vacuous_node_factor(p.nodes[1, 0])
        z1, z2 = (rng.uniform(-1, 1, (2, 20)) + 1j * rng.uniform(-1, 1, (2, 20))) * 0.9
        expected = plain(z1, z2) * factor(z1)
        assert np.allclose(den(z1, z2), expected, rtol=1e-10, atol=1e-12 * den.norm())
        assert np.max(np.abs(den(p.nodes[1, 0], z2))) < 1e-12 * den.norm()

    def test_unequal_shift_bidegrees_padded_to_common(self, monkeypatch):
        # Shift 0 gains two degrees in z1 and shift 1 two in z2, so every
        # shift is padded in at least one variable.
        p, pair, rng = self._setup()
        shifted = bidisk_module._shifted_denominator
        raw = []

        def unequal(problem, pair, j):
            den, d, *rest = shifted(problem, pair, j)
            if j == 0:
                den, d = den * vacuous_node_factor(problem.nodes[1, 0]), (d[0] + 2, d[1])
            elif j == 1:
                factor = vacuous_node_factor(problem.nodes[0, 1]).coeffs.reshape(1, -1)
                den, d = den * Poly(factor), (d[0], d[1] + 2)
            raw.append((den, d))
            return (den, d, *rest)

        monkeypatch.setattr(bidisk_module, "_shifted_denominator", unequal)
        family = solve_bidisk_shifts(p, pair)
        bidegree = tuple(max(d[r] for _, d in raw) for r in range(2))
        assert family.refl_degree == bidegree
        assert raw[0][1][0] == bidegree[0] > raw[1][1][0]
        assert raw[1][1][1] == bidegree[1] > raw[0][1][1]
        z1, z2 = (rng.uniform(-1, 1, (2, 20)) + 1j * rng.uniform(-1, 1, (2, 20))) * 0.9
        lam, w = p.nodes, p.values
        for den, (old, d) in zip(family.dens, raw):
            gap = np.subtract(bidegree, d)
            expected = old(z1, z2) * (1 + z1) ** gap[0] * (1 + z2) ** gap[1]
            assert np.allclose(den(z1, z2), expected, rtol=1e-10, atol=1e-12 * den.norm())
            num = poly_reflect(den, bidegree)
            scale = max(den.norm(), num.norm())
            residual = np.abs(num(lam[:, 0], lam[:, 1]) - w * den(lam[:, 0], lam[:, 1]))
            assert np.all(residual <= 1e-7 * scale * (1 + np.abs(w)))


    def test_failing_shift_is_dropped(self, monkeypatch):
        p, pair, _ = self._setup()
        shifted = bidisk_module._shifted_denominator

        def failing_at_0(problem, pair, j):
            if j == 0:
                raise BidiskSolveError("lost strict interpolation at the re-centered node 0")
            return shifted(problem, pair, j)

        monkeypatch.setattr(bidisk_module, "_shifted_denominator", failing_at_0)
        assert len(solve_bidisk_shifts(p, pair).dens) == p.size - 1
        sol = solve_bidisk(p, pair, seed=0)
        assert sol.certificates["pass"]
        assert sol.node_status == ["strict"] * p.size

    def test_every_shift_failing_is_a_solve_error(self, monkeypatch):
        p, pair, _ = self._setup()

        def failing(problem, pair, j):
            raise BidiskSolveError("lost strict interpolation")

        monkeypatch.setattr(bidisk_module, "_shifted_denominator", failing)
        with pytest.raises(SolveError, match="every shifted solve failed"):
            solve_bidisk_shifts(p, pair)

    def test_no_combination_avoiding_a_node(self):
        # Every denominator of the family carries the factor z1 - lam1 of node 1.
        p, pair, _ = self._setup()
        family = solve_bidisk_shifts(p, pair)
        factor = Poly(np.array([[-p.nodes[1, 0]], [1.0]]))
        d = (family.refl_degree[0] + 1, family.refl_degree[1])
        vanishing = replace(family, dens=[den * factor for den in family.dens], refl_degree=d)
        inertias = tuple(g.inertia for g in regularize_pair(pair))
        with pytest.raises(CombinationError) as info:
            combine_bidisk(vanishing, p, inertias, np.random.default_rng(0))
        assert len(info.value.residuals) == 64

    @pytest.mark.parametrize("kind", [0, 1, 2])
    def test_transported_pair_keeps_both_inertias(self, kind):
        # combine_bidisk takes the pair's inertias for every shift: the
        # transport is a diagonal congruence of each term.
        p, _, rng = self._setup()
        pair = random_two_variable_pair(p, rng) if kind == 2 else one_variable_pair(p, kind)
        inertias = [g.inertia for g in regularize_pair(pair)]
        for j in range(p.size):
            _, shifted_pair, _ = _transport_pair(p, pair, j)
            assert [g.inertia for g in regularize_pair(shifted_pair)] == inertias


class TestSolveBidisk:
    def test_single_solve_error_kept_as_cause(self, monkeypatch):
        p, pair, _ = TestShiftedSolves._setup()

        def single_fails(den, d, problem, stage, inertias):
            raise SolveError(f"{stage} is not strict at all nodes: forced")

        def shifts_fail(problem, pair):
            raise SolveError("every shifted solve failed: forced")

        monkeypatch.setattr(bidisk_module, "_strict_bidisk", single_fails)
        monkeypatch.setattr(bidisk_module, "solve_bidisk_shifts", shifts_fail)
        with pytest.raises(SolveError, match="every shifted solve failed") as info:
            solve_bidisk(p, pair, seed=0)
        assert str(info.value.__cause__) == "single solve is not strict at all nodes: forced"

    def test_single_solve_extraction_breakdown_reaches_the_shifts(self, monkeypatch):
        # The single solve's extraction is the first call; it breaks down, and
        # the shifts' own extractions go through.
        extract, shifts, calls = bidisk_module.to_birational, solve_bidisk_shifts, []

        def first_breaks_down(r):
            calls.append("extract")
            if len(calls) == 1:
                raise ExtensionError("forced")
            return extract(r)

        def counted(problem, pair):
            calls.append("shifts")
            return shifts(problem, pair)

        monkeypatch.setattr(bidisk_module, "to_birational", first_breaks_down)
        monkeypatch.setattr(bidisk_module, "solve_bidisk_shifts", counted)
        problem, pair, _ = load_problem(str(PAIR_FILE))
        sol = solve_bidisk(problem, pair, seed=0)
        assert calls[:2] == ["extract", "shifts"]
        assert sol.certificates["pass"]

    def test_bad_pair_raises_before_any_solve(self):
        rng = np.random.default_rng(4)
        p = random_bidisk_problem(rng, n_max=3)
        bad = AglerPair(gamma1=np.eye(p.size) * 5.0, gamma2=np.eye(p.size) * 5.0)
        with pytest.raises(PairValidationError):
            solve_bidisk(p, bad, seed=0)

    def test_default_pair_strict(self):
        rng = np.random.default_rng(8)
        p = random_bidisk_problem(rng, n_max=3)
        sol = solve_bidisk(p, seed=0)
        assert all(s == "strict" for s in sol.node_status)
        assert sol.certificates["pass"]

    def test_two_variable_pair_strict(self):
        rng = np.random.default_rng(9)
        p = random_bidisk_problem(rng, n_max=3)
        pair = random_two_variable_pair(p, rng)
        sol = solve_bidisk(p, pair, seed=0)
        assert sol.certificates["pass"]
        vals = np.array([sol(z1, z2) for z1, z2 in p.nodes])
        assert np.max(np.abs(vals - p.values)) < 1e-6 * (1 + np.max(np.abs(p.values)))

    def test_degenerate_equal_unimodular_values(self):
        nodes = np.array(
            [[0.0, 0.0], [0.3, 0.1], [-0.2, 0.4j]], dtype=complex
        )
        p = BidiskProblem(nodes=nodes, values=np.full(3, np.exp(0.5j)))
        sol = solve_bidisk(p, seed=0)
        assert sol.certificates["pass"]
        assert all(s == "strict" for s in sol.node_status)
        # Gamma1 = Gamma2 = 0: the answer is the constant.
        assert sol.bidegree == (0, 0)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(12)
        p = random_bidisk_problem(rng, n_max=2)
        s1 = solve_bidisk(p, seed=3)
        s2 = solve_bidisk(p, seed=3)
        assert np.allclose(s1.numerator.coeffs, s2.numerator.coeffs)
        assert np.allclose(s1.denominator.coeffs, s2.denominator.coeffs)

    def test_numerator_is_reflection_of_denominator(self):
        rng = np.random.default_rng(13)
        p = random_bidisk_problem(rng, n_max=3)
        sol = solve_bidisk(p, seed=1)
        ref = poly_reflect(sol.denominator, sol.bidegree)
        # The pair is reflective up to coefficient padding; compare as functions.
        for _ in range(16):
            z1 = np.exp(2j * np.pi * rng.uniform())
            z2 = np.exp(2j * np.pi * rng.uniform())
            assert abs(abs(sol.numerator(z1, z2)) - abs(sol.denominator(z1, z2))) < 1e-7 * sol.denominator.norm()

    def test_full_rank_pair_used_as_given(self):
        """Problem k = 2 of the N = 16, kind 0 cell of ``scripts/bidisk_stress.py``.

        Its pair is numerically full rank but near the edge: a rank test at a
        relative 1e-8 once widened it with random regularizing terms, and the
        extension of the widened lurking isometry then failed its J-unitarity
        check.  Taken as given, the pair gives a certified answer of
        bidegree (pi^1 + nu^1, 0).
        """
        rng = np.random.default_rng([888, 16, 2, 0])
        while True:
            nodes = (rng.uniform(-1, 1, (16, 2)) + 1j * rng.uniform(-1, 1, (16, 2))) * 0.5
            if all(np.max(np.abs(nodes[i] - nodes[j])) > 0.05
                   for i in range(16) for j in range(i + 1, 16)):
                break
        values = rng.uniform(0.3, 2.5, 16) * np.exp(2j * np.pi * rng.uniform(0, 1, 16))
        p = BidiskProblem(nodes=nodes, values=values)
        sol = solve_bidisk(p, one_variable_pair(p, 0), seed=2)
        assert sol.certificates["pass"]
        assert sol.bidegree == (16, 0)

    def test_twenty_nodes_single_solve_certifies(self, monkeypatch):
        """Problem k = 1 of the N = 20, kind 0 cell of ``scripts/bidisk_stress.py``.

        Its single-solve extraction differs from the realization by 1.8e-7 at
        seeded points; the certificate, not that difference, judges the
        answer, and passes the single solve's.
        """
        def shifts_not_run(problem, pair):
            raise AssertionError("the shifted solves ran")

        monkeypatch.setattr(bidisk_module, "solve_bidisk_shifts", shifts_not_run)
        rng = np.random.default_rng([888, 20, 1, 0])
        while True:
            nodes = (rng.uniform(-1, 1, (20, 2)) + 1j * rng.uniform(-1, 1, (20, 2))) * 0.5
            if all(np.max(np.abs(nodes[i] - nodes[j])) > 0.05
                   for i in range(20) for j in range(i + 1, 20)):
                break
        values = rng.uniform(0.3, 2.5, 20) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
        p = BidiskProblem(nodes=nodes, values=values)
        sol = solve_bidisk(p, one_variable_pair(p, 0), seed=1)
        assert sol.certificates["pass"]
        assert sol.node_status == ["strict"] * p.size


PAIR_FILE = Path(__file__).resolve().parent.parent / "problems" / "bidisk_pair.json"


class TestSingleSolve:
    @staticmethod
    def _problem():
        problem, pair, _ = load_problem(str(PAIR_FILE))
        return problem, pair

    def test_single_solve_answers_without_shifts(self, monkeypatch):
        def shifts_not_run(problem, pair):
            raise AssertionError("the shifted solves ran")

        monkeypatch.setattr(bidisk_module, "solve_bidisk_shifts", shifts_not_run)
        problem, pair = self._problem()
        sol = solve_bidisk(problem, pair, seed=0)
        assert sol.certificates["pass"]
        assert sol.node_status == ["strict"] * problem.size

    def test_shifts_answer_when_single_solve_breaks_down(self, monkeypatch):
        strict_tail, shifts, calls = bidisk_module.strict_tail, solve_bidisk_shifts, []

        def single_breaks_down(den, d, problem, stage):
            if stage == "single solve":
                raise SolveError("single solve is not strict at all nodes: forced")
            return strict_tail(den, d, problem, stage)

        def counted(problem, pair):
            calls.append(problem.size)
            return shifts(problem, pair)

        monkeypatch.setattr(bidisk_module, "strict_tail", single_breaks_down)
        monkeypatch.setattr(bidisk_module, "solve_bidisk_shifts", counted)
        problem, pair = self._problem()
        sol = solve_bidisk(problem, pair, seed=0)
        assert calls == [problem.size]
        assert sol.certificates["pass"]

    def test_repeated_solves_byte_identical(self, tmp_path):
        problem, pair = self._problem()
        texts = []
        for name in ("first.json", "second.json"):
            sol = solve_bidisk(problem, pair, seed=0)
            dump_json(bidisk_result_to_dict(sol, problem, pair), str(tmp_path / name))
            texts.append((tmp_path / name).read_bytes())
        assert texts[0] == texts[1]


class TestRestrictionRoots:
    @pytest.mark.parametrize("f1, f2", [([1.0, -0.3], [1.0, 0.2]), ([-0.3, 1.0], [0.2, 1.0])],
                             ids=["roots-outside", "roots-inside"])
    @pytest.mark.parametrize("a", [0.0, 0.4 - 0.3j, -0.55j])
    def test_common_factor_gives_same_counts(self, f1, f2, a):
        """A shared (1 - 0.3 z1)(1 + 0.2 z2), or (z1 - 0.3)(z2 + 0.2) whose restriction
        has its roots inside the disk, cancels: the counts are those of the pair without it."""
        den = Poly(np.array([[1.0, -0.3], [-0.4, 0.0]]))
        base = Rational(poly_reflect(den, (1, 1)), den)
        common = Poly(np.array(f1)[:, None]) * Poly(np.array(f2)[None, :])
        shared = Rational(base.numerator * common, base.denominator * common)
        m = MoebiusMap(a)
        num0, den0 = restrict_balanced(base, [m])[0]
        num1, den1 = restrict_balanced(shared, [m])[0]
        assert (num1.degree, den1.degree) == (num0.degree, den0.degree)
        assert (roots_in_disk(num1).size, roots_in_disk(den1).size) == (
            roots_in_disk(num0).size, roots_in_disk(den0).size)

    def test_certificate_finds_each_restriction_root_once(self, monkeypatch):
        # Every companion matrix goes to np.linalg.eigvals once, in one stack per size.
        problem, pair, _ = load_problem(str(PAIR_FILE))
        sol = solve_bidisk(problem, pair, seed=0, certify=False)
        eigvals, sizes, matrices = np.linalg.eigvals, [], []

        def counted(a):
            sizes.append(a.shape[-1])
            matrices.append(a.shape[0] if a.ndim == 3 else 1)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        assert certify_bidisk(sol, problem)["pass"]
        assert 0 < sum(matrices) <= 2 * BALANCED_RESTRICTIONS
        assert len(sizes) == len(set(sizes))

    @pytest.mark.parametrize("source", ["pair-file", "generic"])
    def test_all_maps_at_once_equal_each_alone(self, source):
        if source == "pair-file":
            problem, pair, _ = load_problem(str(PAIR_FILE))
            br = solve_bidisk(problem, pair, seed=0, certify=False)
        else:
            rng = np.random.default_rng(15)
            p = random_bidisk_problem(rng, n_max=3)
            pair = random_two_variable_pair(p, rng)
            br = to_birational(build_bidisk_realization(p, pair, regularize_pair(pair)))
        assert min(br.denominator.degrees) > 0
        maps = [MoebiusMap(a) for a in (0.0, 0.5, -0.3 + 0.6j, 0.9j, 0.2 - 0.55j)]
        together = restrict_balanced(br, maps)
        assert len(together) == len(maps)
        for m, restricted in zip(maps, together):
            for p, q in zip(restricted, restrict_balanced(br, [m])[0]):
                assert p.coeffs.shape == q.coeffs.shape
                assert p.coeffs.tobytes() == q.coeffs.tobytes()


class TestBidegreeVerdict:
    @staticmethod
    def _certify(numerator):
        # One node, phi(0.5, 0.5) = 0.5, all weight on the first coordinate:
        # the inertias are (1, 0, 0) and (0, 0, 1), so the bidegree bound is (1, 0).
        problem = BidiskProblem(nodes=np.array([[0.5, 0.5]]), values=np.array([0.5]))
        inertias = tuple(g.inertia for g in regularize_pair(one_variable_pair(problem, 0)))
        assert [i.as_tuple() for i in inertias] == [(1, 0, 0), (0, 0, 1)]
        den = Poly(np.ones((1, 1)))
        sol = BidiskSolution(numerator=Poly(np.array(numerator)), denominator=den,
                             bidegree=(0, 0), inertias=inertias, node_status=["strict"])
        return certify_bidisk(sol, problem)

    def test_numerator_degree_counts(self):
        # phi = z2 interpolates and is inner, but its bidegree (0, 1) exceeds the bound.
        cert = self._certify([[0.0, 1.0]])
        assert cert["bidegree"] == (0, 1) and cert["bidegree_bound"] == (1, 0)
        assert not cert["verdicts"]["bidegree"] and not cert["pass"]
        assert all(ok for name, ok in cert["verdicts"].items() if name != "bidegree")

    def test_within_bound_passes(self):
        cert = self._certify([[0.0], [1.0]])
        assert cert["bidegree"] == (1, 0) and cert["pass"]


class TestCertificateWork:
    def test_bidisk_certificate_computes_each_quantity_once(self, monkeypatch):
        # One reflection defect feeds both the torus bound and the toral verdict,
        # and one evaluation of num and den at the nodes feeds the statuses and
        # the residuals; the torus bound still runs through its two checks.
        import takagi.verify as verify_module

        problem, pair, _ = load_problem(str(PAIR_FILE))
        sol = solve_bidisk(problem, pair, seed=0, certify=False)
        expected = certify_bidisk(sol, problem)
        calls = {"reflection_defect": 0, "torus_unimodularity": 0, "check_unimodular": 0}
        for name in calls:
            original = getattr(verify_module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(verify_module, name, counted)
        node_shape, at_nodes, poly_call = (problem.size,), [], Poly.__call__

        def recorded(self, *z):
            if all(np.shape(x) == node_shape for x in z):
                at_nodes.append(self)
            return poly_call(self, *z)

        monkeypatch.setattr(Poly, "__call__", recorded)
        assert certify_bidisk(sol, problem) == expected
        assert calls == {"reflection_defect": 1, "torus_unimodularity": 1, "check_unimodular": 1}
        assert len(at_nodes) == 2 and at_nodes[0] is sol.numerator and at_nodes[1] is sol.denominator
