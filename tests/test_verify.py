from dataclasses import replace

import numpy as np
import pytest

from takagi.disk import enforce_weak_interpolation, solve
from takagi.io import load_problem
from takagi.linalg import Inertia, hermitian_inertia
from takagi.pick import DiskProblem, pick_matrix
from takagi.bidisk import toral_check
from takagi.polynomials import (
    BlaschkeProduct,
    Poly,
    Rational,
    boundary_values,
    midpoint_angles,
    poly_reflect,
)
from takagi.verify import (
    POLE_EXCLUSION,
    TORAL_NUMERATOR,
    OracleError,
    augmented_inertia,
    certify_disk,
    check_interpolation,
    check_unimodular,
    count_zeros_poles,
    interior_points,
    lemma_inertia_oracle,
    node_status,
    near_pole,
    pick_matrix_of_function,
    reflection_defect,
    sampled_kernel_inertia,
)


def blaschke_pair(rng, m, n, min_sep=0.05):
    """Coprime Blaschke products of degrees m and n."""
    while True:
        zf = (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)) * 0.6
        zg = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * 0.6
        if m == 0 or n == 0 or np.min(np.abs(zf[:, None] - zg[None, :])) > min_sep:
            return BlaschkeProduct(zeros=tuple(zf)), BlaschkeProduct(zeros=tuple(zg))


def sample_points(rng, count, avoid, min_sep=0.05):
    pts = []
    while len(pts) < count:
        z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.7
        if abs(z) >= 0.95:
            continue
        if avoid and min(abs(z - a) for a in avoid) < min_sep:
            continue
        if pts and min(abs(z - p) for p in pts) < min_sep:
            continue
        pts.append(z)
    return np.array(pts)


class TestInterpolationCheck:
    def test_strict_and_vacuous(self):
        # phi = z interpolates 0.3 -> 0.3 strictly.
        p = DiskProblem(nodes=np.array([0.3]), values=np.array([0.3]))
        statuses = check_interpolation(
            Poly(np.array([0.0, 1.0])), Poly(np.array([1.0])), p
        )
        assert statuses == ["strict"]

    def test_violated(self):
        p = DiskProblem(nodes=np.array([0.3]), values=np.array([2.0]))
        statuses = check_interpolation(
            Poly(np.array([0.0, 1.0])), Poly(np.array([1.0])), p
        )
        assert statuses[0] not in ("strict",)

    def test_small_denominator_node_is_weak_in_both_stages(self):
        # den(0) = 1e-4 is clear of zero against the unit coefficient scale,
        # but num/den misses w by 1e-4, so the node is not strict; the cleared
        # residual 1e-8 is small against the scale, so it is weak.  The weak
        # stage and the strict stage classify it alike, and the weak stage
        # adjoins no factor.
        w = 0.5 - 0.25j
        den = Poly(np.array([1e-4, 1.0, np.conj(w * 1e-4 + 1e-8)]))
        num = poly_reflect(den, 2)
        p = DiskProblem(nodes=np.array([0.0]), values=np.array([w]))
        assert node_status([num(0.0)], [den(0.0)], p.values, 1.0) == ["weak"]
        assert check_interpolation(num, den, p) == ["weak"]
        den2, d2, statuses = enforce_weak_interpolation(den, 2, p)
        assert statuses == ["weak"] and d2 == 2
        assert np.array_equal(den2.coeffs, den.coeffs)


class TestUnimodularCheck:
    def test_blaschke_quotient_is_unimodular(self):
        rng = np.random.default_rng(0)
        f, g = blaschke_pair(rng, 2, 1)
        fn, fd = f.as_rational()
        gn, gd = g.as_rational()
        assert check_unimodular(fn * gd, fd * gn) < 1e-10

    def test_contraction_flagged(self):
        defect = check_unimodular(Poly(np.array([0.5])), Poly(np.array([1.0])))
        assert defect > 0.4


def grid_defect(num, den, samples):
    """max | |num/den| - 1 | on the boundary grid, off the points near a pole."""
    qv = boundary_values(den, samples)
    keep = ~near_pole(qv)
    return float(np.max(np.abs(np.abs(boundary_values(num, samples)[keep] / qv[keep]) - 1.0)))


def coefficient_toral(num, den):
    """The certificate's ``toral`` rule, from the coefficients alone."""
    reflection = reflection_defect(num, den) / np.linalg.norm(den.coeffs)
    return reflection * (1 + TORAL_NUMERATOR) <= TORAL_NUMERATOR - POLE_EXCLUSION


def random_coeffs(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestCoefficientBound:
    @pytest.mark.parametrize("degrees", [(3,), (6,), (2, 3), (4, 4)])
    def test_bound_covers_the_grid_defect(self, degrees):
        rng = np.random.default_rng(sum(degrees))
        samples = 256 if len(degrees) == 1 else 64
        shape = tuple(k + 1 for k in degrees)
        for trial in range(20):
            den = Poly(random_coeffs(rng, shape))
            if trial < 5:  # an unrelated numerator
                num = Poly(random_coeffs(rng, shape))
            else:  # a reflective numerator moved by 10^-9 to 10^-1
                eps = 10.0 ** -rng.uniform(1, 9)
                c = np.exp(2j * np.pi * rng.uniform())
                num = c * poly_reflect(den, degrees) + Poly(eps * random_coeffs(rng, shape))
            assert check_unimodular(num, den, samples) >= grid_defect(num, den, samples) - 1e-12

    def test_exact_reflection_has_zero_defect(self):
        den = Poly(random_coeffs(np.random.default_rng(1), (4, 3)))
        assert reflection_defect(poly_reflect(den, (3, 2)), den) == 0.0

    def test_coefficient_toral_pass_implies_grid_pass(self):
        # den vanishes on the line z1 = zeta through a column of the 256 grid,
        # and so does its reflection; a perturbation eps of the numerator
        # leaves |num| = eps there, which the grid scan flags once it is large.
        rng = np.random.default_rng(5)
        zeta = np.exp(1j * midpoint_angles(256)[0])
        line = Poly(np.array([[1.0], [-np.conj(zeta)]]))
        checked = passed = flagged = 0
        for eps in np.logspace(-5, -1, 17):
            for _ in range(3):
                den = line * Poly(random_coeffs(rng, (2, 3)) + 4.0)
                num = poly_reflect(den, den.degrees) + Poly(eps * random_coeffs(rng, (1, 1)))
                grid = toral_check(Rational(numerator=num, denominator=den), grid=256)
                checked += 1
                flagged += not grid.passed
                if coefficient_toral(num, den):
                    passed += 1
                    assert grid.passed
        assert 0 < passed < checked and flagged > 0


class TestCounts:
    def test_blaschke_quotient_counts(self):
        rng = np.random.default_rng(1)
        f, g = blaschke_pair(rng, 3, 2)
        fn, fd = f.as_rational()
        gn, gd = g.as_rational()
        zf, zg = count_zeros_poles(fn * gd, fd * gn)
        assert (zf, zg) == (3, 2)


class TestLemmaOracle:
    def test_inertia_matches_degrees(self):
        rng = np.random.default_rng(2)
        for m in range(4):
            for n in range(4):
                f, g = blaschke_pair(rng, m, n)
                pts = sample_points(rng, m + n, list(g.zeros))
                inertia = lemma_inertia_oracle(f, g, pts)
                assert inertia.as_tuple() == (m, n, 0)

    def test_wrong_point_count_rejected(self):
        rng = np.random.default_rng(3)
        f, g = blaschke_pair(rng, 1, 1)
        with pytest.raises(OracleError):
            lemma_inertia_oracle(f, g, np.array([0.1]))

    def test_shared_zero_rejected(self):
        f = BlaschkeProduct(zeros=(0.3,))
        g = BlaschkeProduct(zeros=(0.3,))
        with pytest.raises(OracleError):
            lemma_inertia_oracle(f, g, np.array([0.1, -0.1]))


class TestSampledKernel:
    def test_single_blaschke_positive(self):
        f = BlaschkeProduct(zeros=(0.4, -0.2j))
        num, den = f.as_rational()
        rng = np.random.default_rng(4)
        inertia = sampled_kernel_inertia(num, den, 6, rng)
        assert inertia.negative == 0
        assert inertia.positive <= 2

    def test_bounds_for_solver_output(self):
        rng = np.random.default_rng(5)
        p = DiskProblem(
            nodes=np.array([0.2 + 0.1j, -0.4, 0.3j]),
            values=np.array([1.8, 0.4 - 0.2j, -0.9j]),
        )
        sol = solve(p, seed=0)
        pi, nu, _ = sol.inertia.as_tuple()
        inertia = sampled_kernel_inertia(
            sol.interpolant.numerator, sol.interpolant.denominator, 8, rng
        )
        assert inertia.positive <= p.size - nu
        assert inertia.negative <= p.size - pi


def scalar_interior_points(n_points, rng, poles):
    """One candidate at a time: the reference that ``interior_points`` draws in rounds."""
    pts = []
    while len(pts) < n_points:
        z = (rng.uniform(-0.95, 0.95) + 1j * rng.uniform(-0.95, 0.95)) * 0.7
        if poles.size and np.min(np.abs(z - poles)) < 1e-3:
            continue
        if pts and min(abs(z - p) for p in pts) < 1e-3:
            continue
        pts.append(z)
    return np.array(pts)


class TestInteriorPoints:
    """The rounds give the one-at-a-time loop's points and leave the generator where it does."""

    GRID = np.linspace(-0.665, 0.665, 600)
    CASES = {
        "no-poles": (16, 3, np.zeros(0, dtype=complex)),
        # About a tenth of the square lies within 1e-3 of a pole: most rounds reject a candidate.
        "dense-poles": (32, 11, (GRID[:, None] + 1j * GRID[None, ::7]).ravel()),
        # Seed found by search: two candidates of the first round lie within 1e-3.
        "close-pair": (32, 2536, np.zeros(0, dtype=complex)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_scalar_loop(self, case):
        n_points, seed, poles = self.CASES[case]
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = scalar_interior_points(n_points, rng_ref, poles)
        pts = interior_points(n_points, rng, poles)
        assert pts.dtype == expected.dtype and pts.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_cases_exercise_rejections(self):
        def first_round(case):
            n_points, seed, _ = self.CASES[case]
            xy = np.random.default_rng(seed).uniform(-0.95, 0.95, size=(n_points, 2))
            return (xy[:, 0] + 1j * xy[:, 1]) * 0.7

        poles = self.CASES["dense-poles"][2]
        assert np.any(np.abs(np.subtract.outer(first_round("dense-poles"), poles)) < 1e-3)
        z = first_round("close-pair")
        assert np.any(np.triu(np.abs(np.subtract.outer(z, z)) < 1e-3, 1))


class TestCertificateInertia:
    """certify_disk decides (pi, nu, zeta) from the problem, not from the solution."""

    WRONG = [Inertia(0, 0, 3), Inertia(3, 0, 0)]

    def test_recorded_inertia_is_ignored(self):
        p, _, _ = load_problem("problems/disk_basic.json")
        sol = solve(p, seed=0)
        assert sol.inertia.as_tuple() == (2, 1, 0) and sol.certificates["pass"]
        for wrong in self.WRONG:
            cert = certify_disk(replace(sol, inertia=wrong), p)
            assert cert["verdicts"] == sol.certificates["verdicts"]

    def test_recorded_inertia_cannot_make_a_bound_vacuous(self):
        # A degree-(2, 2) interpolant of the same three nodes breaks the
        # degree window of the true inertia (2, 1, 0); a recorded (0, 0, 3)
        # would widen the window until both bounds hold.
        p, _, _ = load_problem("problems/disk_basic.json")
        wider = DiskProblem(np.append(p.nodes, 0.5 + 0.2j), np.append(p.values, 2.0))
        sol = solve(wider, seed=0)
        assert (sol.f.degree, sol.g.degree) == (2, 2)
        expected = certify_disk(sol, p)["verdicts"]
        assert not expected["degree_sandwich"] and not expected["kernel_bound"]
        for wrong in self.WRONG:
            assert certify_disk(replace(sol, inertia=wrong), p)["verdicts"] == expected


class TestAugmentedInertia:
    def test_nondegenerate_needs_no_extra_points(self):
        p = DiskProblem(
            nodes=np.array([0.2 + 0.1j, -0.4, 0.3j]),
            values=np.array([1.8, 0.4 - 0.2j, -0.9j]),
        )
        sol = solve(p, seed=0)
        num = sol.interpolant.numerator
        den = sol.interpolant.denominator
        res = augmented_inertia(num, den, p)
        assert res.inertia.as_tuple() == (sol.f.degree, sol.g.degree, 0)

    def test_degenerate_appends_level_points(self):
        p = DiskProblem(
            nodes=np.array([0.0, 0.5, -0.5, 0.5j]),
            values=np.array([0.0, 1.0, 1.0, 1.0]),
        )
        sol = solve(p, seed=0)
        num = sol.interpolant.numerator
        den = sol.interpolant.denominator
        res = augmented_inertia(num, den, p)
        assert res.n_appended == sol.f.degree + sol.g.degree - p.size
        assert res.inertia.as_tuple() == (sol.f.degree, sol.g.degree, 0)

    def test_level_points_taken_deepest_inside_the_disk(self):
        # Data of a degree-(2, 1) Blaschke quotient at four nodes (inertia
        # (2, 1, 1)); the solution has degrees (3, 2).  The first constant,
        # 1.3, puts its level point at |z| = 0.99998, which inflates the
        # largest eigenvalue to about 1e4 so that the relative cutoff swallows
        # a genuine eigenvalue near 1e-4.  The deepest level point is used.
        f = BlaschkeProduct(zeros=(-0.1343199218585769 + 0.2710570365309321j,
                                   -0.5245254018540344 - 0.4946785358886159j))
        g = BlaschkeProduct(zeros=(-0.1258899499704389 + 0.44822715734487856j,))
        nodes = np.array([-0.03323959589998621 - 0.4471163891413124j,
                          0.4951463203690627 - 0.5117245136032416j,
                          0.31910054128664683 - 0.5156084957169383j,
                          0.49838875213411904 + 0.44262515321678314j])
        p = DiskProblem(nodes=nodes, values=f(nodes) / g(nodes))
        sol = solve(p, seed=5)
        assert (sol.f.degree, sol.g.degree) == (3, 2)
        res = augmented_inertia(sol.interpolant.numerator, sol.interpolant.denominator, p)
        assert res.n_appended == 1
        assert np.max(np.abs(res.level_points)) < 0.99
        assert res.inertia.as_tuple() == (3, 2, 0)


class TestPickOfFunction:
    def test_matches_problem_matrix(self):
        p = DiskProblem(
            nodes=np.array([0.1, -0.2j]), values=np.array([2.0, 0.5])
        )
        G = pick_matrix_of_function(p.values, p.nodes)
        assert np.allclose(G, pick_matrix(p))

    def test_constant_unimodular_function_is_zero(self):
        pts = np.array([0.1, 0.2, -0.3j])
        G = pick_matrix_of_function(np.full(3, np.exp(0.7j)), pts)
        inertia, _, _ = hermitian_inertia(G, 1e-10)
        assert inertia.as_tuple() == (0, 0, 3)
