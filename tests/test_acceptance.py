"""End-to-end acceptance gate.

Each criterion prints a single PASS/FAIL line with its headline numbers; the
ensembles are seeded so every run sees the same instances.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from takagi.bidisk import (
    AglerPair,
    BidiskProblem,
    restrict_balanced,
    solve_bidisk,
    toral_check,
)
from takagi.disk import solve
from takagi.krein import (
    SignatureMatrix,
    extend_j_isometry,
    j_unitarity_defect,
)
from takagi.linalg import hermitian_inertia, hermitize
from takagi.pick import DiskProblem, pick_matrix
from takagi.polynomials import BlaschkeProduct, MoebiusMap, roots_in_disk
from takagi.verify import (
    augmented_inertia,
    check_unimodular,
    lemma_inertia_oracle,
    sampled_kernel_inertia,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def distinct_nodes(rng, N, radius=0.6, min_sep=5e-2):
    while True:
        nodes = (rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)) * radius
        if N == 1 or min(
            abs(nodes[i] - nodes[j]) for i in range(N) for j in range(i + 1, N)
        ) > min_sep:
            return nodes


def coprime_blaschke(rng, m, n, min_sep=0.05):
    while True:
        zf = (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)) * 0.6
        zg = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * 0.6
        if m == 0 or n == 0 or np.min(np.abs(zf[:, None] - zg[None, :])) > min_sep:
            return (
                BlaschkeProduct(zeros=tuple(zf)),
                BlaschkeProduct(zeros=tuple(zg)),
            )


@pytest.fixture(scope="module")
def disk_ensemble():
    """200 random disk problems (N <= 6, value moduli in [0.2, 3]) and solutions."""
    rng = np.random.default_rng(20250825)
    out = []
    start = time.perf_counter()
    for trial in range(200):
        N = int(rng.integers(1, 7))
        nodes = distinct_nodes(rng, N)
        values = rng.uniform(0.2, 3.0, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
        problem = DiskProblem(nodes=nodes, values=values)
        out.append((problem, solve(problem, seed=trial)))
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def bidisk_ensemble():
    """100 bidisk pairs: one-variable embeddings plus genuine two-variable pairs."""
    rng = np.random.default_rng(31415)
    out = []
    start = time.perf_counter()
    for trial in range(100):
        N = int(rng.integers(1, 5))
        while True:
            nodes = (rng.uniform(-1, 1, (N, 2)) + 1j * rng.uniform(-1, 1, (N, 2))) * 0.5
            if all(
                np.max(np.abs(nodes[i] - nodes[j])) > 5e-2
                for i in range(N)
                for j in range(i + 1, N)
            ):
                break
        values = rng.uniform(0.3, 2.5, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
        problem = BidiskProblem(nodes=nodes, values=values)
        kind = trial % 3
        if kind == 2:
            lam, w = problem.nodes, problem.values
            lhs = 1.0 - np.outer(w, w.conj())
            g1 = hermitize(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
            g2 = (lhs - (1.0 - np.outer(lam[:, 0], lam[:, 0].conj())) * g1) / (
                1.0 - np.outer(lam[:, 1], lam[:, 1].conj())
            )
            pair = AglerPair(gamma1=g1, gamma2=hermitize(g2))
        else:
            lam = problem.nodes[:, kind]
            G = pick_matrix(DiskProblem(nodes=lam, values=problem.values))
            Z = np.zeros_like(G)
            pair = AglerPair(gamma1=G, gamma2=Z) if kind == 0 else AglerPair(gamma1=Z, gamma2=G)
        out.append((problem, pair, solve_bidisk(problem, pair, seed=trial)))
    return out, time.perf_counter() - start


def test_criterion_1_disk_end_to_end(disk_ensemble):
    """200 random problems: strict residual, unimodularity, degree window, <= 60 s."""
    solutions, elapsed = disk_ensemble
    worst_res = worst_defect = 0.0
    window_ok = True
    for problem, sol in solutions:
        vals = sol.interpolant(problem.nodes)
        res = float(np.max(np.abs(vals - problem.values)))
        res_tol = 1e-7 * (1.0 + float(np.max(np.abs(problem.values))))
        worst_res = max(worst_res, res / res_tol)
        defect = check_unimodular(
            sol.interpolant.numerator, sol.interpolant.denominator, samples=512
        )
        worst_defect = max(worst_defect, defect)
        pi, nu, zeta = sol.inertia.as_tuple()
        window_ok &= pi <= sol.f.degree <= pi + zeta
        window_ok &= nu <= sol.g.degree <= nu + zeta
    ok = worst_res <= 1.0 and worst_defect <= 1e-7 and window_ok and elapsed <= 60.0
    report(
        1,
        ok,
        f"200/200 disk problems, worst residual {worst_res:.2e} of tolerance, "
        f"unimodularity defect {worst_defect:.2e}, degree windows "
        f"{'ok' if window_ok else 'violated'}, {elapsed:.1f}s",
    )


def test_criterion_2_classical_recovery():
    """Positive matrices: constant x Blaschke of degree rank, no poles, 50 instances."""
    rng = np.random.default_rng(2)
    failures = 0
    for trial in range(50):
        k = int(rng.integers(1, 4))
        N = k + int(rng.integers(0, 3))
        b = BlaschkeProduct(
            zeros=tuple((rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)) * 0.6),
            constant=np.exp(2j * np.pi * rng.uniform()),
        )
        nodes = distinct_nodes(rng, N)
        values = b(nodes) if trial % 2 == 0 else 0.9 * b(nodes)
        problem = DiskProblem(nodes=nodes, values=values)
        evals = np.linalg.eigvalsh(pick_matrix(problem))
        rank = int(np.sum(evals > 1e-9 * max(1.0, float(np.max(np.abs(evals))))))
        sol = solve(problem, seed=trial)
        good = (
            sol.f.degree == rank
            and sol.g.degree == 0
            and abs(abs(sol.constant) - 1.0) < 1e-7
            and sol.certificates["pass"]
        )
        failures += 0 if good else 1
    report(2, failures == 0, f"50 positive-case instances, {failures} failures")


def test_criterion_3_degenerate_family():
    """lambda_1 = 0, w = (0,1,...,1): inertia (1,1,N-2) and degrees >= N-1."""
    results = []
    ok = True
    for N in (3, 4, 5):
        nodes = np.concatenate(
            [[0.0], 0.5 * np.exp(2j * np.pi * np.arange(N - 1) / (N - 1))]
        )
        values = np.concatenate([[0.0], np.ones(N - 1)])
        problem = DiskProblem(nodes=nodes, values=values)
        G = pick_matrix(problem)
        inertia, _, _ = hermitian_inertia(G)
        sol = solve(problem, seed=0)
        good = (
            inertia.as_tuple() == (1, 1, N - 2)
            and sol.f.degree >= N - 1
            and sol.g.degree >= N - 1
            and sol.certificates["pass"]
        )
        ok &= good
        results.append(f"N={N}:{inertia.as_tuple()},deg=({sol.f.degree},{sol.g.degree})")
    report(3, ok, "; ".join(results))


def test_criterion_4_inertia_oracle():
    """100 coprime Blaschke pairs per (m, n) in {0..3}^2 -> inertia (m, n, 0)."""
    rng = np.random.default_rng(4)
    failures = total = 0
    for m in range(4):
        for n in range(4):
            for _ in range(100):
                f, g = coprime_blaschke(rng, m, n, min_sep=0.1)
                pts = []
                while len(pts) < m + n:
                    z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.7
                    if abs(z) >= 0.95:
                        continue
                    if g.zeros and min(abs(z - a) for a in g.zeros) < 0.1:
                        continue
                    if pts and min(abs(z - p) for p in pts) < 0.15:
                        continue
                    pts.append(z)
                inertia = lemma_inertia_oracle(f, g, np.array(pts))
                total += 1
                failures += 0 if inertia.as_tuple() == (m, n, 0) else 1
    report(4, failures == 0, f"{total} coprime quotient instances, {failures} failures")


def test_criterion_5_kernel_inertia_bounds(disk_ensemble):
    """Sampled kernel of every output: <= N - nu positive, <= N - pi negative."""
    solutions, _ = disk_ensemble
    rng = np.random.default_rng(5)
    failures = 0
    for problem, sol in solutions:
        pi, nu, _ = sol.inertia.as_tuple()
        kernel = sampled_kernel_inertia(
            sol.interpolant.numerator,
            sol.interpolant.denominator,
            2 * problem.size,
            rng,
        )
        good = kernel.positive <= problem.size - nu and kernel.negative <= problem.size - pi
        failures += 0 if good else 1
    report(5, failures == 0, f"200 sampled kernels, {failures} bound violations")


def test_criterion_6_augmented_inertia():
    """50 engineered zeta >= 1 problems: augmented matrix has inertia (deg f, deg g, 0)."""
    rng = np.random.default_rng(6)
    failures = 0
    for trial in range(50):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        zeta = int(rng.integers(1, 3))
        f, g = coprime_blaschke(rng, m, n, min_sep=0.1)
        c = np.exp(2j * np.pi * rng.uniform())
        N = m + n + zeta
        while True:
            nodes = distinct_nodes(rng, N, min_sep=0.15)
            if min(abs(z - a) for z in nodes for a in g.zeros) > 0.15:
                break
        problem = DiskProblem(nodes=nodes, values=c * f(nodes) / g(nodes))
        G = pick_matrix(problem)
        inertia, _, _ = hermitian_inertia(G)
        sol = solve(problem, seed=trial)
        res = augmented_inertia(
            sol.interpolant.numerator, sol.interpolant.denominator, problem
        )
        good = (
            inertia.zero >= 1
            and res.inertia.as_tuple() == (sol.f.degree, sol.g.degree, 0)
        )
        failures += 0 if good else 1
    report(6, failures == 0, f"50 degenerate problems, {failures} failures")


def test_criterion_7_bidisk_end_to_end(bidisk_ensemble):
    """100 pairs: strict interpolation, torus unimodularity, bidegree and
    balanced-restriction bounds (25 random disks each), <= 120 s."""
    solutions, elapsed = bidisk_ensemble
    rng = np.random.default_rng(7)
    failures = 0
    restriction_failures = 0
    for problem, pair, sol in solutions:
        vals = np.array([sol(z1, z2) for z1, z2 in problem.nodes])
        res = float(np.max(np.abs(vals - problem.values)))
        ok = res <= 1e-7 * (1.0 + float(np.max(np.abs(problem.values))))
        ok &= bool(sol.certificates["verdicts"]["unimodular"])
        i1, i2 = sol.inertias
        ok &= sol.bidegree[0] <= i1.positive + i1.negative
        ok &= sol.bidegree[1] <= i2.positive + i2.negative
        failures += 0 if ok else 1
        zero_bound = i1.positive + i2.positive
        pole_bound = i1.negative + i2.negative
        for _ in range(25):
            a = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.6
            num, den = restrict_balanced(sol, [MoebiusMap(a)])[0]
            good = (
                check_unimodular(num, den) < 1e-6
                and roots_in_disk(num).size <= zero_bound
                and roots_in_disk(den).size <= pole_bound
            )
            restriction_failures += 0 if good else 1
    ok = failures == 0 and restriction_failures == 0 and elapsed <= 120.0
    report(
        7,
        ok,
        f"100 pairs ({failures} solve failures, {restriction_failures}/2500 "
        f"restriction failures), solves in {elapsed:.1f}s",
    )


def test_criterion_8_toral_certificate(bidisk_ensemble):
    """256-grid torus scan: no cell with q ~ 0 and p away from 0; few singular cells."""
    solutions, _ = bidisk_ensemble
    failures = 0
    for problem, pair, sol in solutions:
        rep = toral_check(sol, grid=256)
        k1, k2 = sol.bidegree
        good = rep.passed and rep.common_near_zero_cells <= k1 * k2
        failures += 0 if good else 1
    report(8, failures == 0, f"100 toral scans at grid 256, {failures} failures")


def test_criterion_9_extension_suite():
    """500 random partial J-isometries (n <= 10): defect and mapping residuals."""
    rng = np.random.default_rng(9)
    failures = 0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        n_pos = int(rng.integers(1, n))
        signs = np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        S = 0.6 * (A - A.conj().T) / 2
        U = expm(np.diag(signs).astype(complex) @ S)
        k = int(rng.integers(1, n + 1))
        D = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        D /= max(1.0, np.linalg.norm(D))
        R = U @ D
        J = SignatureMatrix(signs)
        try:
            V1 = extend_j_isometry(J, D, R)
        except Exception:
            failures += 1
            continue
        good = (
            j_unitarity_defect(J, V1) <= 1e-8 * n
            and np.linalg.norm(V1 @ D - R) <= 1e-8 * max(1.0, np.linalg.norm(R))
        )
        failures += 0 if good else 1
    report(9, failures == 0, f"500 random extensions, {failures} failures")
