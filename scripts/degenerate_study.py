#!/usr/bin/env python3
"""Degenerate interpolation study: singular matrices force the degree up.

Two experiments:
  * the reference family (first node 0 with target 0, remaining targets 1),
    whose matrix has inertia (1, 1, N-2) and whose solutions need degree
    at least N-1;
  * engineered rank-deficient problems obtained by sampling a quotient of
    coprime Blaschke products at more nodes than its degree, checking the
    augmented inertia count (deg f, deg g, 0).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from takagi.disk import solve
from takagi.linalg import hermitian_inertia
from takagi.pick import DiskProblem, pick_matrix
from takagi.polynomials import BlaschkeProduct
from takagi.verify import augmented_inertia


@dataclass(frozen=True)
class StudyConfig:
    n_min: int = 3
    n_max: int = 6
    n_engineered: int = 25
    seed: int = 0


def reference_family(cfg: StudyConfig) -> None:
    print("reference family (first target 0, remaining targets 1):")
    for N in range(cfg.n_min, cfg.n_max + 1):
        nodes = np.concatenate(
            [[0.0], 0.5 * np.exp(2j * np.pi * np.arange(N - 1) / (N - 1))]
        )
        values = np.concatenate([[0.0], np.ones(N - 1)])
        problem = DiskProblem(nodes=nodes, values=values)
        G = pick_matrix(problem)
        inertia, _, _ = hermitian_inertia(G)
        sol = solve(problem, seed=0)
        print(
            f"  N={N}: inertia {inertia.as_tuple()}, "
            f"deg f={sol.f.degree}, deg g={sol.g.degree}, "
            f"certificate {'PASS' if sol.certificates['pass'] else 'FAIL'}"
        )


def engineered(cfg: StudyConfig) -> None:
    rng = np.random.default_rng(cfg.seed)
    print(f"{cfg.n_engineered} engineered rank-deficient problems:")
    failures = 0
    for trial in range(cfg.n_engineered):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        zeta = int(rng.integers(1, 3))
        while True:
            zf = (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)) * 0.6
            zg = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * 0.6
            if np.min(np.abs(zf[:, None] - zg[None, :])) > 0.1:
                break
        f = BlaschkeProduct(zeros=tuple(zf))
        g = BlaschkeProduct(zeros=tuple(zg))
        N = m + n + zeta
        while True:
            nodes = (rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)) * 0.6
            seps = [abs(nodes[i] - nodes[j]) for i in range(N) for j in range(i + 1, N)]
            if (not seps or min(seps) > 0.15) and min(
                abs(z - a) for z in nodes for a in zg
            ) > 0.15:
                break
        problem = DiskProblem(nodes=nodes, values=f(nodes) / g(nodes))
        sol = solve(problem, seed=trial)
        res = augmented_inertia(
            sol.interpolant.numerator, sol.interpolant.denominator, problem
        )
        ok = res.inertia.as_tuple() == (sol.f.degree, sol.g.degree, 0)
        failures += 0 if ok else 1
        print(
            f"  trial {trial}: built from degrees ({m},{n}) + {zeta} extra nodes, "
            f"solution degrees ({sol.f.degree},{sol.g.degree}), "
            f"augmented inertia {res.inertia.as_tuple()} {'ok' if ok else 'MISMATCH'}"
        )
    print(f"engineered study: {failures} failures")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    defaults = StudyConfig()
    parser.add_argument("--n-min", type=int, default=defaults.n_min)
    parser.add_argument("--n-max", type=int, default=defaults.n_max)
    parser.add_argument("--n-engineered", type=int, default=defaults.n_engineered)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    args = parser.parse_args()
    cfg = StudyConfig(
        n_min=args.n_min,
        n_max=args.n_max,
        n_engineered=args.n_engineered,
        seed=args.seed,
    )
    reference_family(cfg)
    engineered(cfg)


if __name__ == "__main__":
    main()
