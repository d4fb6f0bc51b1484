#!/usr/bin/env python3
"""Random bidisk ensemble: decomposition pairs, solves, and restriction checks.

Mixes one-variable embeddings (all decomposition weight on a single
coordinate) with genuinely two-variable pairs, solves each problem, and
verifies torus unimodularity, the toral certificate, and zero/pole bounds on
balanced-disk restrictions of the answer.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from takagi.bidisk import (
    AglerPair,
    BidiskProblem,
    one_variable_pair,
    restrict_balanced,
    solve_bidisk,
)
from takagi.linalg import hermitize
from takagi.polynomials import MoebiusMap, roots_in_disk
from takagi.verify import check_unimodular


@dataclass(frozen=True)
class BidiskEnsembleConfig:
    n_problems: int = 60
    n_max: int = 4
    seed: int = 0
    node_radius: float = 0.5
    min_modulus: float = 0.3
    max_modulus: float = 2.5
    n_restriction_maps: int = 10
    out: str | None = None


def random_problem(cfg: BidiskEnsembleConfig, rng: np.random.Generator) -> BidiskProblem:
    N = int(rng.integers(1, cfg.n_max + 1))
    while True:
        nodes = (rng.uniform(-1, 1, (N, 2)) + 1j * rng.uniform(-1, 1, (N, 2))) * cfg.node_radius
        if all(
            np.max(np.abs(nodes[i] - nodes[j])) > 5e-2
            for i in range(N)
            for j in range(i + 1, N)
        ):
            break
    values = rng.uniform(cfg.min_modulus, cfg.max_modulus, N) * np.exp(
        2j * np.pi * rng.uniform(0, 1, N)
    )
    return BidiskProblem(nodes=nodes, values=values)


def random_pair(problem: BidiskProblem, kind: int, rng: np.random.Generator) -> AglerPair:
    """kind 0/1: one-variable embedding; kind 2: generic two-variable pair."""
    if kind in (0, 1):
        return one_variable_pair(problem, kind)
    lam, w, N = problem.nodes, problem.values, problem.size
    lhs = 1.0 - np.outer(w, w.conj())
    g1 = hermitize(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
    g2 = (lhs - (1.0 - np.outer(lam[:, 0], lam[:, 0].conj())) * g1) / (
        1.0 - np.outer(lam[:, 1], lam[:, 1].conj())
    )
    return AglerPair(gamma1=g1, gamma2=hermitize(g2))


def run(cfg: BidiskEnsembleConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    failures = restriction_failures = 0
    start = time.perf_counter()
    for trial in range(cfg.n_problems):
        problem = random_problem(cfg, rng)
        pair = random_pair(problem, trial % 3, rng)
        sol = solve_bidisk(problem, pair, seed=trial)
        ok = bool(sol.certificates["pass"])
        failures += 0 if ok else 1
        i1, i2 = sol.inertias
        zero_bound = i1.positive + i2.positive
        pole_bound = i1.negative + i2.negative
        bad_maps = 0
        for _ in range(cfg.n_restriction_maps):
            a = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.6
            num, den = restrict_balanced(sol, [MoebiusMap(a)])[0]
            good = (
                check_unimodular(num, den) < 1e-6
                and roots_in_disk(num).size <= zero_bound
                and roots_in_disk(den).size <= pole_bound
            )
            bad_maps += 0 if good else 1
        restriction_failures += bad_maps
        rows.append(
            {
                "trial": trial,
                "size": problem.size,
                "pair_kind": trial % 3,
                "bidegree": list(sol.bidegree),
                "inertias": [list(i1.as_tuple()), list(i2.as_tuple())],
                "pass": ok,
                "bad_restriction_maps": bad_maps,
            }
        )
    elapsed = time.perf_counter() - start
    return {
        "config": asdict(cfg),
        "elapsed_seconds": elapsed,
        "failures": failures,
        "restriction_failures": restriction_failures,
        "rows": rows,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    defaults = BidiskEnsembleConfig()
    parser.add_argument("--n-problems", type=int, default=defaults.n_problems)
    parser.add_argument("--n-max", type=int, default=defaults.n_max)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument(
        "--n-restriction-maps", type=int, default=defaults.n_restriction_maps
    )
    parser.add_argument("--out", default=None, help="write the full JSON summary here")
    args = parser.parse_args()
    cfg = BidiskEnsembleConfig(
        n_problems=args.n_problems,
        n_max=args.n_max,
        seed=args.seed,
        n_restriction_maps=args.n_restriction_maps,
        out=args.out,
    )
    summary = run(cfg)
    print(
        f"{cfg.n_problems} problems in {summary['elapsed_seconds']:.1f}s: "
        f"{summary['failures']} certificate failures, "
        f"{summary['restriction_failures']} restriction failures"
    )
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"summary written to {cfg.out}")


if __name__ == "__main__":
    main()
