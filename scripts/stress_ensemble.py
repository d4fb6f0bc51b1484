#!/usr/bin/env python3
"""Stress ensemble past the benchmark pools: disk problems at N = 12 to 24.

Each cell is one node geometry and one N, with ``PROBLEMS`` problems.
Problem k of a cell is drawn from ``default_rng([777, N, k, len(geometry)])``
with the benchmark's generators (``perfbench/workloads.py``): nodes uniform in
the square of half-width 0.5 ("square") or the disk of radius 0.85 ("disk"),
at least 0.05 apart, and targets of modulus 0.2 to 3.  Each problem is solved
with ``seed=k`` and certified.  Per cell the script prints the certified
count, the certificate FAILs, the solver errors by cause, how many problems
ran the per-node shifted solves (``shifts``: the rank-degree solve's fallback,
counted as in ``scripts/pool_outcomes.py``), and how often the solver's
inertia of the Pick matrix (``gram_decompose``) agrees with the inertia
computed at 60 digits with mpmath (``tests/mp_reference.py``).  It reports; it
is not a gate.

``--tree`` names the source checkout whose ``src/takagi`` and ``perfbench/``
are imported, so the same script can measure an exported parent commit.

    python3 scripts/stress_ensemble.py
    python3 scripts/stress_ensemble.py --tree ../parent
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from pathlib import Path

# One BLAS thread, as in the benchmark; it must be set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))
from mp_reference import inertia_60_digits  # noqa: E402
from pool_outcomes import count_shift_calls  # noqa: E402

SIZES = (12, 16, 20, 24)
GEOMETRIES = ("square", "disk")
PROBLEMS = 24


def run(tree: Path) -> None:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from takagi.disk import solve
    from takagi.pick import DiskProblem, gram_decompose, pick_matrix
    from workloads import _disk_nodes, _square_nodes, _targets

    shift_calls = count_shift_calls()
    nodes_of = {"square": lambda rng, n: _square_nodes(rng, n, 0.5),
                "disk": lambda rng, n: _disk_nodes(rng, n, 0.85)}
    total, total_fail = 0, 0
    for geometry in GEOMETRIES:
        for n in SIZES:
            start = time.perf_counter()
            certified, cert_fail, agree, shifted, causes = 0, 0, 0, 0, Counter()
            for k in range(PROBLEMS):
                rng = np.random.default_rng([777, n, k, len(geometry)])
                nodes = nodes_of[geometry](rng, n)
                problem = DiskProblem(nodes=nodes, values=_targets(rng, n))
                decided = gram_decompose(pick_matrix(problem)).inertia.as_tuple()
                agree += decided == inertia_60_digits(problem.nodes, problem.values)
                before = shift_calls[0]
                try:
                    sol = solve(problem, seed=k)
                except Exception as exc:  # every solver failure is a recorded outcome
                    causes[f"{type(exc).__name__}: {str(exc).split(':')[0]}"] += 1
                    continue
                finally:
                    shifted += shift_calls[0] > before
                if sol.certificates["pass"]:
                    certified += 1
                else:
                    cert_fail += 1
            total, total_fail = total + certified, total_fail + cert_fail
            print(f"{geometry:6} N={n:2}: certified {certified}/{PROBLEMS}, "
                  f"certificate FAIL {cert_fail}, shifts {shifted}, "
                  f"inertia agrees {agree}/{PROBLEMS}, "
                  f"errors {dict(sorted(causes.items()))} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    cells = len(GEOMETRIES) * len(SIZES)
    print(f"certified {total}/{PROBLEMS * cells}, certificate FAIL {total_fail}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=str(REPO), help="source checkout to import")
    run(Path(parser.parse_args().tree).resolve())


if __name__ == "__main__":
    main()
