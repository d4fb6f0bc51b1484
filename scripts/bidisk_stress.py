#!/usr/bin/env python3
"""Stress ensemble past the benchmark pool: bidisk problems at N = 6 to 24.

Each cell is one N and one pair kind, with ``PROBLEMS`` problems.  Problem k
of a cell is drawn from ``default_rng([888, N, k, kind])`` with the body of
the benchmark's ``bidisk`` generator (``perfbench/workloads.py``): node pairs
uniform in the bidisk square of half-width 0.5, at least 0.05 apart, targets
of modulus 0.3 to 2.5, and the pair of the kind
(``bidisk_ensemble.random_pair``): all weight on the first (kind 0) or the
second (kind 1) coordinate, or a random Hermitian first term with the second
solved from the identity (kind 2).  Each problem is solved with ``seed=k``
and certified.  Per cell the script prints the certified count, the
certificate FAILs, how many problems ran the per-node shifted solves
(``shifts``: the single solve's fallback, counted as in
``scripts/pool_outcomes.py``) and how many of those the shifts certified,
the solver errors by cause, the single solve's causes of the errors that
the shifts raised (``single``: the error's ``__cause__``), the indices of the
problems not certified, and the time.  For kinds 0 and 1 it also solves the
same data on the disk in the weighted coordinate (nodes[:, kind],
``disk.solve`` with ``seed=k``) and prints how many problems the disk certifies (``disk``), a
reference for the bidisk pipeline on one-variable pairs.  The last line adds
up the shift counts, counts the errors whose class is not one of
``takagi``'s own, and counts the problems that the disk certifies and the
bidisk does not (``disk only``).  It reports; it is not a gate.

``--tree`` names the source checkout whose ``src/takagi`` and ``perfbench/``
are imported, so the same script can measure an exported parent commit.

    python3 scripts/bidisk_stress.py
    python3 scripts/bidisk_stress.py --tree ../parent
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from collections import Counter
from pathlib import Path

# One BLAS thread, as in the benchmark; it must be set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
from pool_outcomes import count_shift_calls  # noqa: E402

SIZES = (6, 8, 10, 12, 16, 20, 24)
KINDS = (0, 1, 2)
PROBLEMS = 12


def cells() -> list[tuple[int, int]]:
    return [(n, kind) for n in SIZES for kind in KINDS]


def stress_problem(n: int, kind: int, k: int):
    """(problem, pair) k of the cell (n, kind); needs the tree's takagi and perfbench importable."""
    from bidisk_ensemble import random_pair
    from takagi.bidisk import BidiskProblem
    from workloads import _separated, _targets

    rng = np.random.default_rng([888, n, k, kind])
    while True:
        nodes = (rng.uniform(-1, 1, (n, 2)) + 1j * rng.uniform(-1, 1, (n, 2))) * 0.5
        if _separated(nodes, 0.05):
            break
    problem = BidiskProblem(nodes=nodes, values=_targets(rng, n, 0.3, 2.5))
    return problem, random_pair(problem, kind, rng)


def cause(exc: BaseException) -> str:
    """Class and message head of a solver error, the key its tallies count."""
    return f"{type(exc).__name__}: {re.split(r'[:(]', str(exc))[0].strip()}"


def disk_certifies(problem, kind: int, k: int) -> bool:
    """Whether ``disk.solve`` certifies the data in coordinate ``kind`` with ``seed=k``."""
    from takagi.disk import solve
    from takagi.pick import DiskProblem

    try:
        sol = solve(DiskProblem(nodes=problem.nodes[:, kind], values=problem.values), seed=k)
    except Exception:  # a failed disk solve certifies nothing
        return False
    return bool(sol.certificates["pass"])


def run(tree: Path) -> None:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from takagi.bidisk import solve_bidisk

    shift_calls = count_shift_calls()
    total, total_fail, untyped, total_shifted, total_shift_certified = 0, 0, 0, 0, 0
    total_disk_only = 0
    for n, kind in cells():
        start = time.perf_counter()
        certified, cert_fail, missed, causes, single_causes = 0, 0, [], Counter(), Counter()
        shifted, shift_certified = 0, 0
        disk_certified = 0
        for k in range(PROBLEMS):
            problem, pair = stress_problem(n, kind, k)
            before = shift_calls[0]
            passed = False
            try:
                sol = solve_bidisk(problem, pair, seed=k)
            except Exception as exc:  # every solver failure is a recorded outcome
                causes[cause(exc)] += 1
                if exc.__cause__ is not None:
                    single_causes[cause(exc.__cause__)] += 1
                untyped += not type(exc).__module__.startswith("takagi")
                missed.append(k)
            else:
                passed = sol.certificates["pass"]
                if passed:
                    certified += 1
                else:
                    cert_fail += 1
                    missed.append(k)
            ran_shifts = shift_calls[0] > before
            shifted += ran_shifts
            shift_certified += ran_shifts and passed
            # After the shift count: the disk solve's own shifts are not the bidisk's.
            if kind < 2 and disk_certifies(problem, kind, k):
                disk_certified += 1
                total_disk_only += not passed
        total, total_fail = total + certified, total_fail + cert_fail
        total_shifted += shifted
        total_shift_certified += shift_certified
        disk = f"disk {disk_certified}/{PROBLEMS}, " if kind < 2 else ""
        print(f"N={n:2} kind {kind}: certified {certified}/{PROBLEMS}, "
              f"certificate FAIL {cert_fail}, shifts {shifted} (certified {shift_certified}), "
              f"{disk}errors {dict(sorted(causes.items()))}, "
              f"single {dict(sorted(single_causes.items()))}, "
              f"missed {missed} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"certified {total}/{PROBLEMS * len(cells())}, certificate FAIL {total_fail}, "
          f"shifts {total_shifted} (certified {total_shift_certified}), "
          f"untyped errors {untyped}, disk only {total_disk_only}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=str(REPO), help="source checkout to import")
    run(Path(parser.parse_args().tree).resolve())


if __name__ == "__main__":
    main()
