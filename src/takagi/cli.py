"""Command-line front end.

Subcommands: inertia, solve, verify, boundary-samples, lemma-check.
Exit codes: 0 success/all-pass, 1 input error, 2 certificate failure,
3 numerical breakdown.  The environment variable TAKAGI_SEED supplies the
default random seed; identical inputs and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import verify
from .bidisk import PairValidationError, solve_bidisk
from .disk import SolveError, solve
from .io import (
    ProblemFileError,
    bidisk_result_to_dict,
    disk_result_to_dict,
    dump_json,
    load_json,
    load_problem,
    result_to_solution,
)
from .krein import ExtensionError
from .linalg import hermitian_inertia
from .pick import DiskProblem, pick_matrix
from .polynomials import BlaschkeProduct, boundary_values, midpoint_angles

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERTIFICATE = 2
EXIT_NUMERICAL = 3


def _default_seed() -> int:
    raw = os.environ.get("TAKAGI_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ProblemFileError(f"TAKAGI_SEED must be an integer, got {raw!r}") from None


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.12g}{z.imag:+.12g}j"


def cmd_inertia(args) -> int:
    problem, pair, _ = load_problem(args.file)
    if isinstance(problem, DiskProblem):
        G = pick_matrix(problem)
        inertia, evals, _ = hermitian_inertia(G)
        print(f"N = {problem.size}")
        print("interpolation matrix:")
        for row in G:
            print("  " + "  ".join(_fmt_complex(z) for z in row))
        print("eigenvalues: " + "  ".join(f"{v:.12g}" for v in evals))
        print(f"inertia (pos,neg,zero): {inertia}")
        return EXIT_OK
    if pair is None:
        print("bidisk problems need gamma1/gamma2 for an inertia report", file=sys.stderr)
        return EXIT_INPUT
    for name, G in (("gamma1", pair.gamma1), ("gamma2", pair.gamma2)):
        inertia, evals, _ = hermitian_inertia(G)
        print(f"{name} eigenvalues: " + "  ".join(f"{v:.12g}" for v in evals))
        print(f"{name} inertia (pos,neg,zero): {inertia}")
    return EXIT_OK


def cmd_solve(args) -> int:
    problem, pair, _ = load_problem(args.file)
    seed = args.seed if args.seed is not None else _default_seed()
    if isinstance(problem, DiskProblem):
        solution = solve(problem, seed=seed)
        result = disk_result_to_dict(solution, problem)
    else:
        solution = solve_bidisk(problem, pair, seed=seed)
        result = bidisk_result_to_dict(solution, problem, pair)
    cert = solution.certificates
    if args.out:
        dump_json(result, args.out)
        print(f"result written to {args.out}")
    for key, ok in cert["verdicts"].items():
        print(f"  {key}: {'pass' if ok else 'FAIL'}")
    print(f"certificate: {'PASS' if cert['pass'] else 'FAIL'}")
    return EXIT_OK if cert["pass"] else EXIT_CERTIFICATE


def cmd_verify(args) -> int:
    data = load_json(args.file)
    solution, problem, _ = result_to_solution(data)
    if isinstance(problem, DiskProblem):
        cert = verify.certify_disk(solution, problem)
    else:
        cert = verify.certify_bidisk(solution, problem)
    for key, ok in cert["verdicts"].items():
        print(f"  {key}: {'pass' if ok else 'FAIL'}")
    print(f"certificate: {'PASS' if cert['pass'] else 'FAIL'}")
    return EXIT_OK if cert["pass"] else EXIT_CERTIFICATE


def cmd_boundary_samples(args) -> int:
    n = args.n
    if n < 1:
        print("n must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    data = load_json(args.file)
    solution, problem, _ = result_to_solution(data)
    disk = isinstance(problem, DiskProblem)
    phi = solution.interpolant if disk else solution
    num, den = phi.numerator, phi.denominator
    theta = midpoint_angles(n)
    qv = boundary_values(den, n)
    pv = boundary_values(num, n)
    flags = verify.near_pole(qv)
    print("theta,abs_phi,arg_phi,flag" if disk else "theta1,theta2,abs_phi,flag")
    for idx in np.ndindex(qv.shape):
        val = complex(np.nan) if flags[idx] else pv[idx] / qv[idx]
        cells = [f"{theta[k]:.12g}" for k in idx] + [f"{abs(val):.12g}"]
        if disk:
            cells.append(f"{np.angle(val):.12g}")
        print(",".join(cells + [str(int(flags[idx]))]))
    return EXIT_OK


def cmd_lemma_check(args) -> int:
    m, n = args.m, args.n
    if m < 0 or n < 0 or args.trials < 1:
        print("m, n must be >= 0 and trials >= 1", file=sys.stderr)
        return EXIT_INPUT
    rng = np.random.default_rng(args.seed if args.seed is not None else _default_seed())
    failures = 0
    for _ in range(args.trials):
        while True:
            fz = (rng.uniform(-0.9, 0.9, m) + 1j * rng.uniform(-0.9, 0.9, m)) * 0.7
            gz = (rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)) * 0.7
            if m == 0 or n == 0 or np.min(np.abs(fz[:, None] - gz[None, :])) > 1e-3:
                break
        f = BlaschkeProduct(zeros=tuple(fz))
        g = BlaschkeProduct(zeros=tuple(gz))
        pts = verify.interior_points(m + n, rng, gz)
        inertia = verify.lemma_inertia_oracle(f, g, pts)
        if inertia.as_tuple() != (m, n, 0):
            failures += 1
    print(f"trials: {args.trials}  expected inertia: ({m},{n},0)  failures: {failures}")
    return EXIT_OK if failures == 0 else EXIT_CERTIFICATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="takagi",
        description="Unimodular rational Pick interpolation on the disk and bidisk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inertia", help="interpolation-matrix inertia report for a problem file")
    p.add_argument("file")
    p.set_defaults(func=cmd_inertia)

    p = sub.add_parser("solve", help="solve a problem file and certify the result")
    p.add_argument("file")
    p.add_argument("--out", help="write the result JSON here")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-certify a result file from scratch")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "boundary-samples", help="comma-separated boundary samples of a result file"
    )
    p.add_argument("file")
    p.add_argument("--n", type=int, default=512, help="samples (per axis for bidisk results)")
    p.set_defaults(func=cmd_boundary_samples)

    p = sub.add_parser("lemma-check", help="inertia oracle on random coprime Blaschke pairs")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_lemma_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PairValidationError as exc:
        print(f"decomposition identity violated: residual {exc.residual:.6e}", file=sys.stderr)
        return EXIT_INPUT
    except (SolveError, ExtensionError, ArithmeticError) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
