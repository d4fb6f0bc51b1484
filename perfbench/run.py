#!/usr/bin/env python3
"""Benchmark of the takagi solvers: certified solve latency, goodput and re-verify cost.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload disk-large --seed 1 --seconds 40 --trace 0

The load is a closed loop: one process, one caller, one solve at a time, with
BLAS pinned to one thread.  A run's problems are the first ``POOL_SIZE`` problems
generated from the seed (see ``workloads.py``), solved with ``certify=True`` in
passes until the time is up, the first pass always complete; ``attempted`` and
``failed`` count problems, so they depend on the seed only.  Each certified
result is serialized with ``takagi.io.dump_json``, re-certified from that text
alone and checked against the solve's own certificate; every repeated solve must
serialize to the same bytes as the first, and after the loop a fixed subset of
problems is solved once more.  Times are per problem, the median of its passes,
scaled to one machine speed with the reference kernel run before every attempt
(``reference.py``); the raw times stay in the run record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` solves every problem
once plainly and once with per-layer spans (``spans.py``) and prints the
per-layer metrics with the tracing overhead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run record (machine, failures by
cause, workload descriptors, determinism and span guard).  The exit code is
non-zero when an output check or the determinism check fails, and when the
checkout holds no ``src/takagi`` package.

``--workload all`` runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

PROCESS_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "takagi"
WORKLOAD_NAMES = ("disk-large", "disk-small", "bidisk")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Seed kept out of tuning, for confirming a later claim on unseen inputs.
HELD_OUT_SEED = 271828
DETERMINISM_SUBSET = 3
SETUP_PROBES = 5
# Problems per run, for --trace 0 and --trace 1: the first pass over them takes
# about three quarters of a 40 s run on the reference machine (README.md), and
# a multiple of each workload's class period keeps the class mix exact.
POOL_SIZE = {"disk-large": (210, 96), "disk-small": (900, 600), "bidisk": (135, 105)}
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "verify_ms_p50": "ms",
    "certified_per_s": "1/s",
    "certified_share": "ratio",
    "accuracy_digits_p50": "digits",
    "degree_ratio_mean": "ratio",
    "setup_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program() -> None:
    """Make the checkout's own takagi importable, with single-threaded BLAS."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: no takagi package under {PACKAGE}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(PACKAGE.parent))


# ---------------------------------------------------------------------------
# One attempt: solve, serialize, re-certify, check


def solve(item, k: int):
    import takagi.bidisk
    import takagi.disk

    if item.pair is None:
        return takagi.disk.solve(item.problem, seed=k, certify=True)
    return takagi.bidisk.solve_bidisk(item.problem, item.pair, seed=k, certify=True)


def serialize(sol, item, path: Path) -> bytes:
    import takagi.io

    if item.pair is None:
        data = takagi.io.disk_result_to_dict(sol, item.problem)
    else:
        data = takagi.io.bidisk_result_to_dict(sol, item.problem, item.pair)
    takagi.io.dump_json(data, str(path))
    return path.read_bytes()


def recertify(text: bytes) -> tuple[dict, float]:
    """What ``takagi verify`` does after start-up; returns (certificate, seconds)."""
    import takagi.io
    import takagi.verify

    start = time.perf_counter()
    data = json.loads(text)
    sol, problem, _ = takagi.io.result_to_solution(data)
    if data["kind"] == "disk":
        cert = takagi.verify.certify_disk(sol, problem)
    else:
        cert = takagi.verify.certify_bidisk(sol, problem)
    return cert, time.perf_counter() - start


def failure_cause(exc: Exception) -> str:
    """Exception class plus the first clause of its message, numbers masked."""
    head = re.split(r"[:(\[]", str(exc), maxsplit=1)[0].strip()
    head = re.sub(r"[-+]?\d[\d.eE+-]*", "#", head)
    return f"{type(exc).__name__}: {head}" if head else type(exc).__name__


def error_bytes(exc: Exception) -> bytes:
    return f"error {type(exc).__name__}: {exc}".encode()


def accuracy(sol, item) -> tuple[float, float]:
    """(interpolation residual, unimodularity defect) recomputed from num/den."""
    import numpy as np

    if item.pair is None:
        num, den = sol.interpolant.numerator, sol.interpolant.denominator
        lam = item.problem.nodes
        residual = float(np.max(np.abs(num(lam) / den(lam) - item.problem.values)))
        z = np.exp(2j * np.pi * (np.arange(1024) + 0.25) / 1024)
        qv, pv = den(z), num(z)
    else:
        num, den = sol.numerator, sol.denominator
        lam = item.problem.nodes
        residual = float(np.max(np.abs(num(lam[:, 0], lam[:, 1]) / den(lam[:, 0], lam[:, 1])
                                       - item.problem.values)))
        t = np.exp(2j * np.pi * (np.arange(96) + 0.25) / 96)
        Z1, Z2 = np.meshgrid(t, t, indexing="ij")
        qv, pv = den(Z1, Z2), num(Z1, Z2)
    keep = np.abs(qv) > 1e-6 * max(float(np.max(np.abs(qv))), 1e-300)
    defect = float(np.max(np.abs(np.abs(pv[keep] / qv[keep]) - 1.0))) if np.any(keep) else np.inf
    return residual, defect


def degrees(sol, item) -> tuple[int, int]:
    """(achieved degree total, inertia lower bound) of a certified solution."""
    if item.pair is None:
        pi, nu, _ = sol.inertia.as_tuple()
        return sol.f.degree + sol.g.degree, pi + nu
    (p1, n1, _), (p2, n2, _) = (i.as_tuple() for i in sol.inertias)
    return sol.bidegree[0] + sol.bidegree[1], p1 + n1 + p2 + n2


class Run:
    """Samples, outcomes and checks of one workload run.

    The run's problems are a fixed pool: the first ``size`` problems of the
    seeded stream.  The loop solves them in passes, every problem once and then
    again from the start until the time is up, so which problems a run attempts
    depends on the seed alone, never on the machine's speed.  Outcomes, failure
    causes and quality figures are taken once per problem; later passes add
    timing samples, and each must reproduce the first pass's serialized result
    byte for byte.
    """

    def __init__(self, workload: str, seed: int, size: int, workdir: Path):
        from workloads import Stream

        self.stream = Stream(workload, seed)
        self.size = size
        self.workdir = workdir
        self.items: dict[int, object] = {}
        self.ref_s: list[float] = []  # reference kernel time before each attempt
        self.attempts: list[int] = []  # problem index of each attempt
        self.solve_s: list[float] = []
        self.plain_s: list[float] = []  # trace runs: the same solve without spans
        self.verify_s: list[tuple[int, float]] = []  # (attempt index, seconds)
        self.digests: dict[int, bytes] = {}  # problem -> hash of its first outcome
        self.certified: set[int] = set()
        self.digits: list[float] = []
        self.degree_pairs: list[tuple[int, int]] = []
        self.result_bytes: list[int] = []
        self.causes: Counter[str] = Counter()
        self.problems: list[str] = []

    def item(self, k: int):
        if k not in self.items:
            self.items[k] = self.stream[k]
        return self.items[k]

    def outcome(self, item, k: int) -> tuple[bytes, float]:
        """Solve problem k; returns (serialized result or error, solve seconds)."""
        start = time.perf_counter()
        try:
            sol = solve(item, k)
        except Exception as exc:  # every solver failure is counted by its cause
            return error_bytes(exc), time.perf_counter() - start
        elapsed = time.perf_counter() - start
        return serialize(sol, item, self.workdir / "result.json"), elapsed

    def same_as_first(self, k: int, text: bytes) -> bool:
        """Record problem k's first outcome; later ones must match it byte for byte."""
        digest = hashlib.sha256(text).digest()
        if k not in self.digests:
            self.digests[k] = digest
            return True
        if digest != self.digests[k]:
            self.problems.append(f"problem {k}: repeated solve is not byte-identical")
        return False

    def attempt(self, k: int, tracer=None) -> None:
        import takagi.verify as tv

        item = self.item(k)
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            try:
                sol = solve(item, k)
                error = None
            except Exception as exc:  # every solver failure is counted by its cause
                sol, error = None, exc
            self.solve_s.append(time.perf_counter() - start)
            self.attempts.append(k)
            if sol is not None:
                text = serialize(sol, item, self.workdir / "result.json")
                passed = bool(sol.certificates["pass"])
                recert, verify_s = recertify(text) if passed else (None, 0.0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        first = self.same_as_first(k, text if sol is not None else error_bytes(error))
        if sol is None:
            if first:
                self.causes[failure_cause(error)] += 1
            return
        if not passed:
            if first:
                bad = sorted(name for name, ok in sol.certificates["verdicts"].items() if not ok)
                self.causes["certificate FAIL: " + "+".join(bad)] += 1
            return
        self.verify_s.append((len(self.solve_s) - 1, verify_s))
        if not recert["pass"] or any(
            bool(recert["verdicts"].get(name)) != bool(ok)
            for name, ok in sol.certificates["verdicts"].items()
        ):
            self.problems.append(f"problem {k}: re-certification from the result file disagrees")
        if not first:
            return
        self.certified.add(k)
        self.result_bytes.append(len(text))
        residual, defect = accuracy(sol, item)
        wmax = float(max(abs(item.problem.values)))
        if residual > tv.STRICT_TOL * (1.0 + wmax):
            self.problems.append(f"problem {k}: certified but residual {residual:.3e}")
        tiny = 1e-300
        self.digits.append(min(
            math.log10(tv.STRICT_TOL * (1.0 + wmax) / max(residual, tiny)),
            math.log10(tv.UNIMODULAR_TOL / max(defect, tiny)),
        ))
        self.degree_pairs.append(degrees(sol, item))

    def determinism(self) -> dict:
        """Solve the fixed subset once more; the serialized outcomes must match byte for byte."""
        subset = range(min(DETERMINISM_SUBSET, self.size))
        before = len(self.problems)
        for k in subset:
            self.same_as_first(k, self.outcome(self.item(k), k)[0])
        mismatched = len(self.problems) - before
        return {"problems": list(subset), "mismatched": mismatched, "identical": not mismatched}

    def per_problem(self, samples) -> list[float]:
        """Median of each problem's samples, given as (attempt index, value)."""
        groups: dict[int, list[float]] = {}
        for i, value in samples:
            groups.setdefault(self.attempts[i], []).append(value)
        return [statistics.median(values) for values in groups.values()]


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


# ---------------------------------------------------------------------------
# Set-up time, measured in fresh processes


def setup_probe(workload: str, seed: int) -> None:
    """Import takagi, generate the workload's first problem and solve it once."""
    from workloads import Stream

    solve(Stream(workload, seed)[0], 0)
    setup_s = time.perf_counter() - PROCESS_START
    import reference

    ref_s = statistics.median(reference.timed() for _ in range(5))
    print(json.dumps({"setup_s": setup_s, "ref_s": ref_s}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Set-up probes in fresh processes, each with its own reference timing."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload",
             workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=os.environ.copy(),
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Run record


def machine_record() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Entry points


def run_workload(args) -> int:
    setup = measure_setup(args.workload, args.seed)
    import numpy as np

    import reference
    from spans import Tracer
    from workloads import describe

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        run = Run(args.workload, args.seed, POOL_SIZE[args.workload][args.trace], Path(tmp))
        solve(run.item(0), 0)  # warm-up, as in the set-up probe
        tracer = Tracer() if args.trace else None
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i < run.size or time.perf_counter() < deadline:
            k = i % run.size
            run.ref_s.append(reference.timed())
            if tracer is None:
                run.attempt(k)
            else:
                # The same problem without spans, alternating which solve goes first.
                if k % 2:
                    run.attempt(k, tracer)
                run.plain_s.append(run.outcome(run.item(k), k)[1])
                if not k % 2:
                    run.attempt(k, tracer)
            i += 1
        determinism = run.determinism()
    attempted = run.size
    certified = len(run.certified)
    failed = attempted - certified
    if not certified:
        run.problems.append("no certified solve")
    scale = reference.factors(run.ref_s)
    solve_ms = run.per_problem((i, 1e3 * t * scale[i]) for i, t in enumerate(run.solve_s))
    verify_ms = run.per_problem((i, 1e3 * t * scale[i]) for i, t in run.verify_s)
    raw_ms = run.per_problem((i, 1e3 * t) for i, t in enumerate(run.solve_s))
    setup_s = [p["setup_s"] * reference.NOMINAL_S / p["ref_s"] for p in setup]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "certified": certified,
        "solves": len(run.solve_s),
        "machine": machine_record(),
        "samples": {"solve_ms": len(solve_ms), "verify_ms": len(verify_ms),
                    "accuracy_digits": len(run.digits), "setup_s": len(setup)},
        "solve_ms_p90_valid": len(solve_ms) >= 100,
        "reference_ms": {"nominal": 1e3 * reference.NOMINAL_S,
                         "median": 1e3 * statistics.median(run.ref_s),
                         "min": 1e3 * min(run.ref_s), "max": 1e3 * max(run.ref_s)},
        "raw": {"solve_ms_p50": percentile(raw_ms, 50),
                "solve_ms_p90": percentile(raw_ms, 90),
                "setup_s": statistics.median(p["setup_s"] for p in setup)},
        "failed_by_cause": dict(sorted(run.causes.items())),
        "descriptors": describe(list(run.items.values())),
        "determinism": determinism,
        "output_problems": run.problems[:20],
    }
    if tracer is None:
        record["degree_excess_mean"] = (
            float(np.mean([a - b for a, b in run.degree_pairs])) if run.degree_pairs else None
        )
        values = {
            "solve_ms_p50": percentile(solve_ms, 50),
            "solve_ms_p90": percentile(solve_ms, 90),
            "verify_ms_p50": percentile(verify_ms, 50) if verify_ms else None,
            "certified_per_s": 1e3 * certified / sum(solve_ms),
            "certified_share": certified / attempted,
            "accuracy_digits_p50": percentile(run.digits, 50) if run.digits else None,
            "degree_ratio_mean": (
                float(np.mean([a / max(b, 1) for a, b in run.degree_pairs]))
                if run.degree_pairs else None
            ),
            "setup_s": statistics.median(setup_s),
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
                   for name in END_TO_END_UNITS}
        counts = {"solve_ms_p50": attempted, "solve_ms_p90": attempted,
                  "verify_ms_p50": len(verify_ms), "certified_per_s": attempted,
                  "certified_share": attempted, "accuracy_digits_p50": len(run.digits),
                  "degree_ratio_mean": len(run.degree_pairs), "setup_s": len(setup)}
    else:
        metrics = tracer.metrics(len(run.solve_s),
                                 reference.NOMINAL_S / statistics.median(run.ref_s))
        metrics["io.result_bytes"] = {
            "value": float(np.mean(run.result_bytes)) if run.result_bytes else 0.0,
            "unit": "bytes",
        }
        plain_ms = run.per_problem((i, 1e3 * t * scale[i]) for i, t in enumerate(run.plain_s))
        metrics["trace.overhead_ms"] = {
            "value": percentile(solve_ms, 50) - percentile(plain_ms, 50), "unit": "ms",
        }
        record["span_guard"] = tracer.guard(args.workload)
        counts = {name: len(run.solve_s) for name in metrics}
    for name, m in metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{args.workload:>10}  {name:<44} {value:>14} {m['unit']:<14} n={counts[name]}")
    for cause, count in sorted(run.causes.items()):
        print(f"{args.workload:>10}  failed.{cause}: {count}")
    correct = not run.problems
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=CHILD_TIMEOUT_S + args.seconds, check=False,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
