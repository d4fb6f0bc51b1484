#!/usr/bin/env python3
"""Per-problem outcomes of the benchmark pools, and a comparison of two runs.

Solves the first-pass pool of each benchmark workload (the first
``POOL_SIZE`` problems of ``perfbench/run.py``) the way the benchmark does:
``seed=k`` and ``certify=True`` for problem k, on one BLAS thread.  Each
problem gets one row: workload, seed, index, class label, pass or fail, the
failure cause, the degrees (deg f and deg g on the disk, the bidegree on the
bidisk), the sha256 of the result file that ``takagi.io.dump_json`` writes
(of the error text when the solve raised), the sha256 of the solution
polynomials alone, the file's ``numerator`` and ``denominator`` (null when the
solve raised), and the path: ``shifts`` when the solve ran the per-node
shifted solves (``takagi.disk.solve_all_shifts`` or
``takagi.bidisk.solve_bidisk_shifts``, counted by wrapping them), ``single``
when it did not.

``--tree`` names the source checkout whose ``src/takagi`` and ``perfbench/``
are imported, so one copy of this script can run any checkout, such as an
exported parent commit.  ``--compare A B`` lists every problem whose row
differs between two outcome files, tallies the differences per workload and
seed (gains, losses, degree rises and falls, cause changes, path changes,
rows that differ only in bytes or path, and rows whose polynomials are
unchanged, so that a change of the certificate block alone is told apart from
a change of the solution) and exits 1 if there is any.  A file written before
rows had a ``path`` compares with the ``path`` left out.

    python3 scripts/pool_outcomes.py --out change.json
    python3 scripts/pool_outcomes.py --tree ../parent --out parent.json
    python3 scripts/pool_outcomes.py --compare parent.json change.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class PoolConfig:
    tree: str = str(REPO)
    seeds: tuple[int, ...] = (101, 271828)
    workloads: tuple[str, ...] = ("disk-large", "disk-small", "bidisk")
    out: str | None = None


def load_bench(tree: Path):
    """perfbench's ``run`` module of the tree, with the tree's takagi importable."""
    sys.path.insert(0, str(tree / "perfbench"))
    import run

    run.load_program()  # one BLAS thread, and the tree's src/ first on the path
    return run


SHIFT_STAGES = (("disk", "solve_all_shifts"), ("bidisk", "solve_bidisk_shifts"))


def count_shift_calls() -> list[int]:
    """Wrap the imported takagi's shifted-solve stages; the one-item list counts their calls."""
    import importlib

    calls = [0]

    def counted(original):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)
        return wrapper

    for module_name, name in SHIFT_STAGES:
        module = importlib.import_module(f"takagi.{module_name}")
        setattr(module, name, counted(getattr(module, name)))
    return calls


def outcome(run, item, k: int, path: Path) -> dict:
    try:
        sol = run.solve(item, k)
    except Exception as exc:  # every solver failure is a recorded outcome
        return {"passed": False, "cause": run.failure_cause(exc), "degrees": None,
                "sha256": hashlib.sha256(run.error_bytes(exc)).hexdigest(), "poly_sha256": None}
    text = run.serialize(sol, item, path)
    data = json.loads(text)
    polys = json.dumps([data["numerator"], data["denominator"]]).encode()
    cert = sol.certificates
    failed = sorted(name for name, ok in cert["verdicts"].items() if not ok)
    if item.pair is None:
        degrees = [sol.f.degree, sol.g.degree]
    else:
        degrees = list(sol.bidegree)
    return {"passed": bool(cert["pass"]),
            "cause": None if cert["pass"] else "certificate FAIL: " + "+".join(failed),
            "degrees": degrees, "sha256": hashlib.sha256(text).hexdigest(),
            "poly_sha256": hashlib.sha256(polys).hexdigest()}


def solve_pools(cfg: PoolConfig) -> list[dict]:
    run = load_bench(Path(cfg.tree).resolve())
    from workloads import Stream

    shift_calls = count_shift_calls()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.json"
        for seed in cfg.seeds:
            for workload in cfg.workloads:
                stream = Stream(workload, seed)
                for k in range(run.POOL_SIZE[workload][0]):
                    item = stream[k]
                    before = shift_calls[0]
                    row = outcome(run, item, k, path)
                    rows.append({"workload": workload, "seed": seed, "index": k,
                                 "label": item.label, **row,
                                 "path": "shifts" if shift_calls[0] > before else "single"})
    return rows


TALLY = ("gains", "losses", "degree rises", "degree falls", "cause changes", "path changes",
         "bytes only", "polynomials unchanged")
HASHES = ("sha256", "poly_sha256")


def difference_kinds(ra: dict, rb: dict) -> list[str]:
    """The TALLY entries that the change from row ``ra`` to row ``rb`` counts in."""
    kinds = []
    if ra["passed"] != rb["passed"]:
        kinds.append("gains" if rb["passed"] else "losses")
    if ra["degrees"] is not None and rb["degrees"] is not None:
        if sum(rb["degrees"]) > sum(ra["degrees"]):
            kinds.append("degree rises")
        elif sum(rb["degrees"]) < sum(ra["degrees"]):
            kinds.append("degree falls")
    if ra["cause"] != rb["cause"] and ra["cause"] and rb["cause"]:
        kinds.append("cause changes")
    if ra.get("path") != rb.get("path"):
        kinds.append("path changes")
    if all(ra.get(f) == rb.get(f) for f in ra.keys() | rb.keys() if f not in HASHES + ("path",)):
        kinds.append("bytes only")
    if ra.get("poly_sha256") is not None and ra.get("poly_sha256") == rb.get("poly_sha256"):
        kinds.append("polynomials unchanged")
    return kinds


def compare(a_path: str, b_path: str) -> int:
    """Print each problem whose row differs between two outcome files, and a tally; 1 if any."""
    def rows(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return {(r["workload"], r["seed"], r["index"]): r for r in data["rows"]}

    a, b = rows(a_path), rows(b_path)
    if not all("path" in r for r in [*a.values(), *b.values()]):
        for r in [*a.values(), *b.values()]:
            r.pop("path", None)
    differ = 0
    tally: dict[tuple[str, int], dict[str, int]] = {}
    for key in sorted(a.keys() | b.keys()):
        ra, rb = a.get(key), b.get(key)
        counts = tally.setdefault(key[:2], dict.fromkeys(TALLY, 0))
        if ra != rb:
            differ += 1
            fields = sorted(f for f in (ra or rb) if (ra or {}).get(f) != (rb or {}).get(f))
            print(f"{key[0]} seed {key[1]} problem {key[2]}: differs in {', '.join(fields)}")
            for name, r in ((a_path, ra), (b_path, rb)):
                print(f"  {name}: {r}")
            for kind in difference_kinds(ra, rb) if ra and rb else ():
                counts[kind] += 1
    for (workload, seed), counts in sorted(tally.items()):
        print(f"{workload} seed {seed}: " + ", ".join(f"{counts[k]} {k}" for k in TALLY))
    print(f"{len(a)} vs {len(b)} problems, {differ} differ")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    defaults = PoolConfig()
    parser.add_argument("--tree", default=defaults.tree, help="source checkout to import")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(defaults.seeds))
    parser.add_argument("--workloads", nargs="+", default=list(defaults.workloads),
                        choices=defaults.workloads)
    parser.add_argument("--out", default=None, help="write the outcomes JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two outcome files instead of solving")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    cfg = PoolConfig(tree=args.tree, seeds=tuple(args.seeds),
                     workloads=tuple(args.workloads), out=args.out)
    start = time.perf_counter()
    rows = solve_pools(cfg)
    passed = sum(r["passed"] for r in rows)
    print(f"{len(rows)} problems in {time.perf_counter() - start:.1f}s: "
          f"{passed} passed, {len(rows) - passed} failed")
    for seed in cfg.seeds:
        for workload in cfg.workloads:
            group = [r for r in rows if r["seed"] == seed and r["workload"] == workload]
            print(f"  seed {seed} {workload}: {sum(not r['passed'] for r in group)}"
                  f"/{len(group)} failed")
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump({"config": asdict(cfg), "rows": rows}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"outcomes written to {cfg.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
