"""Per-layer spans recorded from outside the program.

Each traced name is a public function (or class) of a ``takagi`` module.  The
tracer replaces it with a timing wrapper in every ``takagi`` namespace that
bound the same object, so calls through ``from ... import`` names (including
the ones ``verify.certify_bidisk`` imports at call time) are seen as well.

A span's self time is its duration minus the time covered by the spans it
caused.  Figures are aggregated in memory and reported per solve attempt.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

ALL = ("disk-large", "disk-small", "bidisk")
DISK = ("disk-large", "disk-small")

# Every traced name, with the workloads expected to call it.  A name missing
# from the program is reported as absent; a name present but never called on
# one of its expected workloads is flagged, so a rename cannot zero a metric.
SPAN_TABLE = {
    "realization.realization_to_rational": DISK,
    "realization.faddeev_leverrier": DISK,
    "realization._rational_by_sampling": DISK,
    "krein.extend_j_isometry": ALL,
    "pick.gram_decompose": DISK,
    "linalg.hermitian_inertia": ALL,
    "disk.solve_centered": DISK,
    "disk.solve_all_shifts": DISK,
    "disk.best_reflective_pair": DISK,
    "disk.combine": DISK,
    "disk.solve_positive": ("disk-small",),
    "polynomials.Poly.__post_init__": ALL,
    "polynomials.poly_roots": ALL,
    "polynomials.poly_gcd_numeric": ALL,
    "bidisk.regularize_pair": ("bidisk",),
    "bidisk.build_bidisk_realization": ("bidisk",),
    "bidisk.to_birational": ("bidisk",),
    "bidisk.solve_bidisk_shifts": ("bidisk",),
    "bidisk.combine_bidisk": ("bidisk",),
    "bidisk.toral_check": ("bidisk",),
    "bidisk.restrict_balanced": ("bidisk",),
    "verify.certify_disk": DISK,
    "verify.certify_bidisk": ("bidisk",),
    "verify.sampled_kernel_inertia": DISK,
    "verify.check_unimodular": DISK,
    "verify.torus_unimodularity": ("bidisk",),
    "io.disk_result_to_dict": DISK,
    "io.bidisk_result_to_dict": ("bidisk",),
    "io.result_to_solution": ALL,
}

# Per-layer metrics: (name, unit, how to compute it from the span figures).
# ``calls``/``ms``/``self_ms``/``failed`` are per solve attempt.
PER_LAYER = [
    ("realization.realization_to_rational.calls", "calls/attempt", ("calls", "realization.realization_to_rational")),
    ("realization.realization_to_rational.ms", "ms/attempt", ("ms", "realization.realization_to_rational")),
    ("realization.faddeev_leverrier.calls", "calls/attempt", ("calls", "realization.faddeev_leverrier")),
    ("realization.sampling_fallback_share", "ratio",
     ("ratio", "realization._rational_by_sampling", "realization.realization_to_rational")),
    ("krein.extend_j_isometry.calls", "calls/attempt", ("calls", "krein.extend_j_isometry")),
    ("krein.extend_j_isometry.ms", "ms/attempt", ("ms", "krein.extend_j_isometry")),
    ("krein.extend_j_isometry.failed", "calls/attempt", ("failed", "krein.extend_j_isometry")),
    ("pick.gram_decompose.calls", "calls/attempt", ("calls", "pick.gram_decompose")),
    ("pick.gram_decompose.ms", "ms/attempt", ("ms", "pick.gram_decompose")),
    ("linalg.hermitian_inertia.calls", "calls/attempt", ("calls", "linalg.hermitian_inertia")),
    ("linalg.hermitian_inertia.ms", "ms/attempt", ("ms", "linalg.hermitian_inertia")),
    ("disk.solve_centered.calls", "calls/attempt", ("calls", "disk.solve_centered")),
    ("disk.solve_centered.ms", "ms/attempt", ("ms", "disk.solve_centered")),
    ("disk.solve_centered.failed", "calls/attempt", ("failed", "disk.solve_centered")),
    ("disk.shift_kept_share", "ratio", ("kept_share", "disk.solve_all_shifts")),
    ("disk.solve_all_shifts.self_ms", "ms/attempt", ("self_ms", "disk.solve_all_shifts")),
    ("disk.best_reflective_pair.ms", "ms/attempt", ("ms", "disk.best_reflective_pair")),
    ("disk.combine.calls", "calls/attempt", ("calls", "disk.combine")),
    ("disk.combine.ms", "ms/attempt", ("ms", "disk.combine")),
    ("disk.combine.failed", "calls/attempt", ("failed", "disk.combine")),
    ("disk.solve_positive.calls", "calls/attempt", ("calls", "disk.solve_positive")),
    ("disk.solve_positive.ms", "ms/attempt", ("ms", "disk.solve_positive")),
    ("disk.solve_positive.failed", "calls/attempt", ("failed", "disk.solve_positive")),
    ("polynomials.Poly.created", "calls/attempt", ("calls", "polynomials.Poly.__post_init__")),
    ("polynomials.poly_roots.calls", "calls/attempt", ("calls", "polynomials.poly_roots")),
    ("polynomials.poly_roots.ms", "ms/attempt", ("ms", "polynomials.poly_roots")),
    ("polynomials.poly_gcd_numeric.calls", "calls/attempt", ("calls", "polynomials.poly_gcd_numeric")),
    ("polynomials.poly_gcd_numeric.ms", "ms/attempt", ("ms", "polynomials.poly_gcd_numeric")),
    ("bidisk.regularize_pair.calls", "calls/attempt", ("calls", "bidisk.regularize_pair")),
    ("bidisk.regularize_pair.ms", "ms/attempt", ("ms", "bidisk.regularize_pair")),
    ("bidisk.build_bidisk_realization.ms", "ms/attempt", ("ms", "bidisk.build_bidisk_realization")),
    ("bidisk.to_birational.calls", "calls/attempt", ("calls", "bidisk.to_birational")),
    ("bidisk.to_birational.ms", "ms/attempt", ("ms", "bidisk.to_birational")),
    ("bidisk.solve_bidisk_shifts.self_ms", "ms/attempt", ("self_ms", "bidisk.solve_bidisk_shifts")),
    ("bidisk.combine_bidisk.ms", "ms/attempt", ("ms", "bidisk.combine_bidisk")),
    ("bidisk.toral_check.ms", "ms/attempt", ("ms", "bidisk.toral_check")),
    ("bidisk.restrict_balanced.calls", "calls/attempt", ("calls", "bidisk.restrict_balanced")),
    ("bidisk.restrict_balanced.ms", "ms/attempt", ("ms", "bidisk.restrict_balanced")),
    ("verify.certify_disk.self_ms", "ms/attempt", ("self_ms", "verify.certify_disk")),
    ("verify.certify_bidisk.self_ms", "ms/attempt", ("self_ms", "verify.certify_bidisk")),
    ("verify.sampled_kernel_inertia.ms", "ms/attempt", ("ms", "verify.sampled_kernel_inertia")),
    ("verify.check_unimodular.ms", "ms/attempt", ("ms", "verify.check_unimodular")),
    ("verify.torus_unimodularity.ms", "ms/attempt", ("ms", "verify.torus_unimodularity")),
    ("io.result_to_dict.ms", "ms/attempt", ("ms", "io.disk_result_to_dict", "io.bidisk_result_to_dict")),
    ("io.result_to_solution.ms", "ms/attempt", ("ms", "io.result_to_solution")),
]


@dataclass
class SpanStats:
    calls: int = 0
    failed: int = 0
    total: float = 0.0
    self_time: float = 0.0
    kept: int = 0
    offered: int = 0


def _resolve(name: str):
    """(owner object, attribute, current value) for a table name, or None if absent."""
    module_name, _, rest = name.partition(".")
    try:
        module = importlib.import_module(f"takagi.{module_name}")
    except ModuleNotFoundError:
        return None
    owner = module
    parts = rest.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Installs timing wrappers on the names of SPAN_TABLE and aggregates spans."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPAN_TABLE}
        self.absent = []
        self._stack: list[float] = []
        self._sites = []  # (owner, attribute, original, wrapper)
        for name in SPAN_TABLE:
            found = _resolve(name)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            if owner is not sys.modules.get(f"takagi.{name.partition('.')[0]}"):
                # A method: patch it on its class only.
                self._sites.append((owner, attr, original, wrapper))
                continue
            for module_name, module in list(sys.modules.items()):
                if module_name != "takagi" and not module_name.startswith("takagi."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._sites.append((module, key, original, wrapper))

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        observe_shifts = name == "disk.solve_all_shifts"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                stats.failed += 1
                raise
            finally:
                duration = clock() - start
                child = stack.pop()
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - child
                if stack:
                    stack[-1] += duration
                if observe_shifts:
                    stats.offered += args[0].size
                    stats.kept += len(result.dens) if result is not None else 0

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def metrics(self, attempts: int, time_scale: float) -> dict:
        """Per-layer metric values per attempt; None for a metric on an absent name.

        Times are multiplied by ``time_scale``, the run's reference normalisation.
        """
        per = max(attempts, 1)
        out = {}
        for metric, unit, (kind, *names) in PER_LAYER:
            if any(n in self.absent for n in names):
                out[metric] = {"value": None, "unit": unit}
                continue
            s = [self.stats[n] for n in names]
            if kind == "calls":
                value = sum(x.calls for x in s) / per
            elif kind == "failed":
                value = sum(x.failed for x in s) / per
            elif kind == "ms":
                value = 1e3 * time_scale * sum(x.total for x in s) / per
            elif kind == "self_ms":
                value = 1e3 * time_scale * sum(x.self_time for x in s) / per
            elif kind == "kept_share":
                value = s[0].kept / s[0].offered if s[0].offered else 0.0
            else:  # ratio of the calls of the first name to the second
                value = s[0].calls / s[1].calls if s[1].calls else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def guard(self, workload: str) -> dict:
        """Names absent from the program, and names never called where expected."""
        silent = [
            name for name, expected in SPAN_TABLE.items()
            if workload in expected and name not in self.absent and self.stats[name].calls == 0
        ]
        return {"absent": sorted(self.absent), "zero_calls_on_expected_workload": silent}
