"""Seeded problem streams for the three benchmark workloads.

Problem ``k`` of a workload is drawn from ``numpy.random.default_rng([seed, k])``,
so it depends on the seed and its index only, never on how many problems an
earlier, faster or slower run consumed.  Problem classes and sizes cycle with
``k`` in a fixed pattern, so every run sees the same class mix up to one period.

Why each workload exists:

* ``disk-large``: N in {12, 16}, the size where the N per-node centered solves
  dominate.  Rational extraction is the largest stage and nearly always falls
  back to DFT sampling.  A fixed third of the problems are clustered N=16
  problems on the breakdown frontier, so ``certified_share`` is below one.
* ``disk-small``: N from 3 to 8 in three classes (indefinite, singular,
  positive semi-definite).  Per-call overhead, the Krein extension, the GCD
  and reflective reduction, combination and certification weigh more than
  extraction here, so a fixed per-call cost shows first on this workload.
* ``bidisk``: N in {2, 4, 6, 8} (6 twice as often) with the pair kinds of
  ``scripts/bidisk_ensemble.py``.  It runs the bidisk-only stages and never
  calls ``takagi.disk`` or ``takagi.realization``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from takagi.bidisk import AglerPair, BidiskProblem
from takagi.linalg import hermitian_inertia, hermitize
from takagi.pick import DiskProblem, pick_matrix
from takagi.polynomials import BlaschkeProduct

# Tolerance the solvers use by default for the inertia decision.
SOLVER_TOL = 1e-9


@dataclass(frozen=True)
class Item:
    """One generated input: the problem, its optional pair and its class label."""

    problem: object
    pair: AglerPair | None
    label: str


def _separated(z: np.ndarray, sep: float) -> bool:
    n = z.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if np.max(np.abs(z[i] - z[j])) <= sep:
                return False
    return True


def _disk_nodes(rng, n: int, radius: float, sep: float = 0.05) -> np.ndarray:
    """Uniform in the disk of the given radius, pairwise separated."""
    while True:
        z = radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        if _separated(z, sep):
            return z


def _square_nodes(rng, n: int, half_width: float, sep: float = 0.05) -> np.ndarray:
    """Uniform in the square of the given half-width (the repo's ensemble convention)."""
    while True:
        z = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * half_width
        if _separated(z, sep):
            return z


def _targets(rng, n: int, lo: float = 0.2, hi: float = 3.0) -> np.ndarray:
    return rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def disk_large(rng, k: int) -> Item:
    # Period 6: one spread N=12, three spread N=16, two clustered N=16.  With
    # N=12 a sixth, the median solve time lies inside the N=16 mode instead of
    # in the gap between the two sizes, where it would jump with the seed.
    cls = k % 6
    if cls in (2, 5):
        # Clustered nodes at N=16: the breakdown frontier of the float64 inertia
        # decision (Pick matrices are Cauchy-like, their eigenvalues decay fast).
        n = 16
        nodes = _square_nodes(rng, n, 0.5)
        label = "clustered-16"
    else:
        n = 12 if cls == 0 else 16
        nodes = _disk_nodes(rng, n, 0.85)
        label = f"spread-{n}"
    return Item(DiskProblem(nodes=nodes, values=_targets(rng, n)), None, label)


def _coprime_blaschke(rng, m: int, n: int) -> tuple[BlaschkeProduct, BlaschkeProduct]:
    while True:
        zf = (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)) * 0.6
        zg = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * 0.6
        if n == 0 or np.min(np.abs(zf[:, None] - zg[None, :])) > 0.1:
            return BlaschkeProduct(zeros=tuple(zf)), BlaschkeProduct(zeros=tuple(zg))


def _sampled_quotient(rng, f: BlaschkeProduct, g: BlaschkeProduct, n: int) -> DiskProblem:
    """f/g sampled at n nodes kept away from each other and from the poles."""
    poles = np.array(g.zeros, dtype=complex)
    while True:
        nodes = _square_nodes(rng, n, 0.6, sep=0.15)
        if poles.size == 0 or np.min(np.abs(nodes[:, None] - poles[None, :])) > 0.15:
            return DiskProblem(nodes=nodes, values=f(nodes) / g(nodes))


def disk_small(rng, k: int) -> Item:
    cls = k % 3
    n = 3 + (k // 3) % 6
    if cls == 0:
        return Item(DiskProblem(nodes=_disk_nodes(rng, n, 0.6), values=_targets(rng, n)), None,
                    f"indefinite-{n}")
    if cls == 1:
        # Coprime Blaschke quotient of degree m + d < n: inertia (m, d, n - m - d).
        m = int(rng.integers(1, n - 1))
        d = int(rng.integers(1, n - m))
        f, g = _coprime_blaschke(rng, m, d)
        return Item(_sampled_quotient(rng, f, g, n), None, f"singular-{n}")
    # Blaschke product of degree m < n: positive semi-definite of rank m.
    m = int(rng.integers(1, n))
    f, g = _coprime_blaschke(rng, m, 0)
    return Item(_sampled_quotient(rng, f, g, n), None, f"psd-{n}")


def bidisk(rng, k: int) -> Item:
    # Period 15; N=6 twice per five, so the median and p90 of the solve time
    # fall inside a (kind, N) class rather than on the edge between two.
    n = (2, 4, 6, 8, 6)[k % 5]
    kind = k % 3
    while True:
        nodes = (rng.uniform(-1, 1, (n, 2)) + 1j * rng.uniform(-1, 1, (n, 2))) * 0.5
        if _separated(nodes, 0.05):
            break
    values = _targets(rng, n, 0.3, 2.5)
    problem = BidiskProblem(nodes=nodes, values=values)
    if kind in (0, 1):
        # One-variable embedding: all decomposition weight on coordinate `kind`.
        G = pick_matrix(DiskProblem(nodes=nodes[:, kind], values=values))
        Z = np.zeros_like(G)
        pair = AglerPair(gamma1=G, gamma2=Z) if kind == 0 else AglerPair(gamma1=Z, gamma2=G)
    else:
        lhs = 1.0 - np.outer(values, values.conj())
        g1 = hermitize(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        g2 = (lhs - (1.0 - np.outer(nodes[:, 0], nodes[:, 0].conj())) * g1) / (
            1.0 - np.outer(nodes[:, 1], nodes[:, 1].conj())
        )
        pair = AglerPair(gamma1=g1, gamma2=hermitize(g2))
    return Item(problem, pair, f"kind{kind}-{n}")


WORKLOADS = {"disk-large": disk_large, "disk-small": disk_small, "bidisk": bidisk}


class Stream:
    """Problem ``k`` of a workload for a given seed."""

    def __init__(self, workload: str, seed: int):
        self.make = WORKLOADS[workload]
        self.seed = seed

    def __getitem__(self, k: int) -> Item:
        return self.make(np.random.default_rng([self.seed, k]), k)


def _gamma_class(G: np.ndarray) -> tuple[bool, bool, bool, float]:
    """(indefinite, singular, psd, log10 cond) of a Hermitian matrix at SOLVER_TOL."""
    inertia, evals, _ = hermitian_inertia(G, SOLVER_TOL)
    mags = np.abs(evals)
    top = float(np.max(mags)) if mags.size else 0.0
    cond = top / max(float(np.min(mags)), 1e-300) if top > 0 else 1.0
    return (
        inertia.positive > 0 and inertia.negative > 0,
        inertia.zero > 0,
        inertia.negative == 0,
        float(np.log10(cond)),
    )


def describe(items: list[Item]) -> dict:
    """Input properties of the attempted problems, for citing shares of inputs.

    For the bidisk, each of the two decomposition matrices counts as one Γ.
    """
    sizes: dict[str, int] = {}
    labels: dict[str, int] = {}
    flags = []
    for item in items:
        n = str(item.problem.size)
        sizes[n] = sizes.get(n, 0) + 1
        labels[item.label] = labels.get(item.label, 0) + 1
        gammas = item.pair.gammas() if item.pair is not None else (pick_matrix(item.problem),)
        flags.extend(_gamma_class(G) for G in gammas)
    count = max(len(flags), 1)
    out = {
        "problems": len(items),
        "count_by_N": dict(sorted(sizes.items(), key=lambda kv: int(kv[0]))),
        "count_by_class": dict(sorted(labels.items())),
        "gamma_matrices": len(flags),
        "share_indefinite": sum(f[0] for f in flags) / count,
        "share_singular": sum(f[1] for f in flags) / count,
        "share_psd": sum(f[2] for f in flags) / count,
        "median_log10_cond": float(np.median([f[3] for f in flags])) if flags else 0.0,
    }
    if items and items[0].pair is not None:
        kinds: dict[str, int] = {}
        for item in items:
            kind = item.label.split("-")[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        out["share_pair_kind"] = {k: v / len(items) for k, v in sorted(kinds.items())}
    return out
