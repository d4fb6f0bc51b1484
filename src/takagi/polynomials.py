"""One-variable complex polynomials, Moebius maps and Blaschke products.

Coefficients are stored in ascending degree order.  The zero polynomial has
degree -1.  Root finding goes through the companion matrix (numpy.roots);
the numeric GCD pairs roots of the two polynomials rather than running a
Euclidean remainder sequence, which is unstable in floating point.

The coefficient-space kernels shared by the disk and bidisk solvers live
here: Moebius composition as a matrix on coefficients (``moebius_matrix``),
reflection of a coefficient array of any rank (``reflect_coeffs``), the
reflective constant of a numerator/denominator pair
(``reflective_constant``), the agreement of two rational functions away from
their poles (``ratio_agreement``), the vacuous node factor, the roots inside
the disk (``roots_in_disk``) and the cancellation of near-common roots
(``reduce_common_roots``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TRIM_RTOL = 1e-10
# Roots of modulus below this count as inside the unit disk.
DISK_INTERIOR = 1.0 - 1e-9


def _trim(coeffs: np.ndarray, rtol: float = TRIM_RTOL) -> np.ndarray:
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if coeffs.size == 0:
        return np.zeros(0, dtype=complex)
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        return np.zeros(0, dtype=complex)
    keep = np.nonzero(np.abs(coeffs) > rtol * scale)[0]
    if keep.size == 0:
        return np.zeros(0, dtype=complex)
    return coeffs[: keep[-1] + 1].copy()


@dataclass(frozen=True)
class Poly:
    """Complex polynomial; ``coeffs[k]`` multiplies z**k."""

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))
        self.coeffs.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    def norm(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def __call__(self, z):
        if self.coeffs.size == 0:
            return np.zeros_like(np.asarray(z, dtype=complex))
        z = np.asarray(z, dtype=complex)
        out = np.full_like(z, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            out = out * z + c
        return out if out.ndim else complex(out)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n, dtype=complex)
        a[: self.coeffs.size] += self.coeffs
        a[: other.coeffs.size] += other.coeffs
        return Poly(a)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (other * (-1.0))

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            return Poly(np.convolve(self.coeffs, other.coeffs))
        return Poly(self.coeffs * complex(other))

    __rmul__ = __mul__

    @staticmethod
    def one() -> "Poly":
        return Poly(np.array([1.0 + 0.0j]))

    @staticmethod
    def from_roots(roots, lead: complex = 1.0) -> "Poly":
        p = Poly(np.array([complex(lead)]))
        for r in roots:
            p = p * Poly(np.array([-complex(r), 1.0]))
        return p


def poly_roots(p: Poly) -> np.ndarray:
    """Roots (with multiplicity) via the companion matrix."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no well-defined roots")
    if p.degree == 0:
        return np.zeros(0, dtype=complex)
    return np.roots(p.coeffs[::-1])


def roots_in_disk(p: Poly) -> np.ndarray:
    """Roots of p of modulus below DISK_INTERIOR; none for a constant."""
    roots = poly_roots(p) if p.degree > 0 else np.zeros(0, dtype=complex)
    return roots[np.abs(roots) < DISK_INTERIOR]


def pad_coeffs(coeffs: np.ndarray, degrees: tuple[int, ...]) -> np.ndarray:
    """Coefficient array zero-padded to shape ``(d + 1 for d in degrees)``."""
    out = np.zeros(tuple(d + 1 for d in degrees), dtype=complex)
    out[tuple(slice(0, n) for n in coeffs.shape)] = coeffs
    return out


def reflect_coeffs(coeffs: np.ndarray, degrees: tuple[int, ...]) -> np.ndarray:
    """Conjugated coefficients flipped along every axis at the declared degrees."""
    return np.conj(np.flip(pad_coeffs(coeffs, degrees)))


def poly_reflect(p: Poly, d: int) -> Poly:
    """Reflection at declared degree d: coefficient k becomes conj(coeff[d-k]).

    Equals ``z**d * conj(p(1/conj(z)))``; on the unit circle the reflection has
    the same modulus as p.
    """
    if d < p.degree:
        raise ValueError(f"declared degree {d} below actual degree {p.degree}")
    return Poly(reflect_coeffs(p.coeffs, (d,)))


def reflective_constant(num, den, d) -> tuple[complex, float]:
    """Estimate c with num = c * reflect(den, d); return (c, relative defect).

    ``num`` and ``den`` are polynomials in one or two variables (``Poly`` or
    ``bidisk.Poly2``) and ``d`` is their declared degree or bidegree.
    """
    degrees = tuple(np.atleast_1d(d))
    rc = reflect_coeffs(den.coeffs, degrees)
    nc = pad_coeffs(num.coeffs, degrees)
    big = np.abs(rc) > 1e-6 * max(float(np.max(np.abs(rc))), 1e-300)
    if not np.any(big):
        return 1.0 + 0.0j, np.inf
    ratios = nc[big] / rc[big]
    c = complex(np.median(ratios.real) + 1j * np.median(ratios.imag))
    defect = float(np.max(np.abs(nc - c * rc))) / max(float(np.max(np.abs(nc))), 1e-300)
    return c, defect


def rotate_reflective(den, c: complex):
    """Rotate den by gamma with conj(gamma)/gamma = c, absorbing the constant.

    Works for ``Poly`` and ``bidisk.Poly2`` alike.
    """
    return np.exp(-0.5j * np.angle(c)) * den


def ratio_agreement(num0: Poly, den0: Poly, num1: Poly, den1: Poly) -> float:
    """Max relative deviation of num0/den0 from num1/den1 on two circles.

    Points where either denominator nearly vanishes are skipped.
    """
    worst = 0.0
    for radius in (0.53, 0.91):
        z = radius * np.exp(2j * np.pi * (np.arange(24) + 0.37) / 24)
        d0 = den0(z)
        d1 = den1(z)
        ok = (np.abs(d0) > 1e-9 * max(den0.norm(), 1e-300)) & (
            np.abs(d1) > 1e-9 * max(den1.norm(), 1e-300)
        )
        if not np.any(ok):
            continue
        v0 = num0(z[ok]) / d0[ok]
        v1 = num1(z[ok]) / d1[ok]
        worst = max(worst, float(np.max(np.abs(v0 - v1) / (1.0 + np.abs(v0)))))
    return worst


def poly_gcd_numeric(p: Poly, q: Poly, tol: float = 1e-8) -> tuple[Poly, Poly, Poly]:
    """Cancel near-common roots of p and q.

    Roots of p and q within ``tol`` of each other are paired greedily and
    divided out.  Returns (reduced p, reduced q, common factor); the common
    factor is monic with roots taken from p's side of each pair.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("numeric GCD requires nonzero polynomials")
    rp = list(poly_roots(p))
    rq = list(poly_roots(q))
    common = []
    kept_p = []
    for r in rp:
        if rq:
            dist = [abs(r - s) for s in rq]
            k = int(np.argmin(dist))
            if dist[k] <= tol:
                common.append(0.5 * (r + rq[k]))
                del rq[k]
                continue
        kept_p.append(r)
    lead_p = p.coeffs[-1]
    lead_q = q.coeffs[-1]
    return (
        Poly.from_roots(kept_p, lead_p),
        Poly.from_roots(rq, lead_q),
        Poly.from_roots(common),
    )


def reduce_common_roots(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den with near-common roots cancelled, when the reduced ratio still agrees.

    Tries root-matching tolerances 1e-9, then 1e-7; returns the pair unchanged
    when no root pairs up or the reduced ratio departs from the original by more
    than 1e-7 at both tolerances.
    """
    for tol in (1e-9, 1e-7):
        n0, d0, common = poly_gcd_numeric(num, den, tol)
        if common.degree <= 0:
            break
        if ratio_agreement(num, den, n0, d0) <= 1e-7:
            return n0, d0
    return num, den


@dataclass(frozen=True)
class MoebiusMap:
    """Self-inverse disk automorphism m(z) = (a - z)/(1 - conj(a) z), |a| < 1.

    Swaps 0 and a.
    """

    a: complex

    def __post_init__(self):
        if abs(self.a) >= 1.0:
            raise ValueError(f"Moebius parameter must satisfy |a|<1, got |a|={abs(self.a)}")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = (self.a - z) / (1.0 - np.conj(self.a) * z)
        return out if out.ndim else complex(out)



def moebius_swap(a: complex) -> MoebiusMap:
    return MoebiusMap(complex(a))


def moebius_matrix(a: complex, d: int) -> np.ndarray:
    """Coefficient map of p -> (1 - conj(a) z)**d * p(m(z)) at degree d, m = MoebiusMap(a).

    The (d+1) x (d+1) matrix acts on ascending coefficient vectors; column k
    holds ``(a - z)**k (1 - conj(a) z)**(d - k)``.  Column 0 is the cleared
    denominator ``(1 - conj(a) z)**d``.  Since m is self-inverse,
    ``M @ M = (1 - |a|**2)**d I``.
    """
    num_pows = [np.ones(1, dtype=complex)]
    den_pows = [np.ones(1, dtype=complex)]
    for _ in range(d):
        num_pows.append(np.convolve(num_pows[-1], [a, -1.0]))
        den_pows.append(np.convolve(den_pows[-1], [1.0, -np.conj(a)]))
    return np.column_stack([np.convolve(num_pows[k], den_pows[d - k]) for k in range(d + 1)])


def moebius_compose_poly(m: MoebiusMap, p: Poly, d: int | None = None) -> tuple[Poly, Poly]:
    """Numerator/denominator of p(m(z)) cleared of denominators at degree d.

    Returns (num, den) with ``num = (1 - conj(a) z)**d * p(m(z))`` and
    ``den = (1 - conj(a) z)**d``; d defaults to deg p and must be >= deg p.
    """
    if d is None:
        d = max(p.degree, 0)
    if d < p.degree:
        raise ValueError("clearing degree below deg p")
    M = moebius_matrix(m.a, d)
    return Poly(M @ pad_coeffs(p.coeffs, (d,))), Poly(M[:, 0])


def vacuous_node_factor(lam: complex) -> Poly:
    """(z - lam)(1 - conj(lam) z): self-reflective at degree 2, vanishing at lam."""
    return Poly(np.array([-lam, 1.0])) * Poly(np.array([1.0, -np.conj(lam)]))


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with a unimodular front constant.

    Value is ``c * prod (z_k - z) / (1 - conj(z_k) z)`` over the stored zeros.
    """

    zeros: tuple[complex, ...] = ()
    constant: complex = 1.0 + 0.0j

    def __post_init__(self):
        for z in self.zeros:
            if abs(z) >= 1.0:
                raise ValueError("Blaschke zeros must lie strictly inside the disk")
        if abs(abs(self.constant) - 1.0) > 1e-10:
            raise ValueError("front constant must be unimodular")

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full_like(z, self.constant)
        for a in self.zeros:
            out = out * (a - z) / (1.0 - np.conj(a) * z)
        return out if out.ndim else complex(out)

    def as_rational(self) -> tuple[Poly, Poly]:
        num = Poly(np.array([self.constant]))
        den = Poly.one()
        for a in self.zeros:
            num = num * Poly(np.array([a, -1.0]))
            den = den * Poly(np.array([1.0, -np.conj(a)]))
        return num, den
