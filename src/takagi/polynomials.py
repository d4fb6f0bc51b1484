"""Complex polynomials in one or more variables, Moebius maps and Blaschke products.

A ``Poly`` in k variables stores its coefficients in an array of rank k,
ascending in each axis: ``coeffs[k1, ..., kk]`` multiplies
z1**k1 ... zk**kk.  The disk uses k = 1 and the bidisk k = 2; every
operation below (trim, evaluate, add, multiply, reflect, pad) is written once
for any k, and a ``Rational`` is the quotient of two ``Poly``s, callable in
the same k variables.  The zero polynomial has shape (0, ..., 0) and degree
-1 in each variable.  Root finding (one variable) goes through the companion
matrix that numpy.roots builds, for several polys at once (``find_roots``);
the numeric GCD pairs roots of the two polynomials rather than running a
Euclidean remainder sequence, which is unstable in floating point.

The coefficient-space kernels shared by the disk and bidisk solvers live
here: Moebius composition as a matrix on coefficients (``moebius_matrix``),
the pull-back of a shifted weak solution (``moebius_pullback``), the values
on the circle or torus midpoint grid (``boundary_values``), reflection at a
declared degree per variable (``poly_reflect``), the reflective constant of a
numerator/denominator pair (``reflective_constant``), padding to a common
declared degree (``pad_to_degree``), the agreement of two rational functions
away from their poles (``ratio_agreement``), the vacuous node factor, the
roots inside the disk (``roots_in_disk``) and the cancellation of near-common
roots (``reduce_common_roots``).  A NaN or infinite coefficient raises
``NonFiniteCoefficientError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

TRIM_RTOL = 1e-10
# Roots of modulus below this count as inside the unit disk.
DISK_INTERIOR = 1.0 - 1e-9


class NonFiniteCoefficientError(ArithmeticError):
    """A polynomial coefficient is NaN or infinite."""


def _trim(coeffs: np.ndarray, rtol: float = TRIM_RTOL) -> np.ndarray:
    """Coefficients cut after the last entry above ``rtol`` times the largest, per axis."""
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    mags = np.abs(coeffs)
    top = float(mags.max(initial=0.0))
    if not math.isfinite(top):
        raise NonFiniteCoefficientError(f"polynomial coefficient is {top}")
    kept = np.nonzero(mags > rtol * top)
    if kept[0].size == 0:
        return np.zeros((0,) * coeffs.ndim, dtype=complex)
    return coeffs[tuple(slice(0, k.max() + 1) for k in kept)].copy()


def _lift(coeffs: np.ndarray, rank: int) -> np.ndarray:
    """Coefficients viewed in ``rank`` variables: a polynomial in the first ones."""
    if coeffs.ndim == rank:
        return coeffs
    return coeffs.reshape(coeffs.shape + (1,) * (rank - coeffs.ndim))


def _horner(coeffs: np.ndarray, z: list[np.ndarray]) -> np.ndarray:
    """Nested Horner evaluation, the last variable innermost."""
    x = z[0]
    if coeffs.ndim == 1:
        out = np.full(x.shape, coeffs[-1])
        for c in coeffs[-2::-1]:
            out = out * x + c
        return out
    out = 0.0j
    for row in coeffs[::-1]:
        inner = _horner(row, z[1:])
        out = out * x + inner
    return out


@dataclass(frozen=True)
class Poly:
    """Complex polynomial in ``coeffs.ndim`` variables; see the module docstring."""

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))
        self.coeffs.setflags(write=False)

    @property
    def degree(self) -> int:
        """Degree in the first variable (the degree of a one-variable polynomial)."""
        return self.coeffs.shape[0] - 1

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degree in each variable."""
        return tuple(n - 1 for n in self.coeffs.shape)

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    def norm(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    @cached_property
    def roots(self) -> np.ndarray:
        """Roots in one variable, found once (``find_roots``): none for a constant, ValueError for zero."""
        return find_roots([self])[0]

    def __call__(self, *z):
        """p(z) in one variable, p(z1, z2) in two; arguments broadcast."""
        if len(z) != self.coeffs.ndim:
            raise TypeError(f"expected {self.coeffs.ndim} coordinates, got {len(z)}")
        z = [np.asarray(x, dtype=complex) for x in z]
        if self.coeffs.size == 0:
            out = np.zeros(np.broadcast_shapes(*(x.shape for x in z)), dtype=complex)
        else:
            out = _horner(self.coeffs, z)
        return out if out.ndim else complex(out)

    def __add__(self, other: "Poly") -> "Poly":
        rank = max(self.coeffs.ndim, other.coeffs.ndim)
        a, b = _lift(self.coeffs, rank), _lift(other.coeffs, rank)
        out = np.zeros(tuple(map(max, a.shape, b.shape)), dtype=complex)
        out[tuple(map(slice, a.shape))] += a
        out[tuple(map(slice, b.shape))] += b
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (other * (-1.0))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.coeffs * complex(other))
        rank = max(self.coeffs.ndim, other.coeffs.ndim)
        if self.is_zero or other.is_zero:
            return Poly(np.zeros((0,) * rank, dtype=complex))
        a, b = _lift(self.coeffs, rank), _lift(other.coeffs, rank)
        # Kronecker substitution: with every axis but the first padded to the
        # product's width, the raveled product is one np.convolve (on one
        # variable, the convolve of the coefficients themselves).
        shape = tuple(m + n - 1 for m, n in zip(a.shape, b.shape))
        a, b = (pad_coeffs(c, (c.shape[0] - 1, *(n - 1 for n in shape[1:]))) for c in (a, b))
        return Poly(np.convolve(a.ravel(), b.ravel())[: math.prod(shape)].reshape(shape))

    __rmul__ = __mul__

    @staticmethod
    def one(variables: int = 1) -> "Poly":
        return Poly(np.ones((1,) * variables, dtype=complex))

    @staticmethod
    def from_roots(roots, lead: complex = 1.0) -> "Poly":
        p = Poly(np.array([complex(lead)]))
        for r in roots:
            p = p * Poly(np.array([-complex(r), 1.0]))
        return p


@dataclass(frozen=True)
class Rational:
    """phi = numerator / denominator in as many variables as the two ``Poly``s."""

    numerator: Poly
    denominator: Poly

    def __call__(self, *z):
        """phi(z) in one variable, phi(z1, z2) in two; arguments broadcast."""
        return self.numerator(*z) / self.denominator(*z)


def find_roots(polys) -> list[np.ndarray]:
    """Roots (with multiplicity) of one-variable polys, cached read-only as each poly's ``roots``.

    Each companion matrix is the one numpy.roots builds: first row -p[1:]/p[0]
    over the coefficients p in descending order, ones below the diagonal, the
    zero low coefficients left out and as many roots at 0 appended, so each
    root array equals numpy.roots' bit for bit.  The polys without cached
    roots are grouped by matrix size, and each group's stack goes to one
    ``np.linalg.eigvals`` call.  A constant has no roots; the zero poly raises
    ValueError.
    """
    groups: dict[int, list[tuple[Poly, int]]] = {}
    for p in polys:
        if "roots" in vars(p):
            continue
        if p.is_zero:
            raise ValueError("the zero polynomial has no well-defined roots")
        zeros = int(np.flatnonzero(p.coeffs)[0])
        size = p.degree - zeros
        if size:
            groups.setdefault(size, []).append((p, zeros))
        else:
            _cache_roots(p, np.zeros(zeros, dtype=complex))
    for size, group in groups.items():
        A = np.zeros((len(group), size, size), dtype=complex)
        A[:, np.arange(1, size), np.arange(size - 1)] = 1.0
        for row, (p, zeros) in zip(A, group):
            c = p.coeffs[::-1][: p.coeffs.size - zeros]
            row[0] = -c[1:] / c[0]
        for (p, zeros), eig in zip(group, np.linalg.eigvals(A)):
            _cache_roots(p, np.concatenate((eig, np.zeros(zeros, dtype=complex))))
    return [vars(p)["roots"] for p in polys]


def _cache_roots(p: Poly, roots: np.ndarray) -> None:
    roots.setflags(write=False)
    vars(p)["roots"] = roots


def poly_roots(p: Poly) -> np.ndarray:
    """Roots (with multiplicity) via the companion matrix: ``p.roots``, found once, read-only."""
    return p.roots


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


def _degrees(d) -> tuple[int, ...]:
    """A declared degree as one entry per variable (an int on one variable)."""
    return tuple(d) if np.ndim(d) else (d,)


def poly_reflect(p: Poly, d) -> Poly:
    """Reflection at the declared degree d (one degree per variable, or an int).

    Coefficient (k1, ..., kk) becomes conj(coeff[d1 - k1, ..., dk - kk]); this
    equals ``z1**d1 ... zk**dk * conj(p(1/conj(z1), ..., 1/conj(zk)))``, so on
    the circle (torus) the reflection has the same modulus as p.
    """
    d = _degrees(d)
    if any(k < a for k, a in zip(d, p.degrees)):
        raise ValueError(f"declared degree {d} below actual degree {p.degrees}")
    return Poly(reflect_coeffs(p.coeffs, d))


def pad_to_degree(p: Poly, d, target) -> Poly:
    """p times (1 + z_r) per missing degree, raising its declared degree d to target.

    Each factor 1 + z_r is self-reflective and has no zero inside the disk,
    so a weak solution reflect(p, d)/p stays one at the target degree.
    """
    d, target = _degrees(d), _degrees(target)
    for axis, (k, t) in enumerate(zip(d, target)):
        if t > k:
            factor = Poly(np.ones((1,) * axis + (2,) + (1,) * (len(d) - axis - 1)))
            for _ in range(t - k):
                p = p * factor
    return p


def reflective_constant(num: Poly, den: Poly, d) -> tuple[complex, float]:
    """Estimate c with num = c * reflect(den, d); return (c, relative defect).

    ``d`` is the declared degree, one per variable (or an int on one variable);
    ``den`` is nonzero (an extraction's, with constant term 1).
    """
    degrees = _degrees(d)
    rc = reflect_coeffs(den.coeffs, degrees)
    nc = pad_coeffs(num.coeffs, degrees)
    big = np.abs(rc) > 1e-6 * float(np.max(np.abs(rc)))
    ratios = nc[big] / rc[big]
    c = complex(np.median(ratios.real) + 1j * np.median(ratios.imag))
    defect = float(np.max(np.abs(nc - c * rc))) / max(float(np.max(np.abs(nc))), 1e-300)
    return c, defect


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


# The common factor of a pair with no near-common root: one shared constant,
# built once, since the early exit of poly_gcd_numeric is its common case.
_UNIT = Poly.one()


def poly_gcd_numeric(p: Poly, q: Poly, tol: float = 1e-8) -> tuple[Poly, Poly, Poly]:
    """Cancel near-common roots of p and q.

    Roots of p and q within ``tol`` of each other are paired greedily and
    divided out.  Returns (reduced p, reduced q, common factor); the common
    factor is monic with roots taken from p's side of each pair.  When no
    pair of roots is within ``tol`` (one distance matrix), nothing pairs and
    the result is (p, q, 1) with p and q themselves and a shared constant 1.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("numeric GCD requires nonzero polynomials")
    rp, rq = poly_roots(p), list(poly_roots(q))
    if not rp.size or not rq or np.min(np.abs(np.subtract.outer(rp, rq))) > tol:
        return p, q, _UNIT
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

    Roots pair up within 1e-9; returns the pair unchanged when no root pairs
    up or the reduced ratio departs from the original by more than 1e-7.
    """
    n0, d0, common = poly_gcd_numeric(num, den, 1e-9)
    if common.degree > 0 and ratio_agreement(num, den, n0, d0) <= 1e-7:
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



def moebius_matrix(a: complex, d: int) -> np.ndarray:
    """Coefficient map of p -> (1 - conj(a) z)**d * p(m(z)) at degree d, m = MoebiusMap(a).

    The (d+1) x (d+1) matrix acts on ascending coefficient vectors; column k
    holds ``(a - z)**k (1 - conj(a) z)**(d - k)``.  Column 0 is the cleared
    denominator ``(1 - conj(a) z)**d``.  Since m is self-inverse,
    ``M @ M = (1 - |a|**2)**d I``.  It is built once per (a, d) while in the
    cache of the most recent ones, and is read-only; the key is the bits of a,
    so 0.0 and -0.0 stay apart.
    """
    return _moebius_matrix(np.complex128(a).tobytes(), int(d))


@lru_cache(maxsize=256)
def _moebius_matrix(a_bits: bytes, d: int) -> np.ndarray:
    a = np.frombuffer(a_bits, dtype=complex)[0]
    num_pows = [np.ones(1, dtype=complex)]
    den_pows = [np.ones(1, dtype=complex)]
    for _ in range(d):
        num_pows.append(np.convolve(num_pows[-1], [a, -1.0]))
        den_pows.append(np.convolve(den_pows[-1], [1.0, -np.conj(a)]))
    M = np.column_stack([np.convolve(num_pows[k], den_pows[d - k]) for k in range(d + 1)])
    M.setflags(write=False)
    return M


def moebius_pullback(p: Poly, a, d) -> Poly:
    """Cleared composition of p with one Moebius map per variable, times i at odd |d|.

    Returns ``i**(|d| mod 2) * prod_r (1 - conj(a_r) z_r)**d_r * p(m_1(z_1), ...)``
    with m_r = MoebiusMap(a_r): one parameter a_r and declared degree
    d_r >= deg p per variable (scalars on one variable), |d| = sum_r d_r.
    The composition is ``M @ c`` on one variable and ``M1 @ C @ M2.T`` on two
    (``moebius_matrix``).  Composition multiplies the reflection at d by
    (-1)**|d|; the factor i undoes that, so the pull-back of a weak
    solution's denominator is again one.
    """
    d = _degrees(d)
    a = np.broadcast_to(np.asarray(a, dtype=complex), (len(d),))
    c = pad_coeffs(p.coeffs, d)
    out = (moebius_matrix(a[0], d[0]) @ c.reshape(d[0] + 1, -1)).reshape(c.shape)
    for axis in range(1, len(d)):
        M = moebius_matrix(a[axis], d[axis])
        out = np.swapaxes(np.swapaxes(out, axis, -1) @ M.T, axis, -1)
    return Poly(out * 1j if sum(d) % 2 else out)


def midpoint_angles(n: int) -> np.ndarray:
    """Angles 2 pi (m + 1/2) / n, m = 0..n-1, of the boundary grid."""
    return 2.0 * np.pi * (np.arange(n) + 0.5) / n


def boundary_values(p: Poly, n: int) -> np.ndarray:
    """p at exp(i * midpoint_angles(n)) in each variable: shape (n,) or (n, n).

    On two variables one (n, n) buffer takes each Horner step in place
    (``out *= z1; out += row(z2)``), the operations of ``p(z1, z2)`` on the
    grid in the same order.  One variable stays out of place, as ``p(z)``.
    """
    z = np.exp(1j * midpoint_angles(n))
    if p.coeffs.ndim == 1:
        return p(z)
    out = np.zeros((n, n), dtype=complex)
    x, y = z[:, None], [z[None, :]]
    for row in p.coeffs[::-1]:
        out *= x
        out += _horner(row, y)
    return out


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
