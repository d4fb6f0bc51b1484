"""Fixed reference kernel that measures the machine's current speed.

On a shared host the speed of one core drifts by a third within a minute, so
raw solve times of two runs differ more than any change worth measuring.  The
benchmark runs this kernel before every solve attempt and scales each attempt's
time by ``NOMINAL_S`` over the kernel's local median time.  Reported times are
therefore milliseconds at the machine speed at which the kernel takes
``NOMINAL_S``; the raw times are kept in the run record.

The kernel mixes what the solvers spend their time on: small dense LAPACK
calls, an FFT, polynomial roots and interpreted loops over Python numbers.  It
does not touch ``takagi``, so no change to the program can change its cost.
Never edit it: that would shift every normalised figure.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 3.2e-3

_rng = np.random.default_rng(12345)
_A = _rng.normal(size=(12, 12)) + 1j * _rng.normal(size=(12, 12))
_H = _A + _A.conj().T
_C = _rng.normal(size=17) + 1j * _rng.normal(size=17)


def kernel() -> float:
    acc = 0.0
    for _ in range(6):
        w, v = np.linalg.eigh(_H)
        acc += float(w[0])
        for m in range(13):
            z = 0.9 * np.exp(2j * np.pi * m / 13)
            M = np.eye(12) - z * _A * 0.05
            acc += abs(np.linalg.det(M)) + abs(np.linalg.solve(M, v[:, 0])[0])
        acc += abs(np.fft.fft(_C)[1]) + abs(np.roots(_C)[0])
        coeffs = [complex(c) for c in _C]
        x = 0j
        for _ in range(40):
            x = 0j
            for c in coeffs:
                x = x * 0.3 + c
        acc += abs(x) + float(np.linalg.svd(_A, compute_uv=False)[0])
    return acc


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factors(ref_s: list[float], half_window: int = 5) -> list[float]:
    """Per-attempt scale NOMINAL_S / median kernel time of the neighbouring attempts."""
    return [
        NOMINAL_S / statistics.median(ref_s[max(0, i - half_window): i + half_window + 1])
        for i in range(len(ref_s))
    ]
