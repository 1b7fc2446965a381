"""Correctness gate: residuals of the defining identities, computed with
plain ``numpy.fft`` so the check shares no code with the library.

Each residual is max|A - B| / (1 + max(max|A|, max|B|)) over the first
N-1 (or N) coefficients of an identity A = B that the output must satisfy:

    exp   f' = h' f
    pow   h f' = C h' f
    inv   g r = 1
    log   g L' = g'

Correct double-precision outputs read about 1e-16; one coefficient off by
1e-8 reads about 1e-5.  The gate tolerance is tighter than the CLI's
``VERIFY_TOL`` (1e-8).
"""

from __future__ import annotations

import numpy as np

GATE_TOL = 1e-10
# Distance to the quadratic oracle; the oracle's own round-off grows with the
# recurrence depth, so this one uses the CLI's verify tolerance.
ORACLE_TOL = 1e-8


def _conv(a, b, n):
    a = np.asarray(a, dtype=np.complex128)[:n]
    b = np.asarray(b, dtype=np.complex128)[:n]
    L = 1 << max(1, (a.size + b.size - 1)).bit_length()
    return np.fft.ifft(np.fft.fft(a, L) * np.fft.fft(b, L))[:n]


def _rel(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return float("inf")
    scale = 1.0 + max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _d(c):
    c = np.asarray(c, dtype=np.complex128)
    return np.arange(1, c.size) * c[1:]


def exp_residual(h, f):
    N = len(f)
    return _rel(_d(f), _conv(_d(h[:N]), f, N - 1))


def pow_residual(h, C, f):
    N = len(f)
    hh = np.asarray(h, dtype=np.complex128)[:N]
    return _rel(_conv(hh, _d(f), N - 1), C * _conv(_d(hh), f, N - 1))


def inv_residual(g, r):
    N = len(r)
    one = np.zeros(N, dtype=np.complex128)
    one[0] = 1.0
    return _rel(_conv(g, r, N), one)


def log_residual(g, L):
    N = len(L)
    gg = np.asarray(g, dtype=np.complex128)[:N]
    return _rel(_conv(gg, _d(L), N - 1), _d(gg))


def oracle_distance(got, want):
    """Max difference scaled by 1 + max|reference|, as ``fastseries verify``."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return float("inf")
    return float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want))))
