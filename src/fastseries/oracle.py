"""Quadratic-time reference implementations of inverse, exp, log, power and
the shifted middle product.

Everything here uses schoolbook convolution only, so the suite is fully
independent of the transform engine and serves as the ground truth the fast
algorithms are checked against.  Round-off grows with the recurrence depth;
at order 256 with unit-disk inputs agreements of 1e-10 are comfortable,
while order 2**13 is the practical cap used in tests.  Like the fast paths,
inverse, exp, log and power reject NaN/inf coefficients, a non-finite
exponent and a negative order with DomainError; order 0 gives an empty series.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .series_core import TruncatedSeries, coeffs_of, finite_coeffs, padded


def _zeros(n: int) -> np.ndarray:
    """The output array of order n."""
    if n < 0:
        raise DomainError("order must not be negative")
    return np.zeros(n, dtype=np.complex128)


def oracle_inverse(f, n: int) -> TruncatedSeries:
    """1/f mod x**n by the coefficient recurrence; needs f[0] != 0."""
    c = finite_coeffs(f)
    if c.size == 0 or c[0] == 0:
        raise DomainError("series with zero constant term is not invertible")
    r = _zeros(n)
    r[:1] = 1.0 / c[0]
    for j in range(1, n):
        t = min(j, c.size - 1)
        s = np.dot(c[1 : t + 1], r[j - t : j][::-1]) if t > 0 else 0.0
        r[j] = -s / c[0]
    return TruncatedSeries(r)


def oracle_exp(h, n: int) -> TruncatedSeries:
    """exp(h) mod x**n for h[0] = 0, via j*f_j = sum_i i*h_i*f_{j-i}."""
    c = finite_coeffs(h)
    if c.size and c[0] != 0:
        raise DomainError("exp needs a zero constant term")
    ih = np.arange(c.size) * c  # i * h_i
    f = _zeros(n)
    if n == 0:
        return TruncatedSeries(f)
    f[0] = 1.0
    for j in range(1, n):
        t = min(j, c.size - 1)
        s = np.dot(ih[1 : t + 1], f[j - t : j][::-1]) if t > 0 else 0.0
        f[j] = s / j
    return TruncatedSeries(f)


def oracle_log(f, n: int) -> TruncatedSeries:
    """log(f) mod x**n for f[0] = 1, computed as the integral of f'/f."""
    c = padded(finite_coeffs(f), max(n, 1))
    if c[0] != 1:
        raise DomainError("log needs constant term 1")
    out = _zeros(n)
    if n <= 1:
        return TruncatedSeries(out)
    df = np.arange(1, n) * c[1:n]
    inv = oracle_inverse(c[: n - 1], n - 1).coeffs
    prod = np.convolve(df, inv)[: n - 1]
    out[1:] = prod / np.arange(1, n)
    return TruncatedSeries(out)


def oracle_pow(h, C, n: int) -> TruncatedSeries:
    """h**C mod x**n for h[0] = 1 and complex C, via h*f' = C*h'*f."""
    c = finite_coeffs(h)
    C = complex(C)
    if not np.isfinite(C):
        raise DomainError("exponent must be finite")
    if c.size == 0 or c[0] != 1:
        raise DomainError("pow needs constant term 1")
    f = _zeros(n)
    if n == 0:
        return TruncatedSeries(f)
    f[0] = 1.0
    for j in range(1, n):
        t = min(j, c.size - 1)
        if t > 0:
            i = np.arange(1, t + 1)
            w = c[1 : t + 1] * ((C + 1) * i - j)
            s = np.dot(w, f[j - t : j][::-1])
        else:
            s = 0.0
        f[j] = s / j
    return TruncatedSeries(f)


def oracle_middle(f, g, h, shift: int, n: int) -> TruncatedSeries:
    """f * floor(g*h / x**shift) mod x**n by full naive products."""
    if shift < 0:
        raise DomainError("shift must be nonnegative")
    a, b, c = coeffs_of(f), coeffs_of(g), coeffs_of(h)
    out = np.zeros(n, dtype=np.complex128)
    if a.size == 0 or b.size == 0 or c.size == 0:
        return TruncatedSeries(out)
    gh = np.convolve(b, c)
    floored = gh[shift:]
    if floored.size == 0:
        return TruncatedSeries(out)
    prod = np.convolve(a, floored)[:n]
    out[: prod.size] = prod
    return TruncatedSeries(out)
