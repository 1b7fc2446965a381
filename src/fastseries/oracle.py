"""Quadratic-time reference implementations of inverse, exp, log, power and
the shifted middle product.

Everything here uses schoolbook products only (dot products, np.convolve
and small dense matrix products), so the suite is fully independent of the
transform engine and serves as the ground truth the fast algorithms are
checked against.  Inverse and exp run in blocks of 32 coefficients (64
above order 512): the first block by the coefficient recurrence (which runs
alone up to two blocks, four for exp), each later block from what the
finished ones contribute, added in one np.convolve per finished block, and
then solved against the block's own lower-triangular system: exp through
inverses of its sub-blocks that the recurrence itself computes, the inverse
through the first block's reciprocal and one refinement step.  No block goes through a factored
inverse whose large factors would have to cancel.  They agree with the
coefficient recurrence to 1e-15 relative or better on the cli inputs up to
order 8192, match its own 1e-14..3e-13 error on the closed-form family at
orders 512..2048, and stay exact to round-off on exp(a*x) with |a| up to
100, where the recurrence itself has no cancellation.  Round-off grows with
the order; at order 256 with unit-disk inputs agreements of 1e-10 with the
fast paths are comfortable, and order 4096 is the largest used in tests.
Like the fast paths, inverse, exp, log and power reject NaN/inf
coefficients, a non-finite exponent and a negative order with DomainError;
order 0 gives an empty series.
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


def _block_size(n: int) -> int:
    """Coefficients per block of the blocked recurrences at order n."""
    return 32 if n <= 512 else 64


# Coefficients per sub-block of the blocked exp, solved by one resolvent.
_SUB = 16


def _lower_toeplitz(a: np.ndarray) -> np.ndarray:
    """The matrix of multiplication by a mod x**a.size: entry (i, j) is
    a[i - j] on and below the diagonal, 0 above."""
    d = np.subtract.outer(np.arange(a.size), np.arange(a.size))
    return np.where(d >= 0, a[np.maximum(d, 0)], 0)


def _add_known(acc: np.ndarray, lo: int, block: np.ndarray, c: np.ndarray) -> None:
    """acc[j] += sum of block[i] * c[j - lo - i] over j - lo - i >= 1: what
    the finished block out[lo:lo+b] adds to the known part of every later
    coefficient of c * out."""
    tail = c[1 : acc.size - lo]
    if tail.size:
        part = np.convolve(block, tail)[: acc.size - lo - 1]
        acc[lo + 1 : lo + 1 + part.size] += part


def _inverse_loop(c: np.ndarray, n: int) -> np.ndarray:
    """1/c mod x**n, one coefficient at a time."""
    r = _zeros(n)
    r[:1] = 1.0 / c[0]
    for j in range(1, n):
        t = min(j, c.size - 1)
        s = np.dot(c[1 : t + 1], r[j - t : j][::-1]) if t > 0 else 0.0
        r[j] = -s / c[0]
    return r


def oracle_inverse(f, n: int) -> TruncatedSeries:
    """1/f mod x**n by the coefficient recurrence; needs f[0] != 0.

    Up to order 2b the recurrence runs alone; above, it makes the first
    block of b coefficients, and each later block U = r[lo:lo+b] solves
    T(c) U = -P, where T(c) is the multiplication matrix of c mod x**b and
    P the part of (c * r)[lo:lo+b] that the finished blocks give.  The
    solve is U = -T(r[:b]) P, then one step of iterative refinement against
    T(c) itself, so a first block spoiled by cancellation does not spread
    its error through every later block."""
    c = finite_coeffs(f)
    if c.size == 0 or c[0] == 0:
        raise DomainError("series with zero constant term is not invertible")
    b = _block_size(n)
    if n <= 2 * b:  # where the recurrence alone is as fast
        return TruncatedSeries(_inverse_loop(c, n))
    r = padded(_inverse_loop(c, b), n)
    R = _lower_toeplitz(r[:b])
    C = _lower_toeplitz(padded(c, b))
    acc = _zeros(n)
    _add_known(acc, 0, r[:b], c)
    for lo in range(b, n, b):
        s = min(b, n - lo)
        p = acc[lo : lo + s]
        u = -(R[:s, :s] @ p)
        u -= R[:s, :s] @ (p + C[:s, :s] @ u)
        r[lo : lo + s] = u
        _add_known(acc, lo, u, c)
    return TruncatedSeries(r)


def _exp_loop(ih: np.ndarray, n: int) -> np.ndarray:
    """exp(h) mod x**n from ih[i] = i*h_i, one coefficient at a time."""
    f = _zeros(n)
    f[:1] = 1.0
    for j in range(1, n):
        t = min(j, ih.size - 1)
        s = np.dot(ih[1 : t + 1], f[j - t : j][::-1]) if t > 0 else 0.0
        f[j] = s / j
    return f


def _exp_resolvents(ih: np.ndarray, lo: int, n: int) -> np.ndarray:
    """W[q], for every sub-block of _SUB coefficients from j = lo + q*_SUB:
    the inverse of diag(j + t) - T(ih mod x**_SUB), the matrix of the
    sub-block's own part of j*f_j - sum_i i*h_i*f_{j-i}.  Column u of W[q]
    is the recurrence's response to a unit impulse at j + u, so one forward
    recurrence over the impulse offsets, vectorized over every start at
    once, gives them all: G[k, j - lo] is the response at j + k to the
    impulse at j."""
    m = -(-(n - lo) // _SUB)
    j = np.arange(lo, lo + m * _SUB, dtype=np.float64)
    G = np.zeros((_SUB + 1, j.size), dtype=np.complex128)  # row _SUB stays 0
    G[0] = 1.0 / j
    w = padded(ih, _SUB)
    for k in range(1, _SUB):
        G[k] = np.dot(w[k:0:-1].copy(), G[:k]) / (j + k)
    t = np.arange(_SUB)
    d = np.subtract.outer(t, t)  # t - u; above the diagonal, the zero row
    rows = np.where(d >= 0, d, _SUB) * j.size
    return np.take(G, rows + t + _SUB * np.arange(m)[:, None, None])


def oracle_exp(h, n: int) -> TruncatedSeries:
    """exp(h) mod x**n for h[0] = 0, via j*f_j = sum_i i*h_i*f_{j-i}.

    Up to order 4b the recurrence runs alone; above, it makes the first
    block of b coefficients.  With f = F + x**lo * U, F the finished
    blocks, the first-order equation x*f' = x*h'*f (Brent and Kung, JACM
    1978) gives (diag(lo + t) - T(i*h_i mod x**b)) U = P, where P is the
    part of (x*h' * F)[lo:lo+b], known at once as in a relaxed product.
    Each block solves that lower-triangular system in sub-blocks of _SUB
    coefficients: the earlier sub-blocks' part comes in through T, and
    each sub-block's own part through its inverse from _exp_resolvents."""
    c = finite_coeffs(h)
    if c.size and c[0] != 0:
        raise DomainError("exp needs a zero constant term")
    ih = np.arange(c.size) * c  # i * h_i
    b = _block_size(n)
    if n <= 4 * b:  # the first block also pays for the resolvents
        return TruncatedSeries(_exp_loop(ih, n))
    f = padded(_exp_loop(ih, b), n)
    W = _exp_resolvents(ih, b, n)
    T = _lower_toeplitz(padded(ih, b))
    acc = _zeros(n)
    _add_known(acc, 0, f[:b], ih)
    for lo in range(b, n, b):
        hi = min(lo + b, n)
        for k in range(lo, hi, _SUB):
            e = min(k + _SUB, hi)
            p = acc[k:e]
            if k > lo:
                p = p + T[k - lo : e - lo, : k - lo] @ f[lo:k]
            f[k:e] = W[(k - b) // _SUB, : e - k, : e - k] @ p
        _add_known(acc, lo, f[lo:hi], ih)
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
