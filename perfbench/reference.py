"""A fixed reference computation that every timed call is measured against.

The host is shared: whole runs move together by 25% or more between one
run and the next, for reasons outside the program.  Dividing a call's wall
time by the time of this fixed computation, run on the same host just before
and just after the call, cancels most of that drift.  The end-to-end metrics
are such ratios (unit ``ref``); a change to the library moves them, since
this file uses numpy and the standard library only.

The computation has one part of each kind of work the library does: a
quadratic recurrence of short ``np.dot`` calls (the oracle bootstrap), many
order-16 to order-64 transforms (the block engine), one order-2**14
transform (the Newton ops), and formatting and parsing of complex numbers
as text (the CLI).  Its inputs are fixed; they do not depend on the seed.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20260)
_REC = (_RNG.standard_normal(768) + 1j * _RNG.standard_normal(768)) / 768
_SMALL = _RNG.standard_normal(64) + 1j * _RNG.standard_normal(64)
_BIG = _RNG.standard_normal(1 << 14) + 1j * _RNG.standard_normal(1 << 14)
_TEXT = _BIG[:300].tolist()


def _work():
    f = np.zeros(_REC.size, dtype=np.complex128)
    f[0] = 1.0
    for j in range(1, _REC.size):
        f[j] = np.dot(_REC[1 : j + 1], f[j - 1 :: -1]) / j
    for L in (16, 32, 48, 64) * 25:
        np.fft.ifft(np.fft.fft(_SMALL[:L]) * _SMALL[:L])
    np.fft.ifft(np.fft.fft(_BIG))
    text = "\n".join(f"{z.real!r} {z.imag!r}" for z in _TEXT)
    parsed = [complex(*map(float, line.split())) for line in text.splitlines()]
    return f, parsed


def seconds() -> float:
    """Wall time of one run of the reference computation."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
