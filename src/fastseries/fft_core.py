"""Complex DFTs on the supported length set, composite transforms, and
DFT-based polynomial multiplication.

A polynomial is a 1-d array of complex coefficients, index = power of x.
Transforms evaluate with the convention ``values[j] = p(w**j)``,
``w = exp(2*pi*i/L)``; the inverse carries the 1/L factor.  Every public
transform reports a DFT event to the ledger it is handed (the leaf kernels
themselves do not record anything).  The forward and inverse transforms
also take a 2-d array of polynomials, one per row: the batch runs as one
numpy call along the last axis and records one event group per row, the
same events as that many single calls.  Each transform, the block
engine's included, is one direct call of numpy's pocketfft gufunc, made
from this module alone, that writes its values once: ``ifft`` with factor
1 forward and ``fft`` with factor 1/L back, the factors ``numpy.fft``
passes for ``norm="forward"``.  The leaf kernels ``_forward`` and ``_backward``
alone write into a caller's array (``out=``), the input itself or a
strided view, with the same bits.
``dft_pair``, a leaf too, takes the transforms of two independent
polynomials of one order into the caller's arrays; from order
``_PAIR_MIN_ORDER`` up, in a process that may use two CPUs, the second runs
on a thread started for it while the first runs in the caller (pocketfft
releases the GIL), with the same values as two ``dft`` calls.  No thread,
lock or executor is kept between calls.  That protocol, ``_on_two_threads``,
is the library's only one: the series writer runs its row chunks on it
too.  The leaves neither check nor
record; the Newton step that calls ``dft_pair`` records its own event group.

Supported lengths are ``2**a * 3**b`` with ``b <= 1``, which keeps the
granted/requested overshoot at 3/2 or better and directly provides the
orders k, 2k and 3k the block algorithms need.
"""

from __future__ import annotations

import _thread
import functools
import os
import sys
from dataclasses import dataclass

import numpy as np
# numpy's own pocketfft gufuncs, called directly: numpy.fft.fft/ifft, which
# call them too, spend about 4 us a call working out the same norm factor,
# dtype, axis and output shape again, as much as a whole order-32 transform.
from numpy.fft import _pocketfft_umath as _pocketfft

from .cost_ledger import record_dfts, tally
from .errors import KindMismatchError, UnsupportedLengthError


def is_supported_length(L: int) -> bool:
    if L < 1:
        return False
    while L % 2 == 0:
        L //= 2
    return L in (1, 3)


def _pow2_at_least(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


def granted_length(n: int) -> int:
    """Smallest supported transform length >= n."""
    if n <= 1:
        return 1
    p2 = _pow2_at_least(n)
    p3 = 3 * _pow2_at_least((n + 2) // 3)
    return min(c for c in (p2, p3) if c >= n)


def zeta_for(k: int) -> complex:
    """Rotation used on the second segment of a double spectrum; zeta**k = i."""
    return complex(np.exp(1j * np.pi / (2 * k)))


# Root tables are computed once per length and reused; building them is not
# counted as arithmetic.
@functools.lru_cache(maxsize=256)
def _zeta_table(k: int, sign: int):
    table = zeta_for(k) ** (sign * np.arange(k))
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=256)
def _outer3_table(k: int):
    j = np.arange(3 * k)
    w = np.exp(2j * np.pi / (3 * k))
    rows = tuple((w ** (t * j)).copy() for t in range(3))
    for row in rows:
        row.setflags(write=False)
    return rows


@dataclass
class Spectrum:
    """DFT image of a polynomial block.

    kind "plain":  values[j] = p(w_L**j), length L.
    kind "double": first l values are the order-l DFT, the last k are the
                   order-k DFT of p(zeta*x); total length l + k.
    kind "triple": an ordinary order-3k DFT computed through the outer
                   order-3 / inner order-k decomposition.

    Pointwise products of two spectra of identical kind represent the
    polynomial product as long as its degree fits the transform capacity
    (L, l + k, or 3k respectively).
    """

    values: np.ndarray
    kind: str
    l: int = 0
    k: int = 0

    @property
    def length(self) -> int:
        return self.values.shape[-1]

    def _signature(self):
        return (self.kind, self.l, self.k, self.values.shape[-1])

    def pointwise(self, other: "Spectrum", ledger=None) -> "Spectrum":
        """The product spectrum self * other; the operand order is kept
        because complex products are not bitwise commutative."""
        if self._signature() != other._signature():
            raise KindMismatchError(
                f"cannot combine {self._signature()} with {other._signature()}"
            )
        tally(ledger, cmul=self.values.size)
        return Spectrum(self.values * other.values, self.kind, self.l, self.k)


# -- leaf kernels (no recording) ------------------------------------------

def _forward(coeffs, L: int, out=None) -> np.ndarray:
    c = np.asarray(coeffs, dtype=np.complex128)
    if out is None:
        out = np.empty(c.shape[:-1] + (L,), dtype=np.complex128)
    return _pocketfft.ifft(c, 1.0, out=out)


def _backward(values, out=None) -> np.ndarray:
    v = np.asarray(values, dtype=np.complex128)
    if out is None:
        out = np.empty(v.shape, dtype=np.complex128)
    return _pocketfft.fft(v, 1 / v.shape[-1], out=out)


# The block engine's transforms along axis 1 of a (chunks, L, width) stack,
# numpy's own pairing: unscaled w**-1 forward, and the inverse scaled by 1/L.
_AXIS_1 = [(1,), (), (1,)]


def _axis_forward(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    return _pocketfft.fft(x, 1.0, axes=_AXIS_1, out=out)


def _axis_backward(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    return _pocketfft.ifft(x, 1 / out.shape[1], axes=_AXIS_1, out=out)


# Shortest order at which dft_pair runs its two transforms at once, beside
# the fourth table of ``python tools/crossover.py src``:
# Intel(R) Xeon(R) Processor, 2 usable CPUs, numpy 2.4.6, Python 3.11.7
# dft_pair of L and L/2 coefficients, median us of 300 interleaved pairs,
# serial / two threads, and the ratio two threads / serial [q1, q3]
#       L   serial  threads   ratio
#    4096       95      141   1.48 [1.31, 1.93]
#    6144      173      213   1.17 [0.98, 1.43]
#    8192      324      273   0.87 [0.75, 0.98]
#   12288      508      407   0.81 [0.72, 0.92]
#   16384      632      494   0.79 [0.71, 0.88]
#   32768     1327      773   0.58 [0.55, 0.62]
#   65536     2219     1531   0.63 [0.56, 0.80]
# Two threads win from 8192-12288 on; 16384 stays until end-to-end runs.
_PAIR_MIN_ORDER = 16384


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_length(L: int):
    if not is_supported_length(L):
        raise UnsupportedLengthError(f"transform length {L} not of the form 2^a*3^b, b<=1")


def _polys(p) -> np.ndarray:
    """One polynomial as a 1-d array, or a batch of them as the rows of a 2-d one."""
    c = np.asarray(p, dtype=np.complex128)
    return c if c.ndim == 2 else c.reshape(-1)


def _rows(a: np.ndarray) -> int:
    return a.shape[0] if a.ndim == 2 else 1


# -- public transforms -----------------------------------------------------

def dft(p, L: int, ledger=None, label=None) -> Spectrum:
    """Order-L DFT of a polynomial with deg p < L, or of each row of a
    batch.  Empty input is zero."""
    _check_length(L)
    c = _polys(p)
    if c.shape[-1] > L:
        raise UnsupportedLengthError(f"polynomial with {c.shape[-1]} coefficients exceeds order {L}")
    record_dfts(ledger, (L,), _rows(c), label)
    return Spectrum(_forward(c, L), "plain")


def _on_two_threads(first, second):
    """(first(), second()): second runs on a thread started for it while
    first runs here, in a process that may use at least 2 CPUs, so the two
    must touch no memory the other writes.  The call returns once that
    thread has finished second and let go of everything it held; an error
    second raised is raised here once first is done.  While the interpreter
    finalizes (a thread started then may never run), or when no thread can
    start, both run here, first first.  dft_pair and the series writer share
    this one protocol: no thread, lock or executor outlives the call."""
    if _usable_cpus() < 2 or sys.is_finalizing():
        return first(), second()
    done, result, error = _thread.allocate_lock(), [], []
    done.acquire()

    def run():
        try:
            result.append(second())
        except BaseException as exc:
            error.append(exc)
        finally:
            done.release()

    try:
        _thread.start_new_thread(run, ())
    except RuntimeError:  # no thread can start
        return first(), second()
    try:
        mine = first()
    finally:
        done.acquire()
    if error:
        raise error[0]
    return mine, result[0]


def dft_pair(p, q, L: int, out_p, out_q) -> tuple[np.ndarray, np.ndarray]:
    """The values of dft(p, L) and dft(q, L), for polynomials with degrees
    below L and a supported L, written into out_p and out_q and returned.
    Like the leaf kernels it checks and records nothing: the Newton layer,
    its caller, computes the lengths itself and records the events.  From
    order _PAIR_MIN_ORDER up, q's transform runs on a second thread when
    _on_two_threads starts one, so neither output may overlap the other or
    an input."""
    if L < _PAIR_MIN_ORDER:
        return _forward(p, L, out_p), _forward(q, L, out_q)
    return _on_two_threads(lambda: _forward(p, L, out_p), lambda: _forward(q, L, out_q))


def inverse_dft(s: Spectrum, ledger=None, label=None) -> np.ndarray:
    """Recover the coefficients of a plain spectrum (row by row for a batch)."""
    if s.kind != "plain":
        raise KindMismatchError(f"inverse_dft needs a plain spectrum, got {s.kind}")
    record_dfts(ledger, (s.length,), _rows(s.values), label)
    return _backward(s.values)


def double_dft(p, l: int, k: int, ledger=None, label=None) -> Spectrum:
    """Double DFT of order (l, k) of a polynomial with deg p < l + k, or of
    each row of a batch.

    Costs one order-l and one order-k transform plus O(l+k) scalar work: the
    two segments are the residues of p modulo x**l - 1 and modulo x**k - i
    (the latter carried as the plain DFT of the zeta-rotated residue).
    """
    _check_length(l)
    _check_length(k)
    c = _polys(p)
    width = c.shape[-1]
    if width > l + k:
        raise UnsupportedLengthError(
            f"polynomial with {width} coefficients exceeds double order ({l},{k})"
        )
    fold_l = np.zeros(c.shape[:-1] + (l,), dtype=np.complex128)
    for t in range(0, width, l):
        chunk = c[..., t : t + l]
        fold_l[..., : chunk.shape[-1]] += chunk
    fold_k = np.zeros(c.shape[:-1] + (k,), dtype=np.complex128)
    tw = 1.0 + 0j  # i**t twist because zeta**k = i
    for t in range(0, width, k):
        chunk = c[..., t : t + k]
        fold_k[..., : chunk.shape[-1]] += tw * chunk
        tw *= 1j
    fold_k *= _zeta_table(k, 1)
    rows = _rows(c)
    tally(ledger, cmul=rows * (l + 2 * k), cadd=c.size)
    record_dfts(ledger, (l, k), rows, label)
    values = np.empty(c.shape[:-1] + (l + k,), dtype=np.complex128)
    _forward(fold_l, l, values[..., :l])
    _forward(fold_k, k, values[..., l:])
    return Spectrum(values, "double", l=l, k=k)


def inverse_double_dft(s: Spectrum, ledger=None, label=None) -> np.ndarray:
    """Recover a degree < l + k polynomial from its double spectrum (row by
    row for a batch).

    Implemented for l = 2k by residue recombination: with x**2k = -1 modulo
    x**k - i, the top block is t = -(r2 - r1)/2 reduced modulo x**k - i,
    where r1, r2 are the two recovered residues.
    """
    if s.kind != "double":
        raise KindMismatchError(f"inverse_double_dft needs a double spectrum, got {s.kind}")
    l, k = s.l, s.k
    if l != 2 * k:
        raise KindMismatchError("double reconstruction is defined for l = 2k")
    rows = _rows(s.values)
    record_dfts(ledger, (l, k), rows, label)
    coeffs = np.empty(s.values.shape, dtype=np.complex128)
    r1 = _backward(s.values[..., :l], coeffs[..., :l])
    top = _backward(s.values[..., l:], coeffs[..., l:])
    top *= _zeta_table(k, -1)  # r2
    top -= r1[..., :k] + 1j * r1[..., k:]  # r1 modulo x**k - i
    top /= -2
    r1[..., :k] -= top
    tally(ledger, cmul=rows * 2 * k, cadd=rows * 3 * k)
    return coeffs


def dft_3k(p, k: int, ledger=None, label=None) -> Spectrum:
    """Order-3k DFT decomposed into three inner order-k DFTs plus order-3
    butterflies; equals dft(p, 3k) up to round-off."""
    _check_length(k)
    c = np.asarray(p, dtype=np.complex128).reshape(-1)
    if c.size > 3 * k:
        raise UnsupportedLengthError(
            f"polynomial with {c.size} coefficients exceeds order {3 * k}"
        )
    inner = [_forward(c[t::3], k) for t in range(3)]
    record_dfts(ledger, (k,), 3, label)
    j = np.arange(3 * k)
    twiddles = _outer3_table(k)
    values = np.zeros(3 * k, dtype=np.complex128)
    for t in range(3):
        values += twiddles[t] * inner[t][j % k]
    tally(ledger, cmul=6 * k, cadd=6 * k)
    return Spectrum(values, "triple", k=k)


def multiply(p, q, ledger=None, label=None) -> np.ndarray:
    """Exact polynomial product via forward/forward/pointwise/inverse at the
    granted length; records exactly three DFT events of that one order."""
    a = np.asarray(p, dtype=np.complex128).reshape(-1)
    b = np.asarray(q, dtype=np.complex128).reshape(-1)
    if a.size == 0 or b.size == 0:
        return np.zeros(max(a.size + b.size - 1, 0), dtype=np.complex128)
    out_len = a.size + b.size - 1
    L = granted_length(out_len)
    sa = dft(a, L, ledger=ledger, label=label)
    sb = dft(b, L, ledger=ledger, label=label)
    prod = sa.pointwise(sb, ledger=ledger)
    full = inverse_dft(prod, ledger=ledger, label=label)
    return full[:out_len]
