"""Blockwise middle products in DFT-image space with a shared spectrum cache.

Series are cut into size-k blocks.  Each block is transformed once, whole,
into a double spectrum of order (2k, k): 3k values that multiply pointwise
like an order-3k transform while also exposing a plain order-2k DFT as their
first segment for reuse in short products.  A series grows by whole blocks,
so no block is transformed while some of its coefficients are unknown and
none is transformed twice into the same kind of spectrum.

The middle product q = f * floor(g*h / x**shift) mod x**n, shift and n
multiples of k, runs on the block spectra it reads, making those not yet
cached: pairwise image convolutions produce the u-vectors, the straddling u
(the block just below the cut, whose upper half reaches past it) is
inverted once to extract the flooring correction theta, theta is
transformed forward, and each output block costs one inverse transform.
Excluding the cached block transforms, that is 3*(n/k + 2) order-k units.

The cache keeps one record per series: its coefficients, their known
count, and its block spectra stacked as the rows of one array, the double
spectrum in all 3k columns and the order-2k spectrum in the first 2k.
``BlockCache.rows`` hands out either kind as a view of those rows.  Every
block-pair sum, sum over mu of B[mu] * C[j - mu] (a residual image, an
output block of a middle or short product, ``short_product_2k``), comes
from one primitive, ``_block_conv``, which takes it one of two ways:

- directly, one pair sum per row: each pair product is added into the row
  in place, in the order a reduction over the stacked products adds it;
- along the block axis (van der Hoeven's FFT trading): both stacks are cut
  into chunks of c rows, c the largest power of two not above the rows
  asked for (n/k per extension step, m/k for the final product), each chunk
  is transformed along the block axis at length 2c, the chunk-pair products
  are summed in place per landing offset, and one inverse per offset that
  reaches the rows asked for gives them by overlap-add.  A series' record keeps its
  chunk transforms with one count, the rows they were made from; rows are
  made in block order, so only the chunks past the last one whole below
  that count are made again, in one batch (the growing head chunk of s,
  once per step); the fixed r and rho chunks are transformed once per run.
  A step's residual images then cost O(m/n) chunk products of 2n points
  each where the direct sum takes O((n/k)(m/k)) row products of 3k points.

The choice is made per call from what it can see: a sum of at least 8
rows, each at most 1024 columns wide, some row of which has a block pair,
goes along the block axis, any other directly.  The default plans (m/k = 4,
so a few rows a sum) stay direct; the pinned k = 16 plans take the block
axis for their windows of 8 rows or more, 32 or 48 columns wide.  Over the
8,021 calls the default and pinned exp/pow plans make at 69 orders from 32
to 65536, the rule picks the path the timed cost model it replaced picked on
all but 9, near ties in pinned pow at m = 384 where that model flipped from
one step to the next.  Either way the work is tallied in the ledger's scalars
(``cmul``, ``cadd`` and ``axis_dft``, the points of block-axis transforms),
never as DFT events.  The forward block transforms of a step and its
output inverses each run as one batch; the ledger still sees one event per
block transform, in block order.

A block product maps no fresh memory once its thread has run a call of the
same size, up to the sizes the benchmark runs (``_HELD_MOST``).  A cache in
a ``with`` block takes its spectrum rows and chunk transforms from one
array the thread holds (``_Arena``), unless another cache's ``with`` block
holds it, and gives it back when its block ends; the offset sums and the
pair-sum term are held arrays of their own (``_block_work``).  No held
array reaches a returned series, and none is read before it is written:
the counts of made rows and chunks start at 0 in every cache, and a cache
drops its spectra when it gives the array back.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import fft_core
from .cost_ledger import BOUNDARY_INVERSE_LABEL, tally
from .errors import DomainError, PlanError
from .series_core import TruncatedSeries, padded


@dataclass(frozen=True)
class BlockPlan:
    """Parameter triple (k, n, m), or the flag of the quadratic fallback path.

    k is the block size, n the bootstrap/extension order, m the first-half
    frontier; extension steps grow a series by n, so k | n and n | m.
    """

    k: int
    n: int
    m: int
    fallback: bool = False

    def __post_init__(self):
        if self.fallback:
            return
        if self.k < 2:
            # the steps run at k = 1 too; the rule stays because the bench
            # plans, the CLI's --block-size and their tests pin it
            raise PlanError("block size must be at least 2")
        if self.n < 1:
            raise PlanError(f"bootstrap order {self.n} must be positive")
        if self.n % self.k:
            raise PlanError(f"block size {self.k} must divide bootstrap order {self.n}")
        if self.m % self.n:
            raise PlanError(f"bootstrap order {self.n} must divide frontier {self.m}")
        if self.m < 2 * self.n:
            raise PlanError("frontier must be at least twice the bootstrap order")

    @property
    def target(self) -> int:
        """2m, the final order the first half's frontier serves."""
        return 2 * self.m

    @property
    def ratio(self) -> int:
        """m/k, the normalization all stage budgets are quoted in; a fallback
        plan has no blocks to quote them in."""
        if self.fallback:
            raise PlanError("a fallback plan has no block ratio m/k")
        return self.m // self.k


def frontier(N: int) -> int:
    """The first-half frontier m of the plans for final order N."""
    return fft_core.granted_length(max(8, (N + 1) // 2))


class _Held(threading.local):
    """The calling thread's held arrays: ``arrays`` by key (see ``_held``),
    and ``claimed``, whether a live ``_Arena`` holds the "blocks" array."""

    def __init__(self):
        self.arrays, self.claimed = {}, False


_local = _Held()

# The most a thread holds of each block array ("blocks", "back", "term"), in
# complex entries (4 MiB): above the 3.4 and 3.0 MiB of spectrum rows and
# chunk transforms the largest benchmarked calls take, default fast_pow at
# 2**14 and pinned k = 16 fast_pow at 2**12.  Past it block arrays are made
# fresh per call, so a thread that ran a large call does not keep its size.
_HELD_MOST = 1 << 18


def _held(key, size: int) -> np.ndarray:
    """A complex work array of length size for key: a view of the calling
    thread's own array for key, replaced only when a larger size comes, so
    repeated calls map no fresh memory; a thread keeps each key's largest
    array.  Whatever it holds is stale: the caller writes before it reads."""
    arrays = _local.arrays
    if key not in arrays or arrays[key].size < size:
        arrays[key] = np.empty(size, dtype=np.complex128)
    return arrays[key][:size]


def _block_work(key, size: int) -> np.ndarray:
    """_held(key, size) up to _HELD_MOST entries, a fresh array past it."""
    if size > _HELD_MOST:
        return np.empty(size, dtype=np.complex128)
    return _held(key, size)


class _Arena:
    """Where one ``BlockCache`` keeps its series' block arrays: the spectrum
    rows and the chunk transforms, handed out in the order they are asked
    for.  An arena that ``claim``s the thread's "blocks" array while no
    other live one holds it takes from it as far as it reaches; past that,
    and in an arena that holds no claim, every array is fresh, so two live
    caches never share memory.  ``release`` gives the claim back and grows
    the thread's array to all this arena took, at most _HELD_MOST entries,
    so the next cache of the same run maps nothing new."""

    __slots__ = ("buffer", "used")

    def __init__(self):
        self.buffer, self.used = None, 0

    def claim(self):
        if not _local.claimed:
            _local.claimed = True
            self.buffer, self.used = _local.arrays.get("blocks", np.empty(0, dtype=np.complex128)), 0

    def take(self, *shape) -> np.ndarray:
        start = self.used
        self.used += math.prod(shape)
        if self.buffer is not None and self.used <= self.buffer.size:
            return self.buffer[start : self.used].reshape(shape)
        return np.empty(shape, dtype=np.complex128)

    def release(self):
        if self.buffer is not None:
            _held("blocks", min(self.used, _HELD_MOST))
            self.buffer, _local.claimed = None, False


class _Series:
    """One label's cached series: its coefficient array, the count of them
    known, the size of its blocks, and its block spectra, one block per row
    of ``spec``: the double spectrum in all 3k columns, whose first 2k
    columns are the block's plain order-2k spectrum.  Rows are made in block
    order, so two counts say which are current: the first ``whole`` rows
    hold double spectra, the first ``half`` (never fewer) their order-2k
    spectra; the rest is stale.  ``spec`` has a row for every block the
    array can hold.  ``axis`` keeps the block-axis transforms of its chunks
    for ``_block_conv``, per (chunk, width): the transforms and one count,
    the rows they were made from, as ``whole`` and ``half`` count its rows.
    Both come from the cache's ``arena``, and both are None once the
    cache's ``with`` block has ended."""

    __slots__ = ("array", "known", "block", "spec", "whole", "half", "axis", "arena")

    def __init__(self, array: np.ndarray, known: int, block: int, k: int, arena: _Arena):
        self.array, self.known, self.block, self.arena = array, known, block, arena
        self.spec = arena.take(-(-array.size // block), 3 * k)
        self.whole = self.half = 0
        self.axis = {}


class BlockCache:
    """One ``_Series`` record per label over registered coefficient arrays.

    Each record keeps one 2-d array, row i for block i, holding its double
    spectra; short products read the order-2k spectra as the first 2k
    columns of the same rows.  Only whole blocks are transformed: every
    coefficient known, or the zero-padded short last block of a fixed
    series.  A row not yet current is transformed either whole (``ensure``)
    or in its first 2k columns only (``ensure_2k``, which leaves the rest of
    the row for ``ensure``), each up to the last whole block asked for.

    Single writer; readers may share it once a frontier is published.
    Used as a context manager, it takes its arrays from the thread's held
    ones (``_Arena``) unless another cache's ``with`` block holds them, and
    gives them back when its own block ends, dropping its series' spectra:
    asked for them after that, it raises rather than read another call's
    rows, while ``known`` and ``high_water`` still answer.  Made without
    ``with``, it takes fresh arrays.
    """

    def __init__(self, k: int):
        if k < 1:
            raise PlanError("block size must be positive")
        self.k = k
        self._series: dict[str, _Series] = {}
        self._arena = _Arena()

    def __enter__(self) -> "BlockCache":
        self._arena.claim()
        return self

    def __exit__(self, *exc):
        self._arena.release()
        for s in self._series.values():
            s.spec = s.axis = None

    def _spectra(self, label: str) -> _Series:
        """label's record, to make or read its spectra."""
        s = self._series[label]
        if s.spec is None:
            raise DomainError(f"series '{label}' gave its spectra back with its cache's with block")
        return s

    # -- series registration --------------------------------------------------

    def register(self, label: str, array, known: int | None = None, block: int | None = None):
        arr = np.asarray(array, dtype=np.complex128).reshape(-1)
        known = arr.size if known is None else int(known)
        block = self.k if block is None else int(block)
        if known < 0:
            raise DomainError("known coefficient count cannot be negative")
        if known > arr.size:
            raise DomainError("known count beyond backing array")
        if block < 1:
            raise PlanError("block size must be positive")
        self._series[label] = _Series(arr, known, block, self.k, self._arena)

    def extend_known(self, label: str, known: int):
        s = self._series[label]
        if known < s.known:
            raise DomainError("known coefficient count cannot shrink")
        if known > s.array.size:
            raise DomainError("known count beyond backing array")
        s.known = known

    def series_array(self, label: str) -> np.ndarray:
        return self._series[label].array

    def known(self, label: str) -> int:
        return self._series[label].known

    def alias(self, dst: str, src: str, upto: int):
        """Give dst, registered afresh, a copy of src's double spectra 0..upto
        (content must agree there); they are dst's first rows of both kinds."""
        s, d = self._spectra(src), self._spectra(dst)
        if upto >= s.whole:
            raise DomainError(f"alias range 0..{upto} beyond {src}'s {s.whole} slots")
        if not -1 <= upto < len(d.spec):
            raise DomainError(f"alias range 0..{upto} not within {dst}'s {len(d.spec)} blocks")
        d.spec[: upto + 1] = s.spec[: upto + 1]
        d.whole = d.half = upto + 1

    # -- spectra ----------------------------------------------------------------

    def _stale(self, label: str, upto: int, made: int):
        """The whole blocks among made..upto, past the first ``made`` rows
        (a fixed series' short last block is whole, zero-padded): their
        indices, a range, and their coefficients, one block per row."""
        s = self._series[label]
        size = s.block
        whole = -(-s.known // size) if s.known == s.array.size else s.known // size
        idx = range(made, min(upto + 1, whole))
        if not idx:
            return idx, None
        return idx, padded(s.array[made * size :], len(idx) * size).reshape(-1, size)

    def ensure(self, label: str, upto: int, ledger=None) -> int:
        """Make double spectra for the whole blocks among 0..upto current, all
        stale ones in one batch; returns the number of transforms performed
        (3 order-k units each).

        The label's block size only controls slicing; every spectrum lives in
        the same order-(2k, k) space so blocks of different sizes can be
        combined pointwise (a double-sized block still fits: its degree is
        below 2k while the space holds degrees below 3k).
        """
        s = self._spectra(label)
        if s.block > 2 * self.k:
            raise PlanError("blocks larger than 2k do not fit the image space")
        stale, blocks = self._stale(label, upto, s.whole)
        if stale:
            s.spec[stale.start : stale.stop] = fft_core.double_dft(
                blocks, 2 * self.k, self.k, ledger=ledger, label=label).values
            s.whole, s.half = stale.stop, max(s.half, stale.stop)
        return len(stale)

    def ensure_2k(self, label: str, upto: int, ledger=None) -> int:
        """Make the order-2k spectra (the first 2k columns) of the whole
        blocks among 0..upto current.  The first ``half`` rows already hold
        them; the others are transformed at order 2k in one batch, whose
        count is returned (2 order-k units each), and the rest of their rows
        is left for ``ensure``."""
        s = self._spectra(label)
        if s.block != self.k:
            raise DomainError("order-2k spectra are only kept for size-k blocks")
        stale, blocks = self._stale(label, upto, s.half)
        if stale:
            s.spec[stale.start : stale.stop, : 2 * self.k] = fft_core.dft(
                blocks, 2 * self.k, ledger=ledger, label=label).values
            s.half = stale.stop
        return len(stale)

    def high_water(self, label: str) -> int:
        """Index of the last block with a double spectrum, -1 when none."""
        return self._series[label].whole - 1

    def rows(self, label: str, count: int | None = None, ledger=None) -> "_Rows":
        """The label's spectra as a ``_block_conv`` operand: the double spectra
        of its first ``whole`` rows, or, given count, the order-2k spectra of
        blocks 0..count-1 (a view of the first 2k columns of their rows),
        those not yet made made here (``ensure_2k``); they must be whole."""
        s = self._spectra(label)
        if count is None:
            return _Rows(s.spec[: s.whole], s)
        self.ensure_2k(label, count - 1, ledger)
        if count > s.half:
            raise DomainError(f"series '{label}' has no whole block {count - 1}")
        return _Rows(s.spec[:count, : 2 * self.k], s)


class _Rows:
    """An operand of ``_block_conv``: block spectra, one block per row.  Rows
    of a cached series carry the series, which keeps their block-axis chunk
    transforms across calls; a plain array is fresh and its chunks are
    transformed per call."""

    __slots__ = ("spec", "series")

    def __init__(self, spec, series=None):
        self.spec, self.series = spec, series

    def chunk_spectra(self, chunk: int, count: int, ledger) -> np.ndarray:
        """Block-axis transforms, at length 2*chunk, of chunks 0..count-1 (chunk
        q is rows q*chunk.., zero-padded).  A cached series keeps them with
        one count, the rows they were made from.  Rows are made in block
        order, so a chunk whole below both that count and the rows now is
        current, and every chunk is when the rows are the same; the rest
        (the growing head chunk) are made in one batch."""
        if self.series is None:
            out = np.empty((count, 2 * chunk, self.spec.shape[1]), dtype=np.complex128)
            _axis_dft(self.spec, chunk, out, 0, ledger)
            return out
        width, axis, rows = self.spec.shape[1], self.series.axis, len(self.spec)
        if (chunk, width) not in axis:
            cap = -(-len(self.series.spec) // chunk)
            axis[chunk, width] = self.series.arena.take(cap, 2 * chunk, width), 0
        spec, made = axis[chunk, width]
        current = -(-made // chunk) if rows == made else min(rows, made) // chunk
        if current < count:
            _axis_dft(self.spec, chunk, spec[current:count], current, ledger)
            axis[chunk, width] = spec, min(rows, count * chunk)
        return spec[:count]


def _axis_dft(rows: np.ndarray, chunk: int, out: np.ndarray, q0: int, ledger):
    """Length-2*chunk transforms along the block axis of chunks q0.. of rows
    (chunk q is rows q*chunk.., zero-padded), in place in out, one chunk per
    entry; recorded as ``axis_dft`` points.  Only the last chunk may be
    short."""
    part = rows[q0 * chunk : (q0 + len(out)) * chunk]
    full, short = divmod(len(part), chunk)
    out[:full, :chunk] = part[: full * chunk].reshape(full, chunk, rows.shape[1])
    if short:
        out[full, :short] = part[full * chunk :]
        out[full, short:chunk] = 0
    out[:, chunk:] = 0
    fft_core._axis_forward(out, out)
    tally(ledger, axis_dft=out.size)


def _pairs_below(J: int, nb: int, nc: int) -> int:
    """The row pairs (mu, nu), mu < nb and nu < nc, with mu + nu < J: all
    of them less those with mu >= nb or nu >= nc, by inclusion-exclusion
    over triangle numbers."""
    t = [x * (x + 1) // 2 if x > 0 else 0 for x in (J, J - nb, J - nc, J - nb - nc)]
    return t[0] - t[1] - t[2] + t[3]


def _pair_sum(b: np.ndarray, c: np.ndarray, s: int, out: np.ndarray, term: np.ndarray):
    """out = sum over mu of b[mu] * c[s-mu], over every pair both hold (at
    least one), each product made in term, an array of out's shape, and
    added in place in ascending mu: the order, and so the bits, of
    np.add.reduce over the stacked products."""
    lo, hi = max(0, s - len(c) + 1), min(len(b) - 1, s)
    np.multiply(b[lo], c[s - lo], out=out)
    for mu in range(lo + 1, hi + 1):
        out += np.multiply(b[mu], c[s - mu], out=term)


def _pairwise(b: np.ndarray, c: np.ndarray, j0: int, count: int, live: range) -> np.ndarray:
    """Rows i = sum over mu of b[mu] * c[j0+i-mu], one pair sum per row j0+i
    in live, the rows some pair reaches (zero elsewhere)."""
    rows = np.zeros((count, b.shape[1]), dtype=np.complex128)
    term = _block_work("term", b.shape[1])
    for j in live:
        _pair_sum(b, c, j, rows[j - j0], term)
    return rows


def _axis_rows(b: _Rows, c: _Rows, j0: int, count: int, ledger):
    """The rows of ``_block_conv`` from block-axis transforms, when at least 8
    rows of at most 1024 columns are asked for and some pair reaches one.

    b and c are cut into chunks of ``chunk`` rows, the largest power of two
    not above count, and each chunk is transformed at length L = 2*chunk.
    The chunk-pair products are summed per landing offset s, sum over q of
    B_q * C_{s-q}, in the frequency domain, in the thread's held array
    "back": one inverse per offset whose rows s*chunk..s*chunk+2*chunk-2
    meet the rows asked for; the inverses overlap-add."""
    chunk = 1 << (count.bit_length() - 1)
    width, L = b.spec.shape[1], 2 * chunk
    qb, qc = -(-len(b.spec) // chunk), -(-len(c.spec) // chunk)
    offsets = range(max(0, -((2 * chunk - 2 - j0) // chunk)),
                    min(qb + qc - 2, (j0 + count - 1) // chunk) + 1)
    # every offset s in 0..qb+qc-2 has its chunk pairs (q, s-q)
    chunk_pairs = _pairs_below(offsets.stop, qb, qc) - _pairs_below(offsets.start, qb, qc)

    B = b.chunk_spectra(chunk, min(qb, offsets.stop), ledger)
    C = c.chunk_spectra(chunk, min(qc, offsets.stop), ledger)
    back = _block_work("back", len(offsets) * L * width).reshape(len(offsets), L, width)
    term = _block_work("term", L * width).reshape(L, width)
    for g, s in enumerate(offsets):
        _pair_sum(B, C, s, back[g], term)
    fft_core._axis_backward(back, back)
    # offset s lands back[g, t] on row s*chunk + t, t <= 2*chunk - 2
    rows = np.zeros((count, width), dtype=np.complex128)
    landed = 0
    for g, s in enumerate(offsets):
        lo, hi = max(j0, s * chunk), min(j0 + count, s * chunk + L - 1)
        rows[lo - j0 : hi - j0] += back[g, lo - s * chunk : hi - s * chunk]
        landed += max(0, hi - lo)
    # each row asked for that some offset lands on takes one add per further offset
    covered = min(j0 + count, offsets[-1] * chunk + L - 1) - max(j0, offsets[0] * chunk)
    tally(ledger, axis_dft=back.size, cmul=chunk_pairs * L * width,
          cadd=((chunk_pairs - len(offsets)) * L + landed - covered) * width)
    return rows


def _block_conv(b, c, j0: int, count: int, ledger=None) -> np.ndarray:
    """Rows j0..j0+count-1 of the block-axis convolution of two operands
    (``BlockCache.rows`` views or plain spectrum arrays): row i is the sum
    over mu of b[mu] * c[j0+i-mu] for every row pair both hold, exactly zero
    where no pair reaches it.

    When at least 8 rows of at most 1024 columns are asked for and some row
    has a pair, the rows come from products of block-axis chunk transforms
    (``_axis_rows``); otherwise from one reduction per row over its pairs
    (the direct sum).  On the 8,021 calls exp/pow plans make up to order
    65536, that is the path a timed cost model took, but for 9 near ties
    (ROADMAP item 9).  Either way the work is recorded as ``cmul``/``cadd``
    (and ``axis_dft``), never as DFT events."""
    b, c = (x if isinstance(x, _Rows) else _Rows(np.asarray(x)) for x in (b, c))
    width, nb, nc = b.spec.shape[1], len(b.spec), len(c.spec)
    # row j has a pair exactly when 0 <= j <= nb+nc-2: the rows with none
    # are a head (j < 0) and a tail
    first = max(j0, 0)
    live = range(first, max(first, min(j0 + count, nb + nc - 1)))
    if count >= 8 and width <= 1024 and live:
        rows = _axis_rows(b, c, j0, count, ledger)
        rows[: first - j0] = rows[live.stop - j0 :] = 0
        return rows
    rows = _pairwise(b.spec, c.spec, j0, count, live)
    total = _pairs_below(live.stop, nb, nc) - _pairs_below(first, nb, nc)
    tally(ledger, cmul=total * width, cadd=(total - len(live)) * width)
    return rows


def _invert_double(rows: np.ndarray, k: int, ledger, label: str) -> np.ndarray:
    """Coefficients of double spectra of order (2k, k), one per row, inverted
    in one batch under label."""
    spec = fft_core.Spectrum(rows, "double", l=2 * k, k=k)
    return fft_core.inverse_double_dft(spec, ledger=ledger, label=label)


def _overlap_rows(rows: np.ndarray, k: int, n: int) -> np.ndarray:
    """Sum of rows[i] * x**(i*k) truncated to order n, for rows whose width
    is a multiple of k."""
    count, width = rows.shape
    out = np.zeros((max(count + width // k - 1, -(-n // k)), k), dtype=np.complex128)
    for s in range(width // k):
        out[s : s + count] += rows[:, s * k : (s + 1) * k]
    return out.reshape(-1)[:n]


def short_product_2k(b, c, j0: int, count: int, ledger, label: str) -> np.ndarray:
    """Blocks j0..j0+count-1 of b*c, for order-2k block spectra b and c, as
    count*k coefficients, block j0+i at x**(i*k): ``_block_conv``'s sums,
    inverted in one batch under label, overlap-added.  With j0 = 0 that is
    the short product (b*c) mod x**(count*k)."""
    rows = _block_conv(b, c, j0, count, ledger)
    rows = fft_core.inverse_dft(fft_core.Spectrum(rows, "plain"), ledger=ledger, label=label)
    k = rows.shape[1] // 2
    return _overlap_rows(rows, k, count * k)


def _aligned_middle(cache, a_label, b_label, c_label, block_shift, out_len,
                    ledger=None, linear=None):
    """Core of q = a * floor(residual / x**(block_shift*k)) mod x**out_len,
    out_len a multiple of k, on cached spectra, where residual = b*c, or coef*(series in double-sized
    blocks) - b*c when ``linear=(coef, label2)`` is given.  The double-sized
    blocks of label2 sit on the even k-grid, so a folded linear term needs an
    even block shift (``triple_middle_product`` checks it); it then starts at
    the cut and never reaches the straddling block.

    The residual images and the output blocks both come from _block_conv;
    the output blocks are inverted in one batch.

    Returns (q, out_blocks); out_blocks holds the output blocks in
    coefficient form, one per row.
    """
    k = cache.k
    n_blocks = out_len // k

    # Residual images of the straddling block (row 0) and the output blocks.
    res = _block_conv(cache.rows(b_label), cache.rows(c_label), block_shift - 1, n_blocks + 1,
                      ledger)
    if linear is not None:
        # the even residual blocks j = block_shift-1+i, i = 1, 3, ..., gain
        # coef times the double-sized block j/2 = block_shift/2 + (i-1)/2
        coef, lin = linear[0], cache.rows(linear[1]).spec
        np.negative(res, out=res)
        lin = lin[block_shift // 2 : block_shift // 2 + (n_blocks + 1) // 2]
        res[1 : 2 * lin.shape[0] : 2] += coef * lin
        tally(ledger, cmul=lin.size)

    # Straddling block: one inverse to read theta, its part past the cut.
    theta = _invert_double(res[:1], k, ledger, BOUNDARY_INVERSE_LABEL)[0, k : 2 * k]

    out_blocks = np.zeros((0, 3 * k), dtype=np.complex128)
    if n_blocks > 0:
        theta_spec = fft_core.double_dft(theta, 2 * k, k, ledger=ledger, label="theta").values
        a = cache.rows(a_label)
        # output block t: a[t]*theta plus a[lam]*u[t-lam]; each t below
        # with_theta already holds the pair a[0]*u[t], so theta adds one term
        acc = _block_conv(a, res[1:], 0, n_blocks, ledger)
        with_theta = min(n_blocks, len(a.spec))
        acc[:with_theta] += a.spec[:with_theta] * theta_spec
        tally(ledger, cmul=3 * k * with_theta, cadd=3 * k * with_theta)
        out_blocks = _invert_double(acc, k, ledger, "mp-restore")
    return _overlap_rows(out_blocks, k, out_len), out_blocks


def triple_middle_product(cache: BlockCache, a_label: str, b_label: str, c_label: str,
                          shift: int, n: int, ledger=None, linear=None):
    """q = a * floor(v / x**shift) mod x**n for a block-aligned shift and
    output order, where v = b*c, or coef*g - b*c when ``linear=(coef,
    g_label)`` names a series g held in double-sized blocks (see
    _aligned_middle; the shift must then be a multiple of 2k).

    The blocks it reads are made here in the order a, c, g, b: a's up to
    n/k - 1, the others up to the last residual block (shift + n)/k - 1,
    each as far as it is whole (BlockCache.ensure) and zero past that.  The
    rest of the cost is one inverse for the straddling block, one forward
    for theta, and one inverse per output block.
    """
    k = cache.k
    if shift < 0 or shift % k:
        raise DomainError(f"shift {shift} is not a nonnegative multiple of block size {k}")
    if n < 0:
        raise DomainError(f"negative output order {n}")
    if n % k:
        raise DomainError(f"output order {n} is not a multiple of block size {k}")
    if linear is not None and shift % (2 * k):
        raise PlanError("a folded linear term needs an even block shift")
    last = (shift + n) // k - 1
    cache.ensure(a_label, n // k - 1, ledger)
    cache.ensure(c_label, last, ledger)
    if linear is not None:
        cache.ensure(linear[1], last // 2, ledger)
    cache.ensure(b_label, last, ledger)
    q, _ = _aligned_middle(cache, a_label, b_label, c_label, shift // k, n, ledger, linear=linear)
    return TruncatedSeries(q)
