"""The truncated-series data type, the input checks, padding, derivative and
product modulo x**n the fast operations share, and the coefficient text
format.

A series owns its coefficient array, which the constructor copies, and the
library never writes to an array once a series holds it, so series can be
shared across threads; the array itself is writable, and a caller who
writes to it changes that series.
Coefficient storage is dense complex128.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from . import fft_core
from .errors import DomainError, FormatError


class TruncatedSeries:
    """A power series known modulo x**order; coeffs[i] is the x**i coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        arr = np.array(coeffs, dtype=np.complex128).reshape(-1)
        self.coeffs = arr

    @classmethod
    def _adopt(cls, coeffs: np.ndarray) -> "TruncatedSeries":
        """The series over ``coeffs``, a 1-d complex128 array the library has
        just made and hands over, without the constructor's copy."""
        series = cls.__new__(cls)
        series.coeffs = coeffs
        return series

    @property
    def order(self) -> int:
        return self.coeffs.size

    def __len__(self) -> int:
        return self.coeffs.size

    def __repr__(self):
        head = ", ".join(format(c, ".4g") for c in self.coeffs[:4])
        tail = ", ..." if self.order > 4 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


def coeffs_of(f) -> np.ndarray:
    """Coefficient array of a TruncatedSeries or any array-like."""
    if isinstance(f, TruncatedSeries):
        return f.coeffs
    return np.asarray(f, dtype=np.complex128).reshape(-1)


def finite_coeffs(f) -> np.ndarray:
    """Coefficient array of an input series; non-finite entries are rejected
    because they would spread through every transform or recurrence step
    into the whole result."""
    c = coeffs_of(f)
    if not np.all(np.isfinite(c)):
        raise DomainError("series coefficients must be finite")
    return c


def padded(c: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` coefficients of c, zero-extended to that length."""
    out = np.zeros(size, dtype=np.complex128)
    take = min(size, c.size)
    out[:take] = c[:take]
    return out


def derivative(f) -> TruncatedSeries:
    c = coeffs_of(f)
    if c.size < 1:
        raise DomainError("derivative needs order >= 1")
    return TruncatedSeries(np.arange(1, c.size) * c[1:])


def mul_mod(f, g, n: int, ledger=None, label=None) -> TruncatedSeries:
    """(f*g) mod x**n through the transform engine."""
    if n < 0:
        raise DomainError("order must be nonnegative")
    a, b = coeffs_of(f)[:n], coeffs_of(g)[:n]
    if a.size == 0 or b.size == 0:
        return TruncatedSeries(np.zeros(n, dtype=np.complex128))
    prod = fft_core.multiply(a, b, ledger=ledger, label=label)
    out = np.zeros(n, dtype=np.complex128)
    take = min(n, prod.size)
    out[:take] = prod[:take]
    return TruncatedSeries(out)


# -- coefficient text format -------------------------------------------------
#
# One coefficient per line, ascending index:
#     #order n
#     index<TAB>re<TAB>im
# Floats are written with 17 significant digits, which round-trips float64
# exactly: each is spelled byte for byte as '%.17g' % x spells it.
#
# '%.17g' goes through CPython's exact bignum conversion, about 1.5 us a
# float.  The writer instead takes the fast path of Loitsch's Grisu3
# ("Printing floating-point numbers quickly and accurately with integers",
# PLDI 2010) over whole arrays: with D = floor(log10|x|) and p = 16 - D, the
# 17 digits are N = round(V) for V = |x| * 10**p, one long double product
# with the table entry 10**p that numpy's parser reads from '1e{p}'.  The
# bound rests on that parser rounding correctly, which the tests check for
# every entry: then both roundings are relative errors of at most u, the
# long double unit roundoff, so V is within
# err = V * 2u(1 + 3u) of the exact |x| * 10**p.  N is then the correctly
# rounded digit string whenever V is further than err from the nearest
# half-integer, and D is the right exponent whenever V rounded to float64
# lies strictly between 10**16 and 10**17, which keeps V at least 1 inside
# (err is below 0.011 there for an 80-bit long double).  Every other value
# goes to '%.17g' itself: those near a half-integer, those whose log10
# missed D, those whose 17 digits round up to 10**17, inf and nan; zero is
# laid out directly.  Where long double is a plain double, err exceeds 1/2
# and every value takes the exact path.

_LONG_DOUBLE_UNIT = float(np.finfo(np.longdouble).eps) / 2
_P_MIN, _P_MAX = -292, 340  # p of every finite nonzero double
_X_MIN, _X_MAX = -324, 308  # decimal exponents of finite nonzero doubles
_LAYOUTS = 23  # fixed notation at exponents -4..16, scientific with 2 or 3 exponent digits
# Rows spelled at a time.  A chunk of R rows holds about 750*R bytes of
# numpy temporaries while it is spelled, so the serial writer holds 1.5 MB
# and, from _THREAD_MIN_ROWS on, each of its two threads 3 MB.  Two threads
# gained more with 4096-row chunks than with 2048-row ones, and 8192-row
# ones cost more memory for little more (CHANGES.md).
_CHUNK_ROWS, _THREAD_CHUNK_ROWS = 2048, 4096
_THREAD_MIN_ROWS = 8192  # the fifth table of python tools/crossover.py src

# Columns of the field template.  Every spelling is a subsequence of
#     TAB - 0 . 0 0 0 d0 . d1 . d2 ... . d16 . e s x x x
# (s the exponent sign, x its digits), so a field is its template row under
# a mask that depends only on the layout class of the value.
_TAB, _MINUS, _ZERO, _POINT, _ZEROS, _DIGIT0, _EXP, _FIELD = 0, 1, 2, 3, 4, 7, 41, 46


class _G17Tables:
    """The fast path's tables, built once on the first write."""

    def __init__(self):
        with np.errstate(over="ignore"):  # a plain double has no 10**309
            self.pow10 = np.array([np.longdouble(f"1e{p}") for p in range(_P_MIN, _P_MAX + 1)])
        # 4-digit groups: their ASCII bytes, the same spread over the digit
        # columns of the template, and, for group j of digits 4j+1..4j+4, the
        # significant digits up to its last nonzero one (1, d0 alone, for 0000)
        q = np.arange(10000)
        digits = q[:, None] // 10 ** np.arange(3, -1, -1) % 10
        quad = (ord("0") + digits).astype(np.uint8)
        self.quad = quad.view(np.uint32).ravel()
        spread = np.full((10000, 8), ord("."), dtype=np.uint8)
        spread[:, 0::2] = quad
        self.spread = spread.view(np.uint64).ravel()
        last = np.where(q > 0, 4 - np.argmax(digits[:, ::-1] != 0, axis=1), 0)
        self.sig = np.where(last > 0, last + 1 + 4 * np.arange(4)[:, None], 1)
        self.exponent = np.frombuffer("".join(
            f"{x:+04d}" for x in range(_X_MIN, _X_MAX + 1)).encode(), dtype=np.uint32)
        # the template with its constant columns, and a newline after it
        self.blank = np.frombuffer(b"\t-0.000" + b"0." * 17 + b"e+000\n", dtype=np.uint8)
        # class (layout * 17 + significant digits - 1) * 2 + sign: the mask;
        # class_base[X] + 2 * significant digits + sign is the class at exponent X
        self.mask = np.zeros((_LAYOUTS * 17 * 2, _FIELD), dtype=bool)
        x = np.arange(_X_MIN, _X_MAX + 1)
        self.class_base = np.where((x >= -4) & (x <= 16), x + 4,
                                   np.where(np.abs(x) < 100, 21, 22)) * 34 - 2
        for layout in range(_LAYOUTS):
            for sig in range(1, 18):
                digits = [_DIGIT0 + 2 * j for j in range(sig)]
                X = layout - 4
                if layout >= 21:  # 2 or 3 exponent digits
                    cols = digits[:1] + ([_DIGIT0 + 1] + digits[1:] if sig > 1 else [])
                    cols += [_EXP, _EXP + 1] + list(range(_FIELD - (layout - 19), _FIELD))
                elif X < 0:
                    cols = [_ZERO, _POINT] + list(range(_ZEROS, _ZEROS - X - 1)) + digits
                else:  # the integer part may run into the stripped zeros
                    cols = [_DIGIT0 + 2 * j for j in range(X + 1)]
                    cols += [_DIGIT0 + 2 * X + 1] + digits[X + 1:] if sig > X + 1 else []
                for neg in (0, 1):
                    cls = (layout * 17 + sig - 1) * 2 + neg
                    self.mask[cls, [_TAB] + [_MINUS] * neg + cols] = True


@functools.cache
def _g17_tables() -> _G17Tables:
    return _G17Tables()


def _g17_fields(v: np.ndarray, field: np.ndarray, keep: np.ndarray) -> int:
    """Spell each float64 of v as '%.17g' does, after a TAB: fill its row
    of field, a (v.size, 46) view holding the template's constant columns,
    and mark the bytes it uses in keep.  Returns how many values took the
    exact path."""
    t = _g17_tables()
    a = np.abs(v)
    zero = a == 0
    live = np.isfinite(a) & ~zero
    a[~live] = 1.0
    p = 16 - np.floor(np.log10(a)).astype(np.intp)
    V = a.astype(np.longdouble) * np.take(t.pow10, p - _P_MIN, mode="clip")
    Vf = V.astype(np.float64)
    N = np.rint(V)
    with np.errstate(invalid="ignore"):  # V is inf where a plain double overflows
        frac = (V - N).astype(np.float64)  # within 2**-55; exact for 80-bit V, ulp >= 2**-10
    # err, with the roundings of Vf, frac and this test
    err = Vf * (2 * _LONG_DOUBLE_UNIT * (1 + 2.0 ** -30)) + 2.0 ** -54
    good = (live & (Vf > 1e16) & (Vf < 1e17) & (np.abs(frac) < 0.5 - err)
            & (p >= _P_MIN) & (p <= _P_MAX))
    digits = np.where(good, N, 0).astype(np.int64)
    X = np.where(good, 16 - p, 0)  # zero is laid out as '0' at exponent 0

    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    groups = []
    high = rest // 10 ** 8
    for half in (high, rest - high * 10 ** 8):
        top = half // 10 ** 4
        groups += [top, half - top * 10 ** 4]  # digits 1-4, 5-8, then 9-12, 13-16
    spread = np.empty((v.size, 4), dtype=np.uint64)
    sig = np.ones(v.size, dtype=np.intp)
    for j, g in enumerate(groups):
        spread[:, j] = np.take(t.spread, g)
        np.maximum(sig, np.take(t.sig[j], g), out=sig)
    field[:, _DIGIT0] = ord("0") + lead
    field[:, _DIGIT0 + 2:_EXP] = spread.view(np.uint8)
    field[:, _EXP + 1:] = np.take(t.exponent, X - _X_MIN).view(np.uint8).reshape(-1, 4)
    keep[:] = np.take(t.mask, np.take(t.class_base, X - _X_MIN) + 2 * sig + np.signbit(v),
                      axis=0)
    slow = np.flatnonzero(~good & ~zero)
    if slow.size:
        texts = ["\t%.17g" % x for x in v[slow].tolist()]
        field[slow, :25] = np.frombuffer("".join(s.ljust(25) for s in texts).encode(),
                                         dtype=np.uint8).reshape(-1, 25)
        keep[slow] = np.arange(_FIELD) < np.array([len(s) for s in texts])[:, None]
    return slow.size


def _text_lines(start: int, values: np.ndarray, width: int) -> bytes:
    """Lines 'i<TAB>re<TAB>im' from index start on, for values holding re
    and im of each coefficient in turn, with width, a multiple of 4, columns
    for the index: one row per value, the index before re and the newline
    after im."""
    t = _g17_tables()
    rows = values.size // 2
    line = np.empty((values.size, width + _FIELD + 1), dtype=np.uint8)
    keep = np.empty(line.shape, dtype=bool)
    line[:, width:] = t.blank
    index = np.arange(start, start + rows)
    digits = 1 + np.searchsorted(10 ** np.arange(1, width), index, side="right")
    keep[0::2, :width] = np.arange(width) >= width - digits[:, None]
    for end in range(width, 0, -4):  # right-aligned, 4 digits at a time
        line[0::2, end - 4:end] = np.take(t.quad, index % 10 ** 4).view(np.uint8).reshape(-1, 4)
        index //= 10 ** 4
    keep[1::2, :width] = False
    keep[0::2, -1], keep[1::2, -1] = False, True
    _g17_fields(values, line[:, width:-1], keep[:, width:-1])
    return np.compress(keep.ravel(), line).tobytes()


def _series_bytes(f) -> bytes:
    """f in the text format, as ASCII bytes.  From _THREAD_MIN_ROWS rows on,
    a second thread spells the odd chunks while the caller spells the even
    ones, and the parts are joined in row order, so the bytes are the serial
    writer's."""
    c = coeffs_of(f)
    values = np.ascontiguousarray(c).view(np.float64)
    width = -(-len(str(max(c.size - 1, 0))) // 4) * 4
    threads = c.size >= _THREAD_MIN_ROWS
    rows = _THREAD_CHUNK_ROWS if threads else _CHUNK_ROWS
    starts = range(0, c.size, rows)

    def lines(some):
        return [_text_lines(start, values[2 * start:2 * (start + rows)], width) for start in some]

    if not threads:
        parts = lines(starts)
    else:
        _g17_tables()  # built here, once: functools.cache would let two threads build it
        parts = [b""] * len(starts)
        parts[0::2], parts[1::2] = fft_core._on_two_threads(lambda: lines(starts[0::2]),
                                                            lambda: lines(starts[1::2]))
    return b"".join([b"#order %d\n" % c.size, *parts])


def write_series(f, fp):
    """Write f in the text format, in one write."""
    fp.write(_series_bytes(f).decode("ascii"))


def read_series(fp) -> TruncatedSeries:
    """Parse the text format: in bulk when numpy's text parser reads the
    text as the line loop would, else line by line, so every FormatError
    names its line."""
    text = fp.read()
    coeffs = _read_bulk(text.encode("ascii")) if text.isascii() else None
    return TruncatedSeries._adopt(coeffs) if coeffs is not None else _read_lines(text)


_BULK_HEADER = re.compile(rb"#order ([0-9]{1,18})")
# printable ASCII, tab and newline: numpy skips some control characters
# next to a field (\x1f among them) that float() and int() reject
_BULK_BYTES = b"\t\n" + bytes(range(0x20, 0x7F))
_BULK_ROW = np.dtype([("i", np.int64), ("re", np.float64), ("im", np.float64)])


def _read_bulk(data: bytes) -> np.ndarray | None:
    """The coefficients of a text holding '#order n' and then n lines
    'i<TAB>re<TAB>im' for i = 0..n-1, in printable ASCII, tabs and newlines;
    None for any other text, which the line loop parses or rejects.  numpy's
    C text parser reads all three columns, each field as int() or float()
    reads it where both accept it (spaces around it and a sign included;
    the floats through PyOS_string_to_double), and skips blank lines, as the
    line loop does; CR and underscores fail it.  A body holding '#' (a
    comment line, or a field the line loop rejects) goes to the line loop
    before numpy parses it."""
    head, _, body = data.partition(b"\n")
    match = _BULK_HEADER.fullmatch(head)
    if match is None or b"#" in body or body.translate(None, _BULK_BYTES):
        return None
    order = int(match[1])
    if not body.strip():  # np.loadtxt warns on a text with no rows
        return np.empty(0, dtype=np.complex128) if order == 0 else None
    try:
        rows = np.loadtxt(body.decode("ascii").splitlines(), dtype=_BULK_ROW,
                          delimiter="\t", comments=None, ndmin=1)
    except ValueError:
        return None
    # the count first: arange of a huge declared order would not fit
    if rows.size != order or not np.array_equal(rows["i"], np.arange(order)):
        return None
    coeffs = np.empty(order, dtype=np.complex128)
    coeffs.real, coeffs.imag = rows["re"], rows["im"]
    return coeffs


def _read_lines(source: str) -> TruncatedSeries:
    """Parse line by line; a FormatError names the line it failed on."""
    lines = source.splitlines()
    if not lines:
        raise FormatError("empty file; expected '#order n' header", line=1)
    words = lines[0].split()
    if not words or words[0] != "#order":
        raise FormatError("expected '#order n' header", line=1)
    try:
        (order,) = (int(word) for word in words[1:])  # exactly one integer
    except ValueError:
        raise FormatError("malformed '#order n' header", line=1) from None
    if order < 0:
        raise FormatError("negative order", line=1)
    # the header only bounds the coefficients; the lines read size the array
    out = []
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split("\t")
        if len(parts) != 3:
            raise FormatError("expected 'index<TAB>re<TAB>im'", line=lineno)
        try:
            idx = int(parts[0])
            re, im = float(parts[1]), float(parts[2])
        except ValueError:
            raise FormatError("unparsable coefficient fields", line=lineno) from None
        if idx != len(out):
            raise FormatError(f"expected index {len(out)}, got {idx}", line=lineno)
        if idx >= order:
            raise FormatError(f"index {idx} beyond declared order {order}", line=lineno)
        out.append(complex(re, im))
    if len(out) != order:
        raise FormatError(f"declared order {order} but found {len(out)} coefficients",
                          line=len(lines))
    return TruncatedSeries(out)


def dump_series(f, path):
    with open(path, "wb") as fp:
        fp.write(_series_bytes(f))


def load_series(path) -> TruncatedSeries:
    """Read a series file: its bytes in bulk when numpy's text parser reads
    them as the line loop would, else as UTF-8 text line by line; bytes that
    are not UTF-8 are a FormatError at their line."""
    with open(path, "rb") as fp:
        data = fp.read()
    coeffs = _read_bulk(data)
    if coeffs is not None:
        return TruncatedSeries._adopt(coeffs)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise FormatError(f"byte {exc.start} is not UTF-8 text", line=line) from None
    return _read_lines(text)
