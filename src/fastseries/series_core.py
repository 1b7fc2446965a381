"""The truncated-series data type, the input checks, padding, derivative and
product modulo x**n the fast operations share, and the coefficient text
format.

Values are immutable after construction and safe to share across threads.
Coefficient storage is dense complex128.
"""

from __future__ import annotations

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
# exactly.


def write_series(f, fp):
    """Write f in the text format: one %-template pass over all fields, one write."""
    c = coeffs_of(f)
    n = c.size
    fields = [None] * (3 * n)
    fields[0::3] = range(n)
    fields[1::3] = c.real.tolist()
    fields[2::3] = c.imag.tolist()
    fp.write(f"#order {n}\n" + "%d\t%.17g\t%.17g\n" * n % tuple(fields))


def read_series(fp) -> TruncatedSeries:
    """Parse the text format: in bulk when the text is exactly the writer's
    layout, else line by line, so every FormatError names its line."""
    text = fp.read()
    coeffs = _read_bulk(text)
    return TruncatedSeries(coeffs) if coeffs is not None else _read_lines(text)


def _read_bulk(text: str) -> np.ndarray | None:
    """The coefficients of a text holding '#order n' and then exactly n lines
    'i<TAB>re<TAB>im' for i = 0..n-1 (ASCII, no other control characters),
    with one split over the body and one array conversion per part; None
    for any other text, which the line loop parses or rejects."""
    head, _, body = text.partition("\n")
    words = head.split()
    if (not (head.isascii() and head.isprintable()) or len(words) != 2
            or words[0] != "#order" or not words[1].isdigit()):
        return None
    order = int(words[1])
    raw = np.frombuffer(body.encode(), dtype=np.uint8)
    tabs, ends = np.flatnonzero(raw == 9), np.flatnonzero(raw == 10)
    lines = ends.size + (raw.size > 0 and raw[-1] != 10)  # the last may lack its newline
    if (lines != order or tabs.size != 2 * order or raw.max(initial=0) > 127
            or np.count_nonzero(raw < 32) != tabs.size + ends.size
            # two tabs on every line
            or not np.array_equal(np.searchsorted(ends, tabs), np.arange(2 * order) // 2)):
        return None
    fields = body.split()
    if len(fields) != 3 * order or fields[0::3] != [str(i) for i in range(order)]:
        return None
    out = np.empty(order, dtype=np.complex128)
    try:
        out.real = np.array(fields[1::3], dtype=np.float64)
        out.imag = np.array(fields[2::3], dtype=np.float64)
    except ValueError:
        return None
    return out


def _read_lines(source: str) -> TruncatedSeries:
    """Parse line by line; a FormatError names the line it failed on."""
    lines = source.splitlines()
    if not lines:
        raise FormatError("empty file; expected '#order n' header", line=1)
    header = lines[0].strip()
    if not header.startswith("#order"):
        raise FormatError("expected '#order n' header", line=1)
    try:
        order = int(header.split()[1])
    except (IndexError, ValueError):
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
    with open(path, "w") as fp:
        write_series(f, fp)


def load_series(path) -> TruncatedSeries:
    with open(path) as fp:
        return read_series(fp)
