import _thread
import io
import inspect
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import fastseries
from fastseries import (
    FormatError,
    TruncatedSeries,
    derivative,
    mul_mod,
    read_series,
    write_series,
)
from fastseries import fft_core, series_core

from util import record_thread_starts, rel_err

# The package's public names: each is used by the library, the CLI, the
# tools or the acceptance tests.  An export is added here on purpose.
PUBLIC_NAMES = {
    "BlockCache", "BlockPlan", "CostLedger", "DomainError", "EXPECTED_STAGE_UNITS",
    "FormatError", "KindMismatchError", "PlanError", "Spectrum", "StageBudget",
    "TruncatedSeries", "UnsupportedLengthError", "choose_plan", "derivative", "dft",
    "dft_3k", "double_dft", "fast_exp", "fast_inverse", "fast_log", "fast_pow",
    "granted_length", "inverse_dft", "inverse_double_dft", "load_series",
    "main_term_units", "mul_mod", "multiply", "oracle_exp", "oracle_inverse",
    "oracle_log", "oracle_middle", "oracle_pow", "read_series", "report_kv",
    "report_text", "stage_table", "triple_middle_product",
    "write_series",
}


def test_public_surface_is_pinned():
    names = {name for name, value in vars(fastseries).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == PUBLIC_NAMES


def test_derivative_examples():
    assert np.allclose(derivative([1, 2, 3]).coeffs, [2, 6])
    assert derivative([5]).order == 0
    assert np.allclose(derivative([0, 1]).coeffs, [1])


def test_mul_mod_examples():
    assert np.allclose(mul_mod([1, 1], [1, 1], 2).coeffs, [1, 2])
    f = [2, 3, 4]
    assert np.allclose(mul_mod(f, [1], 3).coeffs, f)
    assert np.allclose(mul_mod([1, 1, 1], [1, -1, 0], 3).coeffs, [1, 0, 0])


def test_mul_mod_matches_naive():
    rng = np.random.default_rng(3)
    for n in (17, 64, 300, 4096):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = mul_mod(a, b, n).coeffs
        want = np.convolve(a, b)[:n]
        assert rel_err(got, want) < 1e-10


def test_series_repr_and_order():
    f = TruncatedSeries([1, 2, 3, 4, 5])
    assert f.order == 5 and len(f) == 5
    assert "order=5" in repr(f)


def test_text_format_roundtrip_exact():
    rng = np.random.default_rng(9)
    f = TruncatedSeries(rng.standard_normal(20) + 1j * rng.standard_normal(20))
    buf = io.StringIO()
    write_series(f, buf)
    back = read_series(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.coeffs, f.coeffs)


def test_text_format_golden_bytes():
    """The writer's bytes are those of format(v, '.17g') per field, written
    at once: negative zero, subnormals, large and integral values keep their
    exact spelling."""
    f = [complex(-0.0, 0.0), complex(5e-324, -2.5e-310), complex(5e40, -1.0),
         complex(2.0, -3.0), complex(0.1, -0.0), complex(-7, 1 / 3)]
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    write_series(f, Sink())
    assert writes == [
        "#order 6\n0\t-0\t0\n1\t4.9406564584124654e-324\t-2.5000000000000171e-310\n"
        "2\t5e+40\t-1\n3\t2\t-3\n4\t0.10000000000000001\t-0\n5\t-7\t0.33333333333333331\n"
    ]
    rng = np.random.default_rng(10)
    c = rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300) - 1j * rng.standard_normal(300)
    buf = io.StringIO()
    write_series(c, buf)
    lines = [f"{i}\t{format(v.real, '.17g')}\t{format(v.imag, '.17g')}\n" for i, v in enumerate(c)]
    assert buf.getvalue() == "#order 300\n" + "".join(lines)


def test_text_format_errors_carry_line_numbers():
    with pytest.raises(FormatError) as exc:
        read_series(io.StringIO("nonsense\n"))
    assert exc.value.line == 1
    with pytest.raises(FormatError) as exc:
        read_series(io.StringIO("#order 2\n0\t1\t0\nbroken line\n"))
    assert exc.value.line == 3
    with pytest.raises(FormatError, match="declared order 3 but found 1 ") as exc:
        read_series(io.StringIO("#order 3\n0\t1\t0\n"))
    assert exc.value.line == 2
    # the header alone sizes nothing: a huge declared order is a short file
    with pytest.raises(FormatError, match="declared order 1000000000000 but found 1 ") as exc:
        read_series(io.StringIO("#order 1000000000000\n0\t1\t0\n"))
    assert exc.value.line == 2


GOLDEN_TEXT = (
    "#order 6\n0\t-0\t0\n1\t4.9406564584124654e-324\t-2.5000000000000171e-310\n"
    "2\t5e+40\t-1\n3\t2\t-3\n4\t0.10000000000000001\t-0\n5\t-7\t0.33333333333333331\n"
)


def test_bulk_read_matches_line_loop():
    """Files in the writer's layout, and those numpy's parser reads as the
    line loop does, are parsed in bulk to the same bytes as the line loop;
    any other text goes to the line loop."""
    rng = np.random.default_rng(11)
    texts = [GOLDEN_TEXT, GOLDEN_TEXT[:-1], "#order 0\n", "#order 1\n0\t1\t2\n\n",
             "#order 1\n+0\t1\t2\n"]
    for n in (1, 7, 300, 4096):
        c = rng.standard_normal(n) * 10.0 ** rng.integers(-310, 300, n)
        c = c + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-310, 300, n)
        buf = io.StringIO()
        write_series(c, buf)
        texts.append(buf.getvalue())
    for text in texts:
        bulk = series_core._read_bulk(text.encode())
        assert bulk is not None
        assert bulk.tobytes() == series_core._read_lines(text).coeffs.tobytes()
        assert read_series(io.StringIO(text)).coeffs.tobytes() == bulk.tobytes()
    for text in ("#order 1\n# comment\n0\t1\t2\n",
                 "#order 1\r\n0\t1\t2\r\n", "#order\t1\n0\t1\t2\n",
                 "#order 2\n0\t1.5\n1\t2.5\t1\t3\n", "#order 2\n0\t1\t2\n",
                 # a second index digit out of place
                 texts[-1].replace("\n11\t", "\n21\t", 1)):
        assert series_core._read_bulk(text.encode()) is None


def test_text_with_a_comment_skips_the_bulk_parse(monkeypatch, tmp_path):
    """A body holding '#' is line-loop syntax: both readers give the bits of
    the text without it and never hand it to numpy's parser."""
    c = np.random.default_rng(12).standard_normal(1 << 14) * (1 + 1j)
    buf = io.StringIO()
    write_series(c, buf)
    want = read_series(io.StringIO(buf.getvalue())).coeffs.tobytes()
    text = buf.getvalue() + "# end\n"
    path = tmp_path / "s.txt"
    path.write_bytes(text.encode())

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called on a text holding '#'")

    monkeypatch.setattr(series_core.np, "loadtxt", no_loadtxt)
    assert read_series(io.StringIO(text)).coeffs.tobytes() == want
    assert fastseries.load_series(path).coeffs.tobytes() == want


def test_text_with_a_row_too_many_skips_the_bulk_parse(tmp_path):
    """A text with a row past its declared order gets no coefficients from
    the bulk parse: both readers raise the line loop's error at that row."""
    c = np.random.default_rng(13).standard_normal(1 << 10) * (1 + 1j)
    buf = io.StringIO()
    write_series(c, buf)
    text = buf.getvalue() + "1024\t1\n"
    path = tmp_path / "s.txt"
    path.write_bytes(text.encode())
    assert series_core._read_bulk(text.encode()) is None
    for read, source in ((read_series, io.StringIO(text)), (fastseries.load_series, path)):
        with pytest.raises(FormatError) as info:
            read(source)
        assert (str(info.value), info.value.line) == ("line 1026: expected 'index<TAB>re<TAB>im'", 1026)


def _read_outcome(read, source):
    """The coefficient bits a reader gives, or its FormatError's message
    and line."""
    try:
        return read(source).coeffs.tobytes()
    except FormatError as exc:
        return str(exc), exc.line


# Float and index spellings: those numpy's text parser reads as float() and
# int() do, which the bulk path takes, and those it leaves to the line loop:
# an underscore, a control byte numpy would skip, non-ASCII digits, and what
# neither reads.
BULK_FLOATS = ["+1", "1e5", ".5", "5.", "infinity", "-inf", "nan", "-nan", "-0", "3" * 400,
               "2.4703282292062328e-324", " 1"]
LINE_LOOP_FLOATS = ["1_0", "1#", "0x10", "1d5", "１", "\x1f1"]
BULK_INDICES = ["01", "+1", " 1"]
LINE_LOOP_INDICES = ["1_0", "2", "0\x1f", "1\x1f"]


@pytest.mark.parametrize("text, bulk", [
    (f"#order 3\n0\t1\t0\n1\t{s}\t-2\n2\t0.5\t{s}\n", s in BULK_FLOATS)
    for s in BULK_FLOATS + LINE_LOOP_FLOATS
] + [
    (f"#order 3\n0\t1\t0\n{s}\t2\t-2\n2\t0.5\t3\n", s in BULK_INDICES)
    for s in BULK_INDICES + LINE_LOOP_INDICES
], ids=[f"float[{s[:8]!r}]" for s in BULK_FLOATS + LINE_LOOP_FLOATS]
    + [f"index[{s!r}]" for s in BULK_INDICES + LINE_LOOP_INDICES])
def test_reader_paths_agree_with_the_line_loop(tmp_path, text, bulk):
    """Whichever path reads a spelling, read_series and load_series give the
    line loop's bits (nan payload and sign included) or its FormatError."""
    want = _read_outcome(series_core._read_lines, text)
    assert _read_outcome(read_series, io.StringIO(text)) == want
    path = tmp_path / "s.txt"
    path.write_bytes(text.encode())
    assert _read_outcome(fastseries.load_series, path) == want
    assert (series_core._read_bulk(text.encode()) is not None) == bulk


def test_order_zero_reads_empty_without_a_warning(tmp_path):
    path = tmp_path / "s.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in ("#order 0", "#order 0\n", "#order 0\n\n"):
            assert read_series(io.StringIO(text)).order == 0
            path.write_bytes(text.encode())
            assert fastseries.load_series(path).order == 0


def test_order_zero_with_a_coefficient_line_is_an_error(tmp_path):
    text = "#order 0\n0\t1\t2\n"
    path = tmp_path / "s.txt"
    path.write_bytes(text.encode())
    for read, source in ((read_series, io.StringIO(text)), (fastseries.load_series, path)):
        with pytest.raises(FormatError, match="index 0 beyond declared order 0") as exc:
            read(source)
        assert exc.value.line == 2


# The bytes the mutation test draws from: field and line syntax, what
# float() spells, control bytes (\x1f is one numpy skips beside a field and
# float() does not) and non-ASCII characters.
MUTATION_BYTES = [" ", "\t", "\r", "\n", "+", "-", ".", "_", "#", *"0123456789", "e", "x", "n",
                  "i", "f", "\x00", "\x0b", "\x0c", "\x1c", "\x1f", "\x7f", "é", "١"]


def test_readers_agree_on_mutated_writer_text(tmp_path):
    """Seeded insert, replace and delete edits of writer text: read_series,
    load_series and the line loop give the same bits or the same
    FormatError, whichever path each takes."""
    rng = np.random.default_rng(14)
    bases = []
    for n in (0, 1, 3, 12):
        buf = io.StringIO()
        write_series(rng.standard_normal(2 * n).view(np.complex128)
                     * 10.0 ** rng.integers(-5, 20, n), buf)
        bases.append(buf.getvalue())
    path = tmp_path / "s.txt"
    for trial in range(5000):
        text = bases[trial % len(bases)]
        for _ in range(rng.integers(1, 4)):
            at = int(rng.integers(0, len(text) + 1))
            char = MUTATION_BYTES[rng.integers(len(MUTATION_BYTES))]
            # insert, replace or delete
            insert, drop = [(char, 0), (char, 1), ("", 1)][rng.integers(3)]
            text = text[:at] + insert + text[at + drop:]
        want = _read_outcome(series_core._read_lines, text)
        assert _read_outcome(read_series, io.StringIO(text)) == want, repr(text)
        path.write_bytes(text.encode("utf-8"))
        assert _read_outcome(fastseries.load_series, path) == want, repr(text)


@pytest.mark.parametrize("header, message", [
    ("#orders 2", "expected '#order n' header"),
    ("order 2", "expected '#order n' header"),
    ("#order", "malformed '#order n' header"),
    ("#order 2 junk", "malformed '#order n' header"),
    ("#order 2 3", "malformed '#order n' header"),
    ("#order two", "malformed '#order n' header"),
    ("#order " + "1" * 5000, "malformed '#order n' header"),  # past int()'s digit limit
    ("#order -1", "negative order"),
])
def test_header_is_the_word_order_and_one_integer(header, message):
    with pytest.raises(FormatError, match=message) as exc:
        read_series(io.StringIO(f"{header}\n0\t1\t0\n1\t2\t0\n"))
    assert exc.value.line == 1


def test_dump_series_writes_the_writer_text_as_bytes(tmp_path):
    path = tmp_path / "s.txt"
    rng = np.random.default_rng(12)
    golden = [complex(-0.0, 0.0), complex(5e-324, -2.5e-310), complex(5e40, -1.0),
              complex(2.0, -3.0), complex(0.1, -0.0), complex(-7, 1 / 3)]
    for f in (golden, [], rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)):
        buf = io.StringIO()
        write_series(f, buf)
        series_core.dump_series(f, path)
        assert path.read_bytes() == buf.getvalue().encode("ascii")
    series_core.dump_series(golden, path)
    assert path.read_bytes() == GOLDEN_TEXT.encode("ascii")


def test_load_series_matches_read_series(tmp_path):
    """On writer text (bulk path) and on a UTF-8 file with a non-ASCII
    comment line (line loop), the file reader and the text reader agree."""
    path = tmp_path / "s.txt"
    rng = np.random.default_rng(13)
    c = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
    buf = io.StringIO()
    write_series(c, buf)
    texts = [GOLDEN_TEXT, buf.getvalue(), "#order 2\n# résumé ✓\n0\t1\t2\n1\t-0.5\t3\n"]
    for text in texts:
        path.write_bytes(text.encode("utf-8"))
        got = fastseries.load_series(path).coeffs
        assert got.tobytes() == read_series(io.StringIO(text)).coeffs.tobytes()
        assert (series_core._read_bulk(text.encode("utf-8")) is None) == (not text.isascii())
    assert np.array_equal(fastseries.load_series(path).coeffs, [1 + 2j, -0.5 + 3j])


def _expected_text(values):
    """The text format of the float64 values, read as re, im pairs, spelled
    with format(x, '.17g') one by one."""
    pairs = np.asarray(values, dtype=np.float64).reshape(-1, 2).tolist()
    return f"#order {len(pairs)}\n" + "".join(
        f"{i}\t{format(re, '.17g')}\t{format(im, '.17g')}\n" for i, (re, im) in enumerate(pairs))


def _written_text(values):
    buf = io.StringIO()
    write_series(np.asarray(values, dtype=np.float64).view(np.complex128), buf)
    return buf.getvalue()


def _layout_class(text):
    """(layout, significant digits, sign) of a '%.17g' spelling: the layout
    is the exponent for fixed notation, 'e2' or 'e3' for scientific."""
    neg, body = text.startswith("-"), text.lstrip("-")
    if "e" in body:
        mantissa, exp = body.split("e")
        return ("e2" if abs(int(exp)) < 100 else "e3"), len(mantissa.replace(".", "")), neg
    whole, _, frac = body.partition(".")
    digits = (whole + frac).lstrip("0") or "0"
    X = len(whole) - 1 if whole != "0" else -(len(frac) - len(frac.lstrip("0")) + 1)
    return (0 if body == "0" else X), len(digits.rstrip("0") or "0"), neg


def _edge_values():
    """The writer's hard cases: +-1 ulp around every power of ten, exact
    decimal ties, subnormals, integers from 2**53 to 2**63, signed zeros and
    non-finite values, and a value in every layout class."""
    rng = np.random.default_rng(2024)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)] + [10.0 ** k for k in range(-300, 300)])
    around = [tens, np.nextafter(tens, np.inf), np.nextafter(tens, -np.inf)]
    # x = j / 2**(p+1) with j odd and j * 5**p in [2e16, 2e17): x * 10**p is a
    # half-integer, the tie '%.17g' breaks to even
    ties = []
    for p in range(1, 25):
        lo, hi = -(-2 * 10 ** 16 // 5 ** p), min(2 * 10 ** 17 // 5 ** p, 2 ** 53)
        if lo < hi:
            ties += [float(j | 1) / 2 ** (p + 1) for j in rng.integers(lo, hi - 1, 40).tolist()]
    subnormal = rng.integers(1, 2 ** 52, 4000, dtype=np.uint64).view(np.float64)
    ints = [float(2 ** k + d) for k in range(53, 64) for d in range(-40, 41)]
    ints += [float(i) for i in rng.integers(2 ** 53, 2 ** 63, 4000, dtype=np.uint64).tolist()]
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.0 ** -1022, np.finfo(float).max]
    # one value per layout class, from a pool of dyadic fractions j / 2**f,
    # whose f fractional digits are exact, and of decimals with 1 to 17 digits
    pool = []
    for X in range(-4, 17):
        for f in range(24):
            lo, hi = int(np.ceil(10.0 ** X * 2 ** f)), min(int(10.0 ** (X + 1) * 2 ** f), 2 ** 53)
            if lo < hi:
                pool += [(j | 1) / 2 ** f for j in rng.integers(lo, hi, 4).tolist()]
    for sig in range(1, 18):
        for e in list(range(-25, 20)) + [60, 150, -60, -150, -320, 280]:
            pool += [float(f"{D}e{e}") for D in rng.integers(10 ** (sig - 1), 10 ** sig, 40).tolist()]
    classes = {}
    for x in pool:
        classes.setdefault(_layout_class(format(x, ".17g"))[:2], x)
    layouts = np.array(list(classes.values()))
    values = np.concatenate(around + [np.array(ties), subnormal, np.array(ints),
                                      np.array(special), layouts])
    return np.concatenate([values, -values])


def test_writer_matches_format_on_random_bits_and_edge_values():
    """Every field write_series writes is format(x, '.17g') byte for byte:
    on 2**20 random finite bit patterns and on the hard cases, with every
    layout class of the fast path met; the fast path covers nearly all of
    the random values."""
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)]
    edges = _edge_values()
    # 21 fixed exponents and 2 exponent widths, 17 lengths, 2 signs
    assert len({_layout_class(format(x, ".17g")) for x in edges.tolist()}) == 23 * 17 * 2
    for values in (bits[: bits.size // 2 * 2], edges[: edges.size // 2 * 2]):
        assert _written_text(values) == _expected_text(values)
    field = np.empty((4096, 46), dtype=np.uint8)
    slow = series_core._g17_fields(bits[:4096], field, np.empty(field.shape, dtype=bool))
    if np.finfo(np.longdouble).nmant >= 63:  # 80-bit or wider long double
        assert slow < 0.05 * 4096


def test_pow10_table_is_correctly_rounded():
    """Every finite entry of the writer's 10**p table, which numpy's parser
    reads, is nearer 10**p than both its long double neighbours, exactly in
    rationals: the writer's error bound rests on it."""
    pow10 = series_core._g17_tables().pow10
    assert pow10.dtype == np.longdouble
    assert pow10.size == series_core._P_MAX - series_core._P_MIN + 1
    for p, x in zip(range(series_core._P_MIN, series_core._P_MAX + 1), pow10):
        if not np.isfinite(x):
            continue
        exact = Fraction(10) ** p
        gap = abs(Fraction(*x.as_integer_ratio()) - exact)
        for side in (-np.inf, np.inf):
            near = np.nextafter(x, np.longdouble(side))
            if np.isfinite(near):
                assert gap < abs(Fraction(*near.as_integer_ratio()) - exact), p


def test_writer_with_a_double_width_bound_takes_the_exact_path(monkeypatch):
    """With the bound of a 53-bit long double every value but zero falls
    back to '%.17g', and the bytes are still format's."""
    monkeypatch.setattr(series_core, "_LONG_DOUBLE_UNIT", 2.0 ** -53)
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.integers(0, 2 ** 64, 4000, dtype=np.uint64).view(np.float64),
                             [0.0, -0.0, 1.0, 1e16, 0.5, -2.5e-310]])
    field = np.empty((values.size, 46), dtype=np.uint8)
    slow = series_core._g17_fields(values, field, np.empty(field.shape, dtype=bool))
    assert slow == np.count_nonzero(values)
    assert _written_text(values) == _expected_text(values)


# -- the writer on two threads ------------------------------------------------

def _threaded_writer(monkeypatch, cpus=2):
    """Patch the writer onto two threads from one row on, with chunks of 4
    rows, in a process that may use cpus CPUs; the thread starts, recorded."""
    monkeypatch.setattr(fft_core, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(series_core, "_THREAD_MIN_ROWS", 1)
    monkeypatch.setattr(series_core, "_THREAD_CHUNK_ROWS", 4)
    return record_thread_starts(monkeypatch)


def _writer_values():
    """re, im pairs of 0.0, -0.0, edge values (ties, subnormals, every
    layout class) and random bit patterns."""
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2 ** 64, 64, dtype=np.uint64).view(np.float64)
    values = np.concatenate([[0.0, -0.0, -0.0, 0.0], _edge_values(), bits[np.isfinite(bits)]])
    return values[: values.size // 2 * 2]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("rows", [1, 3, 4, 5, 7, 8, 9, 13, 16, 17])
def test_threaded_writer_writes_the_serial_bytes(rows, exact, monkeypatch):
    """On two threads, at and one past a chunk boundary and at odd row
    counts, the writer gives the bytes of the serial writer and of format;
    with one usable CPU the threaded path runs in the caller alone and gives
    them too.  Some floats take the exact '%.17g' fallback, and with the
    bound of a 53-bit long double every nonzero one does."""
    if exact:
        monkeypatch.setattr(series_core, "_LONG_DOUBLE_UNIT", 2.0 ** -53)
    values = _writer_values()
    slow = 0
    for start in range(0, values.size // 2 - rows + 1, 97 * rows):
        part = values[2 * start:2 * (start + rows)]
        field = np.empty((part.size, 46), dtype=np.uint8)
        taken = series_core._g17_fields(part.copy(), field, np.empty(field.shape, dtype=bool))
        assert taken == np.count_nonzero(part) or not exact
        slow += taken
        serial = _written_text(part)
        assert serial == _expected_text(part)
        with monkeypatch.context() as patched:
            starts = _threaded_writer(patched)
            assert _written_text(part) == serial
            assert len(starts) == 1 and starts[0]["done"]
        with monkeypatch.context() as patched:
            starts = _threaded_writer(patched, cpus=1)
            assert _written_text(part) == serial
            assert not starts
    assert slow > 0


def test_threaded_writer_raises_the_helpers_error(monkeypatch):
    """An error in a chunk the started thread spells reaches the caller,
    who waited until that thread had started it."""
    starts = _threaded_writer(monkeypatch)
    caller, started, lines = threading.get_ident(), threading.Event(), series_core._text_lines

    def failing(start, values, width):
        if threading.get_ident() != caller:
            started.set()
            raise RuntimeError("helper chunk failed")
        assert started.wait(30)
        return lines(start, values, width)

    monkeypatch.setattr(series_core, "_text_lines", failing)
    with pytest.raises(RuntimeError, match="helper chunk failed"):
        _written_text(np.arange(32.0))
    assert len(starts) == 1 and starts[0]["ident"] != caller


def test_threaded_writer_runs_alone_when_no_thread_can_start(monkeypatch):
    """A thread that cannot start leaves every chunk to the caller."""
    _threaded_writer(monkeypatch)

    def refuse(fn, args):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(_thread, "start_new_thread", refuse)
    values = _writer_values()[:64]
    assert _written_text(values) == _expected_text(values)


def test_threaded_writer_starts_no_thread_while_the_interpreter_finalizes(monkeypatch):
    """While the interpreter finalizes, a started thread may never run, so
    the caller spells every chunk and no thread starts."""
    starts = _threaded_writer(monkeypatch)
    monkeypatch.setattr(sys, "is_finalizing", lambda: True)
    values = _writer_values()[:64]
    assert _written_text(values) == _expected_text(values)
    assert not starts


def test_threaded_writer_leaves_no_thread_alive(monkeypatch):
    """The thread a write starts has run to its end when the write returns,
    at the real chunk size and threshold: a 2**14-row write starts one."""
    starts = record_thread_starts(monkeypatch)
    monkeypatch.setattr(fft_core, "_usable_cpus", lambda: 2)
    rows = max(series_core._THREAD_MIN_ROWS, 1 << 14)
    values = np.random.default_rng(29).standard_normal(2 * rows)
    # a thread is done a few bytecodes after it lets the caller go; the
    # long switch interval keeps the caller from taking the GIL before that
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        alive = _thread._count()
        text = _written_text(values)
        assert _thread._count() <= alive
    finally:
        sys.setswitchinterval(interval)
    assert len(starts) == 1 and starts[0]["done"]
    monkeypatch.setattr(fft_core, "_usable_cpus", lambda: 1)
    assert _written_text(values) == text


def test_threaded_writer_builds_its_tables_once(monkeypatch):
    """The first write in a process builds the tables before its thread
    starts: functools.cache would let both threads build them at once."""
    builds = []

    class Counted(series_core._G17Tables):
        def __init__(self):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # a window for a second thread to miss the cache
            super().__init__()

    _threaded_writer(monkeypatch)
    monkeypatch.setattr(series_core, "_G17Tables", Counted)
    series_core._g17_tables.cache_clear()
    try:
        values = _writer_values()[:64]
        assert _written_text(values) == _expected_text(values)
    finally:
        series_core._g17_tables.cache_clear()
    assert builds == [threading.get_ident()]
