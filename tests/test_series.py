import io

import inspect

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
from fastseries import series_core

from util import rel_err

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
    "report_text", "shifted_middle_product", "stage_table", "triple_middle_product",
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
    """Files in the writer's layout are parsed in bulk, to the same bytes as
    the line loop; any other text goes to the line loop."""
    rng = np.random.default_rng(11)
    texts = [GOLDEN_TEXT, GOLDEN_TEXT[:-1], "#order 0\n"]
    for n in (1, 7, 300, 4096):
        c = rng.standard_normal(n) * 10.0 ** rng.integers(-310, 300, n)
        c = c + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-310, 300, n)
        buf = io.StringIO()
        write_series(c, buf)
        texts.append(buf.getvalue())
    for text in texts:
        bulk = series_core._read_bulk(text)
        assert bulk is not None
        assert bulk.tobytes() == series_core._read_lines(text).coeffs.tobytes()
        assert read_series(io.StringIO(text)).coeffs.tobytes() == bulk.tobytes()
    for text in ("#order 1\n# comment\n0\t1\t2\n", "#order 1\n0\t1\t2\n\n",
                 "#order 1\r\n0\t1\t2\r\n", "#order\t1\n0\t1\t2\n", "#order 1\n+0\t1\t2\n",
                 "#order 2\n0\t1.5\n1\t2.5\t1\t3\n", "#order 2\n0\t1\t2\n"):
        assert series_core._read_bulk(text) is None
