import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastseries import (
    DomainError,
    FormatError,
    TruncatedSeries,
    add,
    derivative,
    floor_div_xn,
    integral,
    mul_mod,
    overlap_add,
    read_series,
    scale,
    split_blocks,
    sub,
    truncate,
    write_series,
    zero_extend,
)
from fastseries import series_core

from util import rel_err

coeff = st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False)


def test_truncate_examples():
    assert np.allclose(truncate([1, 2, 3], 2).coeffs, [1, 2])
    assert np.allclose(truncate([1, 2, 3], 3).coeffs, [1, 2, 3])
    assert np.allclose(truncate([0, 5], 1).coeffs, [0])


def test_truncate_rejects_extension():
    with pytest.raises(DomainError):
        truncate([1, 2], 3)
    assert np.allclose(zero_extend([1, 2], 4).coeffs, [1, 2, 0, 0])


def test_floor_div_examples():
    assert np.allclose(floor_div_xn([1, 2, 3, 4], 2).coeffs, [3, 4])
    f = [2, 7, 1]
    assert np.allclose(floor_div_xn(f, 0).coeffs, f)
    assert floor_div_xn([7], 1).order == 0
    with pytest.raises(DomainError):
        floor_div_xn([7], 2)


def test_derivative_examples():
    assert np.allclose(derivative([1, 2, 3]).coeffs, [2, 6])
    assert derivative([5]).order == 0
    assert np.allclose(derivative([0, 1]).coeffs, [1])


def test_integral_examples():
    assert np.allclose(integral([1, 1]).coeffs, [0, 1, 0.5])
    assert np.allclose(integral([]).coeffs, [0])


@given(st.lists(coeff, min_size=1, max_size=48))
@settings(max_examples=40, deadline=None)
def test_derivative_of_integral_is_identity(coeffs):
    f = np.asarray(coeffs, dtype=complex)
    back = derivative(integral(f)).coeffs
    assert np.allclose(back, f, atol=1e-9, rtol=1e-9)


def test_integral_of_derivative_drops_constant():
    f = np.array([3.5, 1, 2, -4], dtype=complex)
    back = integral(derivative(f)).coeffs
    want = f.copy()
    want[0] = 0
    assert np.allclose(back, want)


def test_add_sub_scale():
    assert np.allclose(add([1, 2], [3, 4]).coeffs, [4, 6])
    f = [1 + 1j, -2]
    assert np.allclose(sub(f, f).coeffs, [0, 0])
    assert np.allclose(scale([1, 1], 2).coeffs, [2, 2])
    with pytest.raises(DomainError):
        add([1], [1, 2])


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


def test_split_blocks_examples():
    blocks = split_blocks([1, 2, 3, 4], 2)
    assert np.allclose(blocks[0], [1, 2]) and np.allclose(blocks[1], [3, 4])
    blocks = split_blocks([1, 2, 3], 2)
    assert np.allclose(blocks[1], [3, 0])
    assert len(split_blocks([1, 2, 3], 3)) == 1


def test_overlap_add_examples():
    assert np.allclose(overlap_add([[1, 1, 1]], 2, 3).coeffs, [1, 1, 1])
    assert np.allclose(overlap_add([[1, 0, 1], [1, 0, 0]], 1, 3).coeffs, [1, 1, 1])


@given(st.lists(coeff, min_size=1, max_size=60), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_split_overlap_roundtrip(coeffs, k):
    f = np.asarray(coeffs, dtype=complex)
    back = overlap_add(split_blocks(f, k), k, f.size).coeffs
    assert np.allclose(back, f, atol=1e-12)


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
    with pytest.raises(FormatError):
        read_series(io.StringIO("#order 3\n0\t1\t0\n"))


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
