"""Every input check of the library, each with its error type and message
or its exact result: the guards no numerical test reaches."""

import io
import os
import re

import numpy as np
import pytest

from fastseries import (
    BlockCache,
    BlockPlan,
    CostLedger,
    DomainError,
    FormatError,
    KindMismatchError,
    PlanError,
    UnsupportedLengthError,
    choose_plan,
    derivative,
    dft,
    dft_3k,
    double_dft,
    fast_log,
    fast_pow,
    inverse_double_dft,
    mul_mod,
    multiply,
    oracle_middle,
    oracle_pow,
    read_series,
    report_kv,
    report_text,
    stage_table,
    triple_middle_product,
)
from fastseries import fft_core
from fastseries.fft_core import is_supported_length


def _cache(k=4, upto=3):
    """A cache with series a, b, c of 4 blocks each, blocks 0..upto
    transformed."""
    cache = BlockCache(k)
    for label in "abc":
        cache.register(label, np.arange(1, 4 * k + 1))
        cache.ensure(label, upto)
    return cache


def _raises(kind, message, call, *args, **kwargs):
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call(*args, **kwargs)


@pytest.mark.parametrize("k", [0, -2])
def test_block_cache_needs_a_positive_block_size(k):
    _raises(PlanError, "block size must be positive", BlockCache, k)


@pytest.mark.parametrize("known, message", [
    (7, "known coefficient count cannot shrink"),
    (17, "known count beyond backing array"),
])
def test_extend_known_stays_within_its_series(known, message):
    cache = BlockCache(4)
    cache.register("x", np.zeros(16), known=8)
    _raises(DomainError, message, cache.extend_known, "x", known)
    cache.extend_known("x", 16)
    assert cache.known("x") == 16


@pytest.mark.parametrize("kwargs, kind, message", [
    ({"known": 100}, DomainError, "known count beyond backing array"),
    ({"known": -4}, DomainError, "known coefficient count cannot be negative"),
    ({"block": 0}, PlanError, "block size must be positive"),
    ({"block": -2}, PlanError, "block size must be positive"),
])
def test_register_keeps_its_series_within_its_array(kwargs, kind, message):
    cache = BlockCache(4)
    _raises(kind, message, cache.register, "x", np.ones(8), **kwargs)
    assert "x" not in cache._series


def test_alias_stays_within_the_sources_rows():
    cache = BlockCache(4)
    cache.register("a", np.ones(8))
    cache.register("b", np.ones(8))
    cache.ensure("a", 0)
    _raises(DomainError, "alias range 0..1 beyond a's 1 slots", cache.alias, "b", "a", 1)


@pytest.mark.parametrize("upto, message", [
    (3, "alias range 0..3 not within b's 2 blocks"),
    (-2, "alias range 0..-2 not within b's 2 blocks"),
])
def test_alias_stays_within_both_series(upto, message):
    cache = BlockCache(4)
    cache.register("a", np.ones(16))
    cache.register("b", np.ones(8))
    cache.ensure("a", 3)
    _raises(DomainError, message, cache.alias, "b", "a", upto)
    assert cache.high_water("b") == -1


@pytest.mark.parametrize("method, block, kind, message", [
    ("ensure", 12, PlanError, "blocks larger than 2k do not fit the image space"),
    ("ensure_2k", 8, DomainError, "order-2k spectra are only kept for size-k blocks"),
])
def test_block_size_checks_of_the_transform_steps(method, block, kind, message):
    cache = BlockCache(4)
    cache.register("x", np.ones(24), block=block)
    _raises(kind, message, getattr(cache, method), "x", 0)


@pytest.mark.parametrize("shift, n, linear, kind, message", [
    (8, -4, None, DomainError, "negative output order -4"),
    (4, 4, (0.5, "c"), PlanError, "a folded linear term needs an even block shift"),
])
def test_triple_middle_product_checks(shift, n, linear, kind, message):
    """A rejected call transforms no block: it records no event and leaves
    every series' spectra as they were."""
    cache, led = _cache(upto=0), CostLedger()
    _raises(kind, message, triple_middle_product, cache, "a", "b", "c", shift, n,
            ledger=led, linear=linear)
    assert led.events == [] and led.scalar == {}
    assert [cache.high_water(label) for label in "abc"] == [0, 0, 0]


def test_triple_middle_product_needs_whole_output_blocks():
    _raises(DomainError, "output order 6 is not a multiple of block size 4",
            triple_middle_product, _cache(), "a", "b", "c", 8, 6)


@pytest.mark.parametrize("report", [report_kv, report_text, stage_table])
def test_reports_reject_a_fallback_plan(report):
    """A fallback plan has no blocks, so no m/k to quote units in."""
    plan = choose_plan(16)
    assert plan.fallback
    _raises(PlanError, "a fallback plan has no block ratio m/k", report, CostLedger(), plan)


@pytest.mark.parametrize("N", [0, -1])
def test_choose_plan_needs_a_positive_order(N):
    _raises(DomainError, "order must be positive", choose_plan, N)


def test_power_plan_needs_double_blocks_in_its_extension_order():
    _raises(PlanError, "power runs need the extension order to span double blocks",
            fast_pow, [1, 0.5], 0.5, 32, plan=BlockPlan(k=4, n=4, m=16))


@pytest.mark.parametrize("f", [[2, 1], [0, 1], []])
def test_fast_log_needs_constant_term_one(f):
    _raises(DomainError, "log needs constant term 1", fast_log, f, 8)


@pytest.mark.parametrize("L", [0, -4])
def test_nonpositive_lengths_are_unsupported(L):
    assert is_supported_length(L) is False


@pytest.mark.parametrize("call, message", [
    (lambda: dft(np.ones(5), 4), "polynomial with 5 coefficients exceeds order 4"),
    (lambda: double_dft(np.ones(13), 8, 4),
     "polynomial with 13 coefficients exceeds double order (8,4)"),
    (lambda: dft_3k(np.ones(13), 4), "polynomial with 13 coefficients exceeds order 12"),
])
def test_transforms_reject_too_many_coefficients(call, message):
    _raises(UnsupportedLengthError, message, call)


def test_inverse_double_dft_needs_a_double_spectrum():
    _raises(KindMismatchError, "inverse_double_dft needs a double spectrum, got plain",
            inverse_double_dft, dft(np.ones(2), 4))


@pytest.mark.parametrize("p, q, size", [([], [1, 2], 1), ([1, 2, 3], [], 2), ([], [], 0)])
def test_multiply_with_an_empty_operand_is_zero(p, q, size):
    out = multiply(p, q)
    assert out.dtype == np.complex128 and out.tolist() == [0] * size


@pytest.mark.parametrize("f, g", [([], [1, 2]), ([1, 2], [])])
def test_mul_mod_with_an_empty_operand_is_zero(f, g):
    assert mul_mod(f, g, 3).coeffs.tolist() == [0, 0, 0]


@pytest.mark.parametrize("f, g", [([1, 2], [3, 4]), ([], [1])])
def test_mul_mod_to_a_negative_order_fails(f, g):
    _raises(DomainError, "order must be nonnegative", mul_mod, f, g, -1)


def test_derivative_of_an_empty_series():
    _raises(DomainError, "derivative needs order >= 1", derivative, [])


def test_reading_an_empty_text_fails_at_line_1():
    with pytest.raises(FormatError) as exc:
        read_series(io.StringIO(""))
    assert exc.value.line == 1
    assert str(exc.value) == "line 1: empty file; expected '#order n' header"


def test_oracle_pow_to_order_zero_is_empty():
    out = oracle_pow([1, 2], 0.5, 0)
    assert out.coeffs.size == 0 and out.coeffs.dtype == np.complex128


def test_oracle_middle_checks_and_short_products():
    _raises(DomainError, "shift must be nonnegative", oracle_middle, [1], [1, 1], [1, 1], -1, 3)
    _raises(DomainError, "order must be nonnegative", oracle_middle, [1], [1, 1], [1, 1], 0, -1)
    _raises(DomainError, "order must be nonnegative", oracle_middle, [], [1], [1], 0, -2)
    # g*h = 1 + 2x + x**2 ends below the shift: the floor is zero
    assert oracle_middle([1, 1], [1, 1], [1, 1], 3, 3).coeffs.tolist() == [0, 0, 0]
    assert oracle_middle([], [1, 1], [1, 1], 0, 2).coeffs.tolist() == [0, 0]
    assert oracle_middle([1, 1], [1, 1], [1, 1], 2, 3).coeffs.tolist() == [1, 1, 0]


@pytest.mark.parametrize("cpu_count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_affinity_reads_the_cpu_count(monkeypatch, cpu_count, usable):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert fft_core._usable_cpus() == usable
