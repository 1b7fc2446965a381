import threading

import numpy as np
import pytest

from fastseries import (
    BlockCache,
    BlockPlan,
    CostLedger,
    DomainError,
    PlanError,
    double_dft,
    fast_exp,
    fast_pow,
    oracle_middle,
    triple_middle_product,
)
from fastseries import block_engine, fast_ops
from fastseries.block_engine import _aligned_middle, _block_conv
from fastseries.cli import bench_plan, exp_input, pow_input

from util import disk, rel_err


def test_plan_validation():
    plan = BlockPlan(k=4, n=16, m=64)
    assert plan.target == 128 and plan.ratio == 16
    with pytest.raises(PlanError):
        BlockPlan(k=3, n=16, m=64)
    with pytest.raises(PlanError):
        BlockPlan(k=4, n=12, m=64)
    with pytest.raises(PlanError):
        BlockPlan(k=4, n=16, m=16)
    with pytest.raises(PlanError):
        BlockPlan(k=1, n=2, m=8)  # pinned by the bench plans and the CLI
    for n in (0, -4):  # k divides n and n divides m, but there is no bootstrap
        with pytest.raises(PlanError, match="must be positive"):
            BlockPlan(k=2, n=n, m=512)


def _populated_cache(rng, k, n, m, f=None, g=None, h=None, ledger=None):
    f = disk(rng, n) if f is None else np.asarray(f, dtype=complex)
    g = disk(rng, m + n) if g is None else np.asarray(g, dtype=complex)
    h = disk(rng, m + n) if h is None else np.asarray(h, dtype=complex)
    cache = BlockCache(k)
    cache.register("a", f)
    cache.register("b", g)
    cache.register("c", h)
    cache.ensure("a", -(-f.size // k) - 1, ledger=ledger)
    cache.ensure("b", -(-g.size // k) - 1, ledger=ledger)
    cache.ensure("c", -(-h.size // k) - 1, ledger=ledger)
    return cache, f, g, h


def test_ensure_counts():
    rng = np.random.default_rng(0)
    cache = BlockCache(4)
    cache.register("x", disk(rng, 64))
    led = CostLedger()
    assert cache.ensure("x", 3, ledger=led) == 4
    assert led.event_count(label="x") == 8  # one order-2k plus one order-k each
    assert cache.ensure("x", 3, ledger=led) == 0
    assert cache.ensure("x", 7, ledger=led) == 4
    assert cache.high_water("x") == 7


def test_ensure_short_final_block_of_fixed_series_is_complete():
    cache = BlockCache(4)
    cache.register("x", np.ones(10))
    assert cache.ensure("x", 2) == 3  # final block zero-padded, still cached
    assert cache.ensure("x", 2) == 0


def test_ensure_makes_the_whole_blocks_up_to_the_request():
    """ensure and ensure_2k make the whole blocks among those asked for, and
    return how many they made; a block not yet whole waits for its series."""
    cache = BlockCache(4)
    cache.register("x", np.ones(10))
    assert cache.ensure("x", 5) == 3  # the fixed series' short block 2 is whole
    assert cache.high_water("x") == 2
    grows = np.zeros(16, dtype=complex)
    cache.register("y", grows, known=10)
    assert cache.ensure("y", 2) == 2  # still-growing series: block 2 is not whole
    assert cache.high_water("y") == 1
    assert cache.ensure("y", 2) == 0
    cache.extend_known("y", 12)
    assert cache.ensure("y", 3) == 1  # block 2, now whole
    assert cache.high_water("y") == 2
    cache.register("z", grows, known=10)
    assert cache.ensure_2k("z", 3) == 2
    assert cache.ensure_2k("z", 3) == 0
    assert cache.high_water("z") == -1  # order-2k spectra only
    cache.register("w", grows, known=3)
    assert cache.ensure("w", 3) == cache.ensure_2k("w", 3) == 0


def test_rows_make_the_order_2k_spectra_they_hand_out():
    """rows(label, count) makes the order-2k spectra of blocks 0..count-1
    that are missing, under the ledger it is given, and refuses a block that
    is not whole."""
    rng = np.random.default_rng(17)
    x = disk(rng, 12)
    cache = BlockCache(4)
    cache.register("x", x, known=8)
    cache.ensure("x", 0)
    assert cache.rows("x").spec.shape == (1, 12)
    led = CostLedger()
    rows = cache.rows("x", 2, led)
    assert rows.spec.shape == (2, 8) and led.event_count(label="x") == 1
    assert np.allclose(rows.spec[1], np.fft.ifft(x[4:8], 8) * 8, rtol=0, atol=1e-13)
    assert cache.rows("x").spec.shape == (1, 12)  # no double spectrum is made
    assert cache.rows("x", 2, led).spec.shape == (2, 8) and led.event_count(label="x") == 1
    with pytest.raises(DomainError, match="no whole block 2"):
        cache.rows("x", 3)
    cache.extend_known("x", 12)
    assert cache.rows("x", 3).spec.shape == (3, 8)


@pytest.mark.parametrize("made", [
    (1, 3, 5),  # b made only to block 3
    (1, 5, 1),  # c made only to block 1
    (0, 0, 0),
    (-1, -1, -1),  # nothing made
])
def test_triple_makes_the_blocks_it_reads(made):
    """A middle product on operands made partly, or not at all, makes the
    blocks its window reads and equals the reference."""
    rng = np.random.default_rng(18)
    k, shift, n = 4, 16, 8
    f, g, h = disk(rng, n), disk(rng, shift + n), disk(rng, shift + n)
    cache = BlockCache(k)
    for label, arr, upto in zip("abc", (f, g, h), made):
        cache.register(label, arr)
        cache.ensure(label, upto)
    q = triple_middle_product(cache, "a", "b", "c", shift, n)
    assert rel_err(q.coeffs, oracle_middle(f, g, h, shift, n).coeffs) < 1e-12
    assert [cache.high_water(label) for label in "abc"] == [1, 5, 5]


def test_triple_makes_the_folded_term_it_reads():
    """With a folded linear term made not at all, the product makes its
    double-sized blocks up to the one holding the last residual block."""
    rng, k, coef = np.random.default_rng(19), 4, 0.3 - 0.2j
    shift, n = 4 * k, 4 * k
    f, g, b, c = disk(rng, n), disk(rng, 8 * k), disk(rng, 8 * k), disk(rng, 8 * k)
    cache = BlockCache(k)
    for label, arr, size in (("a", f, k), ("b", b, k), ("c", c, k), ("d", g, 2 * k)):
        cache.register(label, arr, block=size)
    q = triple_middle_product(cache, "a", "b", "c", shift, n, linear=(coef, "d"))
    v = coef * g - np.convolve(b, c)[: g.size]
    want = np.convolve(f, v[shift:])[:n]
    assert rel_err(q.coeffs, want) < 1e-12
    assert [cache.high_water(label) for label in "abcd"] == [3, 7, 7, 3]


def test_triple_all_ones_example():
    ones = np.ones(8, dtype=complex)
    cache, f, g, h = _populated_cache(
        np.random.default_rng(0), 2, 4, 4, f=ones[:4], g=ones, h=ones
    )
    q = triple_middle_product(cache, "a", "b", "c", 4, 4)
    assert np.allclose(q.coeffs, [5, 11, 18, 26])
    want = oracle_middle(f, g, h, 4, 4).coeffs
    assert rel_err(q.coeffs, want) < 1e-10


def test_triple_zero_factor():
    rng = np.random.default_rng(1)
    zeros = np.zeros(12, dtype=complex)
    cache, f, g, h = _populated_cache(rng, 2, 4, 8, g=zeros)
    q = triple_middle_product(cache, "a", "b", "c", 8, 4)
    assert np.allclose(q.coeffs, np.zeros(4))


def test_triple_shift_zero_is_plain_product():
    rng = np.random.default_rng(2)
    one = np.array([1.0], dtype=complex)
    cache, f, g, h = _populated_cache(rng, 2, 4, 0, f=one)
    q = triple_middle_product(cache, "a", "b", "c", 0, 4)
    want = oracle_middle(f, g, h, 0, 4).coeffs
    assert rel_err(q.coeffs, want) < 1e-10


def test_triple_incremental_units_hit_the_bound():
    rng = np.random.default_rng(3)
    led = CostLedger()
    cache, f, g, h = _populated_cache(rng, 4, 16, 64, ledger=led)
    before = led.units_total(4)
    q = triple_middle_product(cache, "a", "b", "c", 64, 16, ledger=led)
    inc = led.units_total(4) - before
    assert inc == 3 * (16 // 4 + 2)
    want = oracle_middle(f, g, h, 64, 16).coeffs
    assert rel_err(q.coeffs, want) < 1e-10


def test_triple_exhaustive_small_blocks():
    rng = np.random.default_rng(4)
    for k in (1, 2, 4):
        for m_blocks in (1, 2, 4, 8):
            for n_blocks in (1, 2, 4):
                m = k * m_blocks
                n = k * n_blocks
                cache, f, g, h = _populated_cache(rng, k, n, m)
                q = triple_middle_product(cache, "a", "b", "c", m, n)
                want = oracle_middle(f, g, h, m, n).coeffs
                assert rel_err(q.coeffs, want) < 1e-10, (k, m, n)


def test_output_blocks_have_negligible_tail():
    rng = np.random.default_rng(5)
    k = 4
    cache, f, g, h = _populated_cache(rng, k, 16, 32)
    _, out_blocks = _aligned_middle(cache, "a", "b", "c", 32 // k, 16)
    peak = max(np.max(np.abs(d)) for d in out_blocks)
    for d in out_blocks:
        assert np.all(np.abs(d[3 * k - 1 :]) <= 1e-12 * (1 + peak))


@pytest.mark.parametrize("nb, ng, blocks_out", [
    (2, 3, 9),  # the residual runs past both b*c and the folded term
    (5, 1, 5),  # the folded term stops below the first output block
    (3, 8, 5),  # an odd count of output blocks, all reached by the term
])
def test_shifted_with_folded_linear_term_matches_oracle(nb, ng, blocks_out):
    """v = coef*g - b*c with g held in double-sized blocks, shifted by 4k:
    the folded term reaches the even residual blocks below g's end, and a
    residual block no pair and no term reaches is zero."""
    rng, k, coef = np.random.default_rng(15), 4, 0.3 - 0.2j
    shift, n = 4 * k, blocks_out * k
    f, g, b, c = disk(rng, 6 * k), disk(rng, ng * 2 * k), disk(rng, nb * k), disk(rng, nb * k)
    cache = BlockCache(k)
    for label, arr, size in (("a", f, k), ("b", b, k), ("c", c, k), ("d", g, 2 * k)):
        cache.register(label, arr, block=size)
        cache.ensure(label, arr.size // size - 1)
    q = triple_middle_product(cache, "a", "b", "c", shift, n, linear=(coef, "d"))
    v = np.zeros(max(2 * nb * k, g.size), dtype=complex)
    v[: 2 * nb * k - 1] -= np.convolve(b, c)
    v[: g.size] += coef * g
    want = np.zeros(n, dtype=complex)
    head = np.convolve(f, v[shift:])[:n]
    want[: head.size] = head
    assert rel_err(q.coeffs, want) < 1e-12


def test_shift_alignment_errors():
    rng = np.random.default_rng(9)
    cache, *_ = _populated_cache(rng, 4, 8, 16)
    with pytest.raises(DomainError):
        triple_middle_product(cache, "a", "b", "c", 13, 8)


def test_ensure_2k_after_ensure_is_free():
    rng = np.random.default_rng(15)
    cache = BlockCache(4)
    cache.register("x", disk(rng, 32))
    assert cache.ensure("x", 7) == 8
    led = CostLedger()
    assert cache.ensure_2k("x", 7, ledger=led) == 0
    assert led.events == []


def test_2k_transform_of_grown_head_block_then_ensure():
    rng = np.random.default_rng(16)
    full = disk(rng, 32)
    arr = np.zeros(32, dtype=complex)
    arr[:12] = full[:12]  # blocks 0..2 are whole
    cache = BlockCache(4)
    cache.register("x", arr, known=12)
    assert cache.ensure("x", 2) == 3
    arr[12:24] = full[12:24]
    cache.extend_known("x", 24)
    led = CostLedger()
    # the grown blocks 3, 4, 5 at order 2k only
    assert cache.ensure_2k("x", 5, ledger=led) == 3
    assert [ev.order for ev in led.events] == [8] * 3
    want_2k = np.fft.ifft(full[12:24].reshape(3, 4), n=8, axis=1) * 8
    assert np.allclose(cache.rows("x", 6).spec[3:], want_2k, rtol=0, atol=1e-13)
    # rows 3..5 hold no double spectrum yet, so a copy stops at row 2 and
    # the copy's row 3 is made whole, as ensure makes it
    copy = np.zeros(32, dtype=complex)
    copy[:16] = full[:16]
    cache.register("y", copy, known=16)
    with pytest.raises(DomainError):
        cache.alias("y", "x", 3)
    cache.alias("y", "x", 2)
    assert cache.ensure("y", 3) == 1
    assert np.array_equal(cache.rows("y").spec[3], double_dft(full[12:16], 8, 4).values)
    # the double spectra of rows 3..5 are made whole, once
    assert cache.ensure("x", 5) == 3
    assert cache.ensure_2k("x", 5) == 0
    fresh = BlockCache(4)
    fresh.register("x", full[:24])
    fresh.ensure("x", 5)
    assert np.array_equal(cache.rows("x").spec, fresh.rows("x").spec)


@pytest.mark.parametrize("split", [0, 2, 6])
def test_rows_made_in_two_calls_match_one_call(split):
    """ensure_2k and then ensure, each in two calls split before block
    split, leave the rows one call of each makes, bit for bit, on a fixed
    series whose zero-padded short last block comes with other blocks or
    alone, and record one event group per new row."""
    k, blocks = 8, 7
    series = disk(np.random.default_rng(18), (blocks - 1) * k + 3)
    one = BlockCache(k)
    one.register("x", series)
    one.ensure_2k("x", blocks - 1)
    want_2k = one.rows("x", blocks).spec.copy()
    one.ensure("x", blocks - 1)
    want = one.rows("x").spec

    def made_in(call, orders, upto, rows):
        led = CostLedger()
        assert call("x", upto, ledger=led) == rows
        expected = CostLedger()
        expected.record_dfts(orders, rows, label="x")
        assert led.events == expected.events

    cache = BlockCache(k)
    cache.register("x", series)
    made_in(cache.ensure_2k, (2 * k,), split - 1, split)
    made_in(cache.ensure_2k, (2 * k,), blocks - 1, blocks - split)
    assert np.array_equal(cache.rows("x", blocks).spec, want_2k)
    made_in(cache.ensure, (2 * k, k), split - 1, split)
    made_in(cache.ensure_2k, (2 * k,), blocks - 1, 0)  # rows past split keep them
    made_in(cache.ensure, (2 * k, k), blocks - 1, blocks - split)
    assert cache.high_water("x") == blocks - 1
    assert np.array_equal(cache.rows("x").spec, want)


def test_spectra_2k_is_the_first_2k_columns():
    rng = np.random.default_rng(17)
    cache, *_ = _populated_cache(rng, 4, 8, 16)
    for label in "abc":
        rows = cache.rows(label).spec
        view = cache.rows(label, rows.shape[0]).spec
        assert np.shares_memory(view, rows)
        assert np.array_equal(view, rows[:, :8])


# -- the pinned bench scale: k = 16, m/k = 128 ---------------------------------

K, M, NN = 16, 2048, 256  # block size, cut, output order (16 output blocks)


def test_triple_at_pinned_scale():
    rng = np.random.default_rng(10)
    led = CostLedger()
    cache, f, g, h = _populated_cache(rng, K, NN, M, ledger=led)
    before = led.units_total(K)
    q = triple_middle_product(cache, "a", "b", "c", M, NN, ledger=led)
    assert led.units_total(K) - before == 3 * (NN // K + 2)
    assert rel_err(q.coeffs, oracle_middle(f, g, h, M, NN).coeffs) < 1e-10


def _pairs(hw_b, hw_c, j):
    return max(0, min(hw_b, j) - max(0, j - hw_c) + 1)


def test_short_residual_still_inverts_and_counts_every_block():
    """g*h ends four blocks past the cut, so no cached block pair reaches
    the residual images further up, and f has four blocks.  Those images
    are exact zeros, yet every output block is summed over all its pairs,
    inverted and tallied: 3*(NN/K + 2) order-K units, as for any product."""
    rng = np.random.default_rng(12)
    f, g, h = disk(rng, 4 * K), disk(rng, M + 4 * K), disk(rng, 2 * K)
    led = CostLedger()
    cache, *_ = _populated_cache(rng, K, NN, M, f=f, g=g, h=h)
    q = triple_middle_product(cache, "a", "b", "c", M, NN, ledger=led)
    assert rel_err(q.coeffs, oracle_middle(f, g, h, M, NN).coeffs) < 1e-10

    # hand count: straddle image j = M/K - 1, output images j = M/K + i,
    # 17 rows of 3K columns, summed on the block axis in chunks of 16 rows:
    # b's 9 chunks and c's one are transformed in the call, as no earlier
    # call made them
    hw_a, hw_b, hw_c, n_out = 3, M // K + 3, 1, NN // K
    images = [_pairs(hw_b, hw_c, M // K + i) for i in range(-1, n_out)]
    assert images[0] > 0 and 0 in images
    residual = _conv_tallies(hw_b + 1, hw_c + 1, M // K - 1, n_out + 1, 3 * K, images,
                             transformed=9 + 1)
    cmul = residual["cmul"]
    cmul += 2 * K  # straddle inverse
    cmul += 4 * K  # theta forward
    # output block t sums a[lam]*u[t-lam] over every pair, the zero images
    # included; counting them puts this sum on the block-axis path too, where
    # each operand is one chunk of 16 rows, transformed in the call
    terms = [_pairs(hw_a, n_out - 1, t) for t in range(n_out)]
    sums = _conv_tallies(hw_a + 1, n_out, 0, n_out, 3 * K, terms, transformed=2)
    assert residual["axis_dft"] + sums["axis_dft"] == led.scalar["axis_dft"]
    cmul += sums["cmul"]
    cmul += 3 * K * (hw_a + 1)  # a[t] * theta
    cmul += 2 * K * n_out  # output inverses
    assert led.scalar["cmul"] == cmul
    assert led.event_count(label="mp-restore") == 2 * n_out
    assert led.units_total(K) == 3 * (NN // K + 2)


def test_every_residual_image_of_exp_and_pow_has_a_block_pair(monkeypatch):
    """Every block middle product fast_exp and fast_pow run, on the default
    and the pinned plans, asks only for residual images some cached block
    pair reaches: the last image, block_shift - 1 + ceil(out_len/k), is
    below the sum of the two operands' block counts, and a holds block 0
    for the pair a[0] * u[t] of every output block t."""
    real, seen = block_engine._aligned_middle, []

    def spy(cache, a_label, b_label, c_label, block_shift, out_len, *args, **kwargs):
        k = cache.k
        na, nb, nc = (len(cache.rows(x).spec) for x in (a_label, b_label, c_label))
        last = block_shift - 1 + -(-out_len // k)
        seen.append((na, nb, nc, block_shift, last))
        return real(cache, a_label, b_label, c_label, block_shift, out_len, *args, **kwargs)

    monkeypatch.setattr(block_engine, "_aligned_middle", spy)
    rng = np.random.default_rng(19)
    for N in (1000, 3000, 4096):
        h, g = exp_input(rng, N), pow_input(rng, N)
        for plan in (lambda op: None, lambda op: bench_plan(op, N)):
            for run in (lambda: fast_exp(h, N, plan=plan("exp")),
                        lambda: fast_pow(g, 0.3 + 0.7j, N, plan=plan("pow"))):
                seen.clear()
                run()
                assert seen, N
                for na, nb, nc, block_shift, last in seen:
                    assert na >= 1 and block_shift >= 1
                    assert last <= nb + nc - 2, (N, na, nb, nc, block_shift, last)


def test_no_block_is_transformed_twice(monkeypatch):
    """fast_exp and fast_pow, on the default and the pinned plans, make each
    block of each cached series at most once with ensure and at most once
    with ensure_2k: a series grows by whole blocks, so none is made while
    part of it is unknown and made again once it grows."""
    made, kinds = {}, []

    def spy(kind):
        real = getattr(BlockCache, kind)

        def wrapped(cache, label, upto, *args, **kwargs):
            kinds.append([kind, 0])
            count = real(cache, label, upto, *args, **kwargs)
            assert kinds.pop()[1] == count, (kind, label)
            return count

        monkeypatch.setattr(BlockCache, kind, wrapped)

    real_stale = BlockCache._stale

    def stale(cache, label, *args):
        out = real_stale(cache, label, *args)
        kinds[-1][1] += len(out[0])  # the rows the caller transforms
        for i in out[0]:
            key = (cache, label, int(i), kinds[-1][0])
            made[key] = made.get(key, 0) + 1
        return out

    spy("ensure")
    spy("ensure_2k")
    monkeypatch.setattr(BlockCache, "_stale", stale)
    rng = np.random.default_rng(20)
    for N in (1000, 3000, 4096):
        h, g = exp_input(rng, N), pow_input(rng, N)
        for plan in (lambda op: None, lambda op: bench_plan(op, N)):
            for run in (lambda: fast_exp(h, N, plan=plan("exp")),
                        lambda: fast_pow(g, 0.3 + 0.7j, N, plan=plan("pow"))):
                made.clear()
                run()
                assert made, N
                twice = [(label, i, kind) for (_, label, i, kind), n in made.items() if n > 1]
                assert not twice, (N, twice)


def _conv_loop(b, c, j0, count):
    """Rows j0..j0+count-1 of the block-axis convolution of b and c, one pair
    at a time, and each row's count of pairs."""
    rows, pairs = np.zeros((count, b.shape[1]), dtype=complex), []
    for i, j in enumerate(range(j0, j0 + count)):
        n = 0
        for mu in range(len(b)):
            if 0 <= j - mu < len(c):
                rows[i] += b[mu] * c[j - mu]
                n += 1
        pairs.append(n)
    return rows, pairs


def _conv_tallies(nb, nc, j0, count, width, pairs, transformed):
    """cmul, cadd and axis_dft of _block_conv, counted pair by pair: the
    direct sum takes one multiplication per pair and one addition per
    further pair of a row; the block-axis path cuts both operands into
    chunks of the largest power of two c <= count, multiplies each chunk
    pair whose product (rows s*c..s*c+2c-2, s the sum of the chunk indices)
    meets the rows asked for at length L = 2c, adds the products of each
    offset s, inverts each offset once and adds where two offsets land on
    one row.  ``transformed`` is the number of chunks transformed forward
    in the call, None for the direct sum."""
    if transformed is None:
        return {"cmul": sum(pairs) * width, "cadd": sum(max(p - 1, 0) for p in pairs) * width}
    chunk = 1 << (count.bit_length() - 1)
    L, window = 2 * chunk, set(range(j0, j0 + count))
    offsets = {}
    for q in range(-(-nb // chunk)):
        for r in range(-(-nc // chunk)):
            s = q + r
            if window & set(range(s * chunk, s * chunk + L - 1)):
                offsets[s] = offsets.get(s, 0) + 1
    landed = [sum(s * chunk <= j < s * chunk + L - 1 for s in offsets) for j in window]
    return {"cmul": sum(offsets.values()) * L * width,
            "cadd": (sum(offsets.values()) - len(offsets)) * L * width
            + sum(max(n - 1, 0) for n in landed) * width,
            "axis_dft": (transformed + len(offsets)) * L * width}


def _check_conv(b, c, j0, count, led, transformed=0):
    """_block_conv against the pair loop, within 1e-14 per pair, and its
    tallies against the hand count of the path it took (``transformed``
    chunks made on the block-axis path); b and c are arrays or cache rows.
    Returns whether the block-axis path was taken."""
    bs = b.spec if hasattr(b, "spec") else b
    cs = c.spec if hasattr(c, "spec") else c
    before = dict(led.scalar)
    got = _block_conv(b, c, j0, count, led)
    want, n = _conv_loop(bs, cs, j0, count)
    assert got.shape == (count, bs.shape[1])
    for i in range(count):
        assert np.max(np.abs(got[i] - want[i]), initial=0) <= 1e-14 * n[i]
    tallies = {kind: led.scalar[kind] - before.get(kind, 0) for kind in led.scalar}
    axis = tallies.get("axis_dft", 0) > 0
    want_tallies = _conv_tallies(len(bs), len(cs), j0, count, bs.shape[1], n,
                                 transformed if axis else None)
    assert ({kind: v for kind, v in tallies.items() if v}
            == {kind: v for kind, v in want_tallies.items() if v})
    return axis


def test_block_sum_matches_pairwise_loop():
    """_block_conv against a loop over block pairs: rows starting below,
    at and above block 0, including rows no pair reaches and a count that
    runs past the end of both stacks; its pair counts and its tallies.
    At m/k >= 128 (block size 16, stacks of 144 blocks) a few rows with few
    pairs stay on the direct sum, one multiplication per pair and column,
    and the wide windows take the block-axis path, whose tallies are
    counted chunk pair by chunk pair: a stack's chunks are transformed on
    first use and kept, and a growing series' head chunk again once it
    gains a block."""
    rng, width = np.random.default_rng(14), 48
    b = disk(rng, 9 * width).reshape(9, width)
    c = disk(rng, 5 * width).reshape(5, width)
    for j0, count in ((-1, 16), (0, 1), (3, 4), (6, 20), (0, 0)):
        # a plain array's chunks are transformed in the call: one chunk each
        _check_conv(b, c, j0, count, CostLedger(), transformed=2)

    # series scaled by 1/k put every spectrum entry in the unit disk, as the
    # rows above are: the bound is per pair of such entries
    cache, *_ = _populated_cache(rng, K, NN, M, *(disk(rng, n) / K for n in (NN, M + NN, M + NN)))
    big_b, big_c = cache.rows("b"), cache.rows("c")
    led = CostLedger()
    # direct: a few rows of a few pairs each
    assert not _check_conv(big_b, big_c, 5, 3, led)
    assert not _check_conv(big_b, big_c, 200, 2, led)
    # block-axis, first use: every chunk of both stacks up to the offsets
    # used is transformed once and kept
    assert _check_conv(big_b, big_c, 127, 17, led, transformed=9 + 9)
    assert _check_conv(big_b, big_c, 130, 17, led, transformed=0)
    # j0 != 0 with a count past both stacks: rows 287..300 have no pair
    # (chunks of 64: both stacks' chunks 0..2 are new)
    assert _check_conv(big_b, big_c, 236, 65, led, transformed=3 + 3)

    # a growing head chunk: s holds blocks 0..62
    full = disk(rng, M) / K
    arr = np.zeros(M, dtype=complex)
    arr[:1008] = full[:1008]
    cache.register("s", arr, known=1008)
    cache.ensure("s", 62)
    # chunks of 16 blocks: s has 4 (the last one short); the chunks of c
    # are kept from above
    assert _check_conv(cache.rows("s"), big_c, 62, 17, led, transformed=4)
    arr[1008:1024] = full[1008:1024]
    cache.extend_known("s", 1024)
    cache.ensure("s", 63)
    # block 63 fills chunk 3: only that chunk is made again
    assert _check_conv(cache.rows("s"), big_c, 63, 17, led, transformed=1)


def test_block_axis_tallies_by_hand():
    """Block size 2 (rows of 6 columns), two stacks of 64 blocks, rows
    63..79: chunks of 16 blocks, transforms of length 32.  Offset 3 (chunk
    pairs (0,3)..(3,0)) lands on rows 48..78, offset 4 ((1,3)..(3,1)) on
    64..94; rows 64..78 take both."""
    rng = np.random.default_rng(17)
    cache = BlockCache(2)
    for label in ("b", "c"):
        cache.register(label, disk(rng, 128))
        cache.ensure(label, 63)
    led = CostLedger()
    _block_conv(cache.rows("b"), cache.rows("c"), 63, 17, led)
    assert led.scalar == {
        "axis_dft": (8 + 2) * 32 * 6,        # 4 + 4 chunks forward, 2 offsets back
        "cmul": (4 + 3) * 32 * 6,            # 7 chunk pairs
        "cadd": ((3 + 2) * 32 + 15) * 6,     # 5 sums of chunk pairs, 15 overlap rows
    }
    # again: the chunk transforms are kept, only the 2 inverses are new
    _block_conv(cache.rows("b"), cache.rows("c"), 63, 17, led)
    assert led.scalar["axis_dft"] == (8 + 4) * 32 * 6


def _first_use_chunks(nb, nc, j0, count):
    """Chunks the block-axis path transforms when neither stack keeps any:
    each stack's chunks 0..s, s the last landing offset whose rows meet
    rows j0..j0+count-1."""
    chunk = 1 << (count.bit_length() - 1)
    qb, qc = -(-nb // chunk), -(-nc // chunk)
    last = max((s for s in range(qb + qc - 1)
                if s * chunk < j0 + count and j0 < s * chunk + 2 * chunk - 1), default=-1)
    return min(qb, last + 1) + min(qc, last + 1)


def _takes_block_axis(nb, nc, j0, count, width):
    """_block_conv's rule: along the block axis for at least 8 rows of at
    most 1024 columns, some row of which (0 <= j <= nb+nc-2) has a pair."""
    return count >= 8 and width <= 1024 and j0 <= nb + nc - 2 and j0 + count > 0


def test_closed_form_pair_counts_match_the_rows():
    """_block_conv picks its path and finds its empty rows in closed form:
    row j has a pair exactly when 0 <= j <= nb+nc-2, and the pairs below
    row J count by inclusion-exclusion.  That count equals the per-row one,
    and over a grid of block counts and windows, starting below row 0 or
    running past row nb+nc-1, _block_conv takes the path its rule names and
    gives the pair loop's rows, exact zeros where no pair reaches, with the
    tallies counted pair by pair, on plain arrays and on cache rows, and on
    both paths."""
    for nb in range(7):
        for nc in range(7):
            for J in range(-3, nb + nc + 3):
                per_row = sum(max(0, min(nb - 1, j) - max(0, j - nc + 1) + 1) for j in range(J))
                assert block_engine._pairs_below(J, nb, nc) == per_row, (nb, nc, J)

    rng, paths = np.random.default_rng(21), {False: set(), True: set()}
    for nb, nc in ((1, 1), (3, 40), (40, 3), (17, 33), (64, 64)):
        for count in (0, 1, 5, 16, 40):
            for j0 in (-2, 7, nb + nc - 4, nb + nc - 1):
                # fresh cache rows, so the chunks are made in the call, as a
                # plain array's are
                cache = BlockCache(K)
                for label, n in (("b", nb), ("c", nc)):
                    cache.register(label, disk(rng, n * K) / K)
                    cache.ensure(label, n - 1)
                fresh = _first_use_chunks(nb, nc, j0, count) if count > 1 else 0
                rule = _takes_block_axis(nb, nc, j0, count, 3 * K)
                for cached in (False, True):
                    b, c = (cache.rows(x) if cached else cache.rows(x).spec.copy() for x in "bc")
                    axis = _check_conv(b, c, j0, count, CostLedger(), fresh)
                    assert axis == rule, (nb, nc, j0, count, cached)
                    paths[cached].add(axis)
    assert paths == {False: {False, True}, True: {False, True}}


def test_wide_rows_are_summed_directly():
    """Rows wider than 1024 columns take the direct sum however many are
    asked for; at 1024 columns the same sum runs along the block axis."""
    rng = np.random.default_rng(22)
    for width, axis in ((1024, True), (1026, False)):
        b, c = (disk(rng, 12 * width).reshape(12, width) / width for _ in "bc")
        for j0, count in ((0, 8), (5, 16)):
            assert _takes_block_axis(12, 12, j0, count, width) == axis
            fresh = _first_use_chunks(12, 12, j0, count)
            assert _check_conv(b, c, j0, count, CostLedger(), fresh) == axis, (width, j0)


def test_chunks_are_made_again_only_after_gaining_rows(monkeypatch):
    """Pinned fast_exp and fast_pow make the block-axis transform of a
    cached series' chunk again only after the chunk gained rows, so a fixed
    series' chunks are made exactly once."""
    real_spectra, real_dft = block_engine._Rows.chunk_spectra, block_engine._axis_dft
    made, seen, grown = {}, [], []

    def chunk_spectra(rows, chunk, count, ledger):
        seen.append(rows)
        try:
            return real_spectra(rows, chunk, count, ledger)
        finally:
            seen.pop()

    def axis_dft(spec, chunk, out, q0, ledger):
        series = seen[-1].series if seen else None
        for q in range(q0, q0 + len(out)) if series is not None else ():
            held = min(chunk, len(spec) - q * chunk)
            before = made.setdefault((series, chunk, spec.shape[1], q), [])
            assert not before or before[-1] < held, (chunk, q, before, held)
            before.append(held)
        return real_dft(spec, chunk, out, q0, ledger)

    monkeypatch.setattr(block_engine._Rows, "chunk_spectra", chunk_spectra)
    monkeypatch.setattr(block_engine, "_axis_dft", axis_dft)
    rng = np.random.default_rng(22)
    for N in (1000, 3000, 4096):
        h, g = exp_input(rng, N), pow_input(rng, N)
        for run in (lambda: fast_exp(h, N, plan=bench_plan("exp", N)),
                    lambda: fast_pow(g, 0.3 + 0.7j, N, plan=bench_plan("pow", N))):
            made.clear()
            run()
            assert made, N
            grown += [held for held in made.values() if len(held) > 1]
    # some head chunk did grow and was made again
    assert grown


# -- held arrays ----------------------------------------------------------------

def _in_fresh_thread(run):
    """run() on a new thread, whose held arrays start empty: its result, or
    its exception raised here."""
    out = []

    def target():
        try:
            out.append(run())
        except BaseException as exc:  # re-raised below, on the test's thread
            out.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0]


def _exp_pow(N, pinned, seed=31):
    """fast_exp and fast_pow (C = 0.3+0.7j) at order N on the CLI's inputs,
    on the pinned or the default plans, as calls of no argument."""
    rng = np.random.default_rng(seed)
    h, g = exp_input(rng, N), pow_input(rng, N)
    return (lambda: fast_exp(h, N, plan=bench_plan("exp", N) if pinned else None),
            lambda: fast_pow(g, 0.3 + 0.7j, N, plan=bench_plan("pow", N) if pinned else None))


@pytest.mark.parametrize("N, pinned", [(4096, True), (16384, False)])
def test_stale_held_arrays_are_never_read(N, pinned):
    """exp and pow give the same bits when every array the thread holds
    (block spectra, chunk transforms, pair sums, the Newton workspace) is
    filled with NaN between two calls: no call reads what another left."""
    def run():
        outs = []
        for call in _exp_pow(N, pinned):
            first = call().coeffs
            assert block_engine._local.arrays["blocks"].size  # the next call takes from it
            for held in block_engine._local.arrays.values():
                held.fill(np.nan)
            outs.append((first, call().coeffs))
        return outs

    for first, second in _in_fresh_thread(run):
        assert first.tobytes() == second.tobytes()


def test_live_caches_share_no_array():
    """A cache in a with block takes its spectrum rows and chunk transforms
    from the thread's held array; one made meanwhile, or made without with,
    gets arrays of its own, sharing no memory with the first's or the
    thread's.  Once the first's block ends, the next cache takes them."""
    rng = np.random.default_rng(32)

    def arrays(cache):
        for label in "bc":
            cache.register(label, disk(rng, 64 * K) / K)
            cache.ensure(label, 63)
        _block_conv(cache.rows("b"), cache.rows("c"), 63, 17)  # block axis: chunk transforms
        series = cache._series.values()
        return [s.spec for s in series] + [a for s in series for a, _ in s.axis.values()]

    def run():
        with BlockCache(K) as warm:
            arrays(warm)
        held = block_engine._local.arrays["blocks"]
        loose = arrays(BlockCache(K))
        assert not any(np.shares_memory(x, held) for x in loose)
        with BlockCache(K) as one:
            two = BlockCache(K)
            with BlockCache(K) as three:
                ones, twos, threes = arrays(one), arrays(two), arrays(three)
            assert len(ones) == len(twos) == len(threes) == 4
            assert all(np.shares_memory(x, held) for x in ones)
            assert not any(np.shares_memory(x, y) for x in ones + [held]
                           for y in twos + threes)
            assert block_engine._local.claimed  # three's block did not give one's back
        with BlockCache(K) as four:
            assert all(np.shares_memory(x, held) for x in arrays(four))
        return two

    _in_fresh_thread(run)


def test_a_cache_past_its_block_reads_nothing_stale():
    """A cache whose with block has ended drops its spectra, so a product
    asked of it after another call has reused the thread's arrays raises
    instead of reading that call's rows; its counts still answer."""
    rng = np.random.default_rng(33)
    exp, _ = _exp_pow(4096, True)

    def run():
        f, g, h = disk(rng, 4 * K), disk(rng, 6 * K), disk(rng, 6 * K)
        with BlockCache(K) as cache:
            for label, arr in zip("abc", (f, g, h)):
                cache.register(label, arr)
            q = triple_middle_product(cache, "a", "b", "c", 2 * K, 4 * K)
        assert rel_err(q.coeffs, oracle_middle(f, g, h, 2 * K, 4 * K).coeffs) < 1e-12
        exp()
        assert cache.high_water("b") == 5 and cache.known("b") == 6 * K
        with pytest.raises(DomainError, match="gave its spectra back"):
            triple_middle_product(cache, "a", "b", "c", 2 * K, 4 * K)
        for make in (cache.rows, lambda x: cache.ensure(x, 0), lambda x: cache.ensure_2k(x, 0)):
            with pytest.raises(DomainError, match=r"series 'c' gave its spectra back"):
                make("c")

    _in_fresh_thread(run)


def test_a_failed_call_gives_its_arrays_back(monkeypatch):
    """A call that raises inside its block work gives the thread's arrays
    back, although the traceback keeps its cache alive."""
    def fail(*args):
        raise RuntimeError("stop")

    monkeypatch.setattr(fast_ops, "_final_stage", fail)
    for call in _exp_pow(512, True):
        with pytest.raises(RuntimeError, match="stop"):
            call()
        assert not block_engine._local.claimed


def test_a_thread_holds_block_arrays_only_up_to_a_bound(monkeypatch):
    """With the bound on held block arrays lowered below what pinned exp and
    pow at 4096 take, the calls give the same bits, and the thread keeps no
    block array past the bound: the rest is made fresh per call."""
    want = [call().coeffs for call in _exp_pow(4096, True)]
    monkeypatch.setattr(block_engine, "_HELD_MOST", 1 << 12)

    def run():
        outs = [call().coeffs for call in _exp_pow(4096, True)]
        arrays = block_engine._local.arrays
        return outs, {key: arrays[key].size for key in ("blocks", "back", "term") if key in arrays}

    outs, sizes = _in_fresh_thread(run)
    assert [q.tobytes() for q in outs] == [q.tobytes() for q in want]
    assert sizes["blocks"] == 1 << 12 and max(sizes.values()) <= 1 << 12, sizes


def test_a_thread_keeps_no_more_than_its_largest_call():
    """What a thread holds after a pinned exp and then a pinned pow at 4096
    is no more than what the larger of the two holds alone."""
    exp, pow_ = _exp_pow(4096, True)

    def kept(*calls):
        def run():
            for call in calls:
                call()
            return sum(a.nbytes for a in block_engine._local.arrays.values())
        return _in_fresh_thread(run)

    alone = kept(exp), kept(pow_)
    assert 0 < kept(exp, pow_) <= max(alone), alone
