import _thread
import sys
import threading

import numpy as np
import pytest

from fastseries import (
    CostLedger,
    KindMismatchError,
    Spectrum,
    UnsupportedLengthError,
    dft,
    dft_3k,
    double_dft,
    fft_core,
    granted_length,
    inverse_dft,
    inverse_double_dft,
    multiply,
)
from fastseries.fft_core import dft_pair, is_supported_length, zeta_for

from util import record_thread_starts, rel_err


SUPPORTED_SMALL = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128]


def test_granted_length():
    assert granted_length(1) == 1
    assert granted_length(5) == 6
    assert granted_length(7) == 8
    assert granted_length(48) == 48
    assert granted_length(50) == 64
    assert granted_length(100) == 128
    assert granted_length(97) == 128
    for n in range(1, 200):
        g = granted_length(n)
        assert g >= n and is_supported_length(g)
        assert g <= (3 * n) // 2 + 2  # overshoot stays below 3/2-ish


def test_unsupported_length():
    assert not is_supported_length(9)
    with pytest.raises(UnsupportedLengthError):
        dft([1, 0], 9)


def test_dft_examples():
    assert np.allclose(dft([1, 0], 2).values, [1, 1])
    assert np.allclose(dft([1, 1], 2).values, [2, 0])
    assert np.allclose(dft([0, 1, 0, 0], 4).values, [1, 1j, -1, -1j])


def test_dft_empty_is_zero():
    assert np.allclose(dft([], 4).values, np.zeros(4))


def test_inverse_dft_examples():
    assert np.allclose(inverse_dft(Spectrum(np.array([2.0, 0.0]), "plain")), [1, 1])
    assert np.allclose(inverse_dft(Spectrum(np.array([1.0, 1.0]), "plain")), [1, 0])
    assert np.allclose(
        inverse_dft(Spectrum(np.array([1, 1j, -1, -1j]), "plain")), [0, 1, 0, 0]
    )


def test_inverse_dft_kind_mismatch():
    s = double_dft([1, 1, 1], 2, 1)
    with pytest.raises(KindMismatchError):
        inverse_dft(s)


def test_double_dft_examples():
    assert np.allclose(double_dft([1, 1, 1], 2, 1).values, [3, 1, 1j])
    assert np.allclose(double_dft([1], 2, 1).values, [1, 1, 1])
    # x**2 evaluated at {1, -1, zeta, zeta*w2} with zeta**2 = i
    assert np.allclose(double_dft([0, 0, 1], 2, 2).values, [1, 1, 1j, 1j])


def test_double_dft_segments_are_residue_transforms():
    rng = np.random.default_rng(11)
    for l, k in ((8, 4), (16, 8), (4, 2)):
        p = rng.standard_normal(l + k) + 1j * rng.standard_normal(l + k)
        s = double_dft(p, l, k)
        fold = np.zeros(l, dtype=complex)
        for t in range(0, l + k, l):
            chunk = p[t : t + l]
            fold[: chunk.size] += chunk
        assert np.allclose(s.values[:l], dft(fold, l).values, atol=1e-12)
        zeta = zeta_for(k)
        rotated = p * zeta ** np.arange(l + k)
        foldk = np.zeros(k, dtype=complex)
        for t in range(0, l + k, k):
            chunk = rotated[t : t + k]
            foldk[: chunk.size] += chunk
        assert np.allclose(s.values[l:], dft(foldk, k).values, atol=1e-12)


def test_inverse_double_dft_examples():
    assert np.allclose(inverse_double_dft(double_dft([1, 1, 1], 2, 1)), [1, 1, 1])
    ones = Spectrum(np.ones(3, dtype=complex), "double", l=2, k=1)
    assert np.allclose(inverse_double_dft(ones), [1, 0, 0])


def test_inverse_double_dft_requires_l_eq_2k():
    s = double_dft([1, 2, 3], 2, 2)
    with pytest.raises(KindMismatchError):
        inverse_double_dft(s)


def test_double_roundtrip_random():
    rng = np.random.default_rng(5)
    for k in (1, 2, 4, 8, 16):
        p = rng.standard_normal(3 * k) + 1j * rng.standard_normal(3 * k)
        rec = inverse_double_dft(double_dft(p, 2 * k, k))
        assert rel_err(rec, p) < 1e-12


def test_dft_3k_examples():
    assert np.allclose(dft_3k([1], 1).values, [1, 1, 1])
    w3 = np.exp(2j * np.pi / 3)
    assert np.allclose(dft_3k([0, 1], 1).values, [1, w3, w3 ** 2])


def test_dft_3k_matches_plain():
    rng = np.random.default_rng(6)
    for k in (1, 2, 4, 8):
        p = rng.standard_normal(3 * k) + 1j * rng.standard_normal(3 * k)
        assert rel_err(dft_3k(p, k).values, dft(p, 3 * k).values) < 1e-12


def test_multiply_examples():
    assert np.allclose(multiply([1, 1], [1, 1]), [1, 2, 1])
    q = [3.0, -1.0, 2.5]
    assert np.allclose(multiply([1], q), q)
    assert np.allclose(multiply([1, -1], [1, 1, 1, 1]), [1, 0, 0, 0, -1])


def test_roundtrip_tolerance_up_to_64k():
    rng = np.random.default_rng(7)
    for L in (64, 96, 4096, 1 << 16):
        p = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        rec = inverse_dft(dft(p, L))
        assert np.max(np.abs(rec - p)) <= 1e-12 * np.max(np.abs(p))


def test_convolution_theorem():
    rng = np.random.default_rng(8)
    for _ in range(20):
        la = int(rng.integers(1, 60))
        lb = int(rng.integers(1, 60))
        a = rng.standard_normal(la) + 1j * rng.standard_normal(la)
        b = rng.standard_normal(lb) + 1j * rng.standard_normal(lb)
        L = granted_length(la + lb - 1)
        prod = inverse_dft(dft(a, L).pointwise(dft(b, L)))[: la + lb - 1]
        assert rel_err(prod, np.convolve(a, b)) < 1e-12


@pytest.mark.parametrize("threads", [False, True])
@pytest.mark.parametrize("L", [16, 3 << 12, 1 << 16])
def test_dft_pair_is_two_dft_calls(L, threads, monkeypatch):
    """dft_pair writes the values of dft(p) and dft(q) into the caller's
    arrays and returns them, on one thread or on two (the crossover patched
    below every length)."""
    monkeypatch.setattr(fft_core, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(fft_core, "_PAIR_MIN_ORDER", 1 if threads else 1 << 30)
    rng = np.random.default_rng(L)
    p, q = np.array([1, 1j]) @ rng.standard_normal((2, 2, L))
    q = q[: L // 2]
    wp, wq = dft(p, L), dft(q, L)
    a, b = np.empty(L, dtype=complex), np.empty(L, dtype=complex)
    sp, sq = dft_pair(p, q, L, a, b)
    assert sp is a and sq is b
    assert np.array_equal(a.view(float), wp.values.view(float))
    assert np.array_equal(b.view(float), wq.values.view(float))


def _paired(monkeypatch):
    """Patch the crossover below every length and record each thread start."""
    monkeypatch.setattr(fft_core, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(fft_core, "_PAIR_MIN_ORDER", 1)
    return record_thread_starts(monkeypatch)


def test_dft_pair_runs_alone_when_no_thread_can_start(monkeypatch):
    """A thread that cannot start leaves both transforms to the caller."""
    _paired(monkeypatch)

    def refuse(fn, args):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(_thread, "start_new_thread", refuse)
    p, q = np.arange(16) + 1j, np.ones(8)
    sp, sq = dft_pair(p, q, 16, np.empty(16, complex), np.empty(16, complex))
    assert np.array_equal(sp, dft(p, 16).values)
    assert np.array_equal(sq, dft(q, 16).values)


def test_dft_pair_starts_no_thread_while_the_interpreter_finalizes(monkeypatch):
    """While the interpreter finalizes, a started thread may never run, so
    both transforms run in the caller and no thread starts."""
    starts = _paired(monkeypatch)
    monkeypatch.setattr(sys, "is_finalizing", lambda: True)
    p, q = np.arange(16) + 1j, np.ones(8)
    sp, sq = dft_pair(p, q, 16, np.empty(16, complex), np.empty(16, complex))
    assert not starts
    assert np.array_equal(sp, dft(p, 16).values)
    assert np.array_equal(sq, dft(q, 16).values)


def test_dft_pair_raises_the_helpers_error(monkeypatch):
    """An error in the transform the started thread runs reaches the caller,
    who waited until that thread had started it."""
    starts = _paired(monkeypatch)
    caller, started, forward = threading.get_ident(), threading.Event(), fft_core._forward

    def failing(coeffs, L, out=None):
        if threading.get_ident() != caller:
            started.set()
            raise RuntimeError("helper transform failed")
        assert started.wait(30)
        return forward(coeffs, L, out)

    monkeypatch.setattr(fft_core, "_forward", failing)
    a, b = np.empty(16, dtype=complex), np.empty(16, dtype=complex)
    with pytest.raises(RuntimeError, match="helper transform failed"):
        dft_pair(np.ones(16), np.ones(8), 16, a, b)
    assert len(starts) == 1 and starts[0]["ident"] != caller


# The transforms as they were written before the leaf passed its scaling to
# pocketfft: numpy's normalized transforms, then a second pass by L or 1/L.

def _scaled_forward(c, L):
    values = np.fft.ifft(np.asarray(c, dtype=complex), n=L, axis=-1)
    values *= L
    return values


def _scaled_backward(v):
    coeffs = np.fft.fft(np.asarray(v, dtype=complex), axis=-1)
    coeffs /= coeffs.shape[-1]
    return coeffs


def _scaled_double(c, l, k):
    fold_l = np.zeros(c.shape[:-1] + (l,), dtype=complex)
    for t in range(0, c.shape[-1], l):
        chunk = c[..., t : t + l]
        fold_l[..., : chunk.shape[-1]] += chunk
    fold_k = np.zeros(c.shape[:-1] + (k,), dtype=complex)
    tw = 1.0 + 0j
    for t in range(0, c.shape[-1], k):
        chunk = c[..., t : t + k]
        fold_k[..., : chunk.shape[-1]] += tw * chunk
        tw *= 1j
    fold_k *= zeta_for(k) ** np.arange(k)
    return np.concatenate([_scaled_forward(fold_l, l), _scaled_forward(fold_k, k)], axis=-1)


def _scaled_inverse_double(values, k):
    r1 = _scaled_backward(values[..., : 2 * k])
    r2 = _scaled_backward(values[..., 2 * k :]) * zeta_for(k) ** -np.arange(k)
    top = -(r2 - (r1[..., :k] + 1j * r1[..., k:])) / 2
    low = r1.copy()
    low[..., :k] -= top
    return np.concatenate([low, top], axis=-1)


@pytest.mark.parametrize("L", [16, 1 << 12, 3 << 12, 1 << 16])
def test_leaf_matches_the_scaled_transforms(L):
    """Every transform, on one row and on a batch, and the leaf kernels in
    place and through a strided column view, equal numpy's normalized
    transform followed by the scaling pass: bit for bit at 2^a, where the
    scaling is exact, and to one rounding at 3*2^a."""
    def same(got, want):
        if L & (L - 1):
            assert rel_err(got, want) < 1e-15
        else:
            assert np.array_equal(np.asarray(got).view(float), np.asarray(want).view(float))

    k = L // 2
    rng = np.random.default_rng(L)
    batch = rng.standard_normal((3, L + k)) + 1j * rng.standard_normal((3, L + k))
    one = batch[0]
    for p in (one, batch):
        same(dft(p[..., :L], L).values, _scaled_forward(p[..., :L], L))
        same(dft(p[..., :k], L).values, _scaled_forward(p[..., :k], L))
        same(inverse_dft(Spectrum(p[..., :L], "plain")), _scaled_backward(p[..., :L]))
        same(double_dft(p, L, k).values, _scaled_double(p, L, k))
        same(double_dft(p[..., :k], L, k).values, _scaled_double(p[..., :k], L, k))
        same(inverse_double_dft(Spectrum(p, "double", l=L, k=k)), _scaled_inverse_double(p, k))

    # in place, as the Newton layer runs them
    buf = one[:L].copy()
    assert fft_core._forward(buf, L, buf) is buf
    same(buf, _scaled_forward(one[:L], L))
    assert fft_core._backward(buf, buf) is buf
    same(buf, _scaled_backward(_scaled_forward(one[:L], L)))

    # a strided view: the first 2k columns of a block cache's rows
    spec = np.zeros((3, L + k), dtype=complex)
    values = fft_core._forward(batch[:, :k], L, spec[:, :L])
    assert np.shares_memory(values, spec) and not spec[:, L:].any()
    same(spec[:, :L], _scaled_forward(batch[:, :k], L))
    same(fft_core._backward(spec[:, :L], spec[:, :L]),
         _scaled_backward(_scaled_forward(batch[:, :k], L)))


@pytest.mark.parametrize("L", [4, 32, 256])
def test_block_axis_leaves_keep_numpys_bits(L):
    """The block engine's transforms along axis 1 of a (chunks, L, width)
    stack, in place, equal np.fft.fft/ifft along that axis byte for byte;
    so does a short input written into a strided view of a wider stack."""
    rng = np.random.default_rng(L)
    x = rng.standard_normal((3, L, 5)) + 1j * rng.standard_normal((3, L, 5))
    for leaf, numpy_transform in ((fft_core._axis_forward, np.fft.fft),
                                  (fft_core._axis_backward, np.fft.ifft)):
        got = x.copy()
        assert leaf(got, got) is got
        assert got.tobytes() == numpy_transform(x, axis=1).tobytes()

        wide = np.zeros((3, L, 10), dtype=complex)
        view = wide[:, :, ::2]
        assert leaf(x[:, : L // 2], view) is view
        assert view.tobytes() == numpy_transform(x[:, : L // 2], n=L, axis=1).tobytes()
        assert not wide[:, :, 1::2].any()


def test_pointwise_kind_mismatch():
    a = dft([1, 2], 4)
    b = double_dft([1, 2], 2, 2)
    with pytest.raises(KindMismatchError):
        a.pointwise(b)


def test_ledger_accounting():
    led = CostLedger()
    dft_3k([1, 2, 3], 4, ledger=led)
    assert [ev.order for ev in led.events] == [4, 4, 4]

    led = CostLedger()
    double_dft([1, 2, 3], 8, 4, ledger=led)
    assert sorted(ev.order for ev in led.events) == [4, 8]

    led = CostLedger()
    inverse_double_dft(double_dft([1, 2, 3], 8, 4), ledger=led)
    assert sorted(ev.order for ev in led.events) == [4, 8]

    led = CostLedger()
    multiply([1, 1, 1], [1, 2], ledger=led)
    orders = [ev.order for ev in led.events]
    assert len(orders) == 3 and len(set(orders)) == 1
