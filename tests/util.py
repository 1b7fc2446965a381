"""Shared helpers for the test suite."""

import _thread

import numpy as np


def rel_err(got, want):
    """Max absolute difference scaled by 1 + max |reference coefficient|."""
    got = np.asarray(got, dtype=np.complex128).reshape(-1)
    want = np.asarray(want, dtype=np.complex128).reshape(-1)
    assert got.shape == want.shape, f"shape mismatch {got.shape} vs {want.shape}"
    if want.size == 0:
        return 0.0
    scale = 1.0 + float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale


def disk(rng, count, envelope=None):
    """Uniform samples from the closed unit disk, optionally damped."""
    r = np.sqrt(rng.uniform(0.0, 1.0, count))
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    z = r * np.exp(1j * phi)
    if envelope is not None:
        z = z * envelope
    return z


def random_exp_arg(rng, size, rho=0.9):
    h = np.zeros(size, dtype=np.complex128)
    h[1:] = disk(rng, size - 1, rho ** np.arange(1, size))
    return h


def random_pow_arg(rng, size, rho=0.5):
    h = np.zeros(size, dtype=np.complex128)
    h[0] = 1.0
    h[1:] = disk(rng, size - 1, rho ** np.arange(1, size))
    return h


def binomial_series(a, c, n):
    """(1 - a*x)**c mod x**n from t_j = t_{j-1} * (j-1-c) * a / j."""
    j = np.arange(1, n)
    t = np.ones(n, dtype=np.complex128)
    t[1:] = np.cumprod((j - 1 - c) * a / j)
    return t


def loop_inverse(c, n):
    """1/c mod x**n by the plain per-coefficient recurrence."""
    c = np.asarray(c, dtype=np.complex128)
    r = np.zeros(n, dtype=np.complex128)
    r[:1] = 1 / c[0]
    for j in range(1, n):
        t = min(j, c.size - 1)
        r[j] = -np.dot(c[1 : t + 1], r[j - t : j][::-1]) / c[0]
    return r


def loop_exp(h, n):
    """exp(h) mod x**n by the plain recurrence j*f_j = sum_i i*h_i*f_{j-i}."""
    ih = np.arange(len(h)) * np.asarray(h, dtype=np.complex128)
    f = np.zeros(n, dtype=np.complex128)
    f[:1] = 1
    for j in range(1, n):
        t = min(j, ih.size - 1)
        f[j] = np.dot(ih[1 : t + 1], f[j - t : j][::-1]) / j
    return f


def record_thread_starts(monkeypatch):
    """Wrap _thread.start_new_thread, with which fft_core._on_two_threads
    starts the thread of a transform pair or of the series writer, and
    return the list of starts: one dict per thread, with the target's
    thread ident and "done", which the target's finally sets."""
    starts, start = [], _thread.start_new_thread

    def recorded(fn, args):
        record = {"done": False}
        starts.append(record)

        def target():
            record["ident"] = _thread.get_ident()
            try:
                fn(*args)
            finally:
                record["done"] = True

        return start(target, ())

    monkeypatch.setattr(_thread, "start_new_thread", recorded)
    return starts
