"""Shared helpers for the test suite."""

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
