import numpy as np
import pytest

from fastseries import (
    DomainError,
    derivative,
    mul_mod,
    oracle_exp,
    oracle_inverse,
    oracle_log,
    oracle_middle,
    oracle_pow,
)

from util import (
    binomial_series,
    disk,
    loop_exp,
    loop_inverse,
    random_exp_arg,
    random_pow_arg,
    rel_err,
)

# the blocked recurrences take b = 32 coefficients a block up to order 512,
# 64 above; the recurrence runs alone up to 2b (inverse) and 4b (exp): around
# one block, past each threshold, and two orders in 64-blocks
BLOCK_ORDERS = [1, 2, 31, 32, 33, 67, 129, 131, 1000, 2048]
# |a| = 1 keeps every coefficient of the closed forms live
CLOSED_FORM_A = np.exp(0.6j * np.pi)


def test_inverse_examples():
    assert np.allclose(oracle_inverse([1, -1], 4).coeffs, [1, 1, 1, 1])
    got = oracle_inverse([1], 5).coeffs
    assert np.allclose(got, [1, 0, 0, 0, 0])
    assert np.allclose(oracle_inverse([1, 1], 4).coeffs, [1, -1, 1, -1])
    with pytest.raises(DomainError):
        oracle_inverse([0, 1], 3)


def test_exp_examples():
    assert np.allclose(oracle_exp([0, 1], 4).coeffs, [1, 1, 0.5, 1 / 6])
    assert np.allclose(oracle_exp([0], 3).coeffs, [1, 0, 0])
    # recurrence by hand: j*f_j = sum_i i*h_i*f_{j-i} for h = x + x**2
    assert np.allclose(oracle_exp([0, 1, 1], 4).coeffs, [1, 1, 1.5, 7 / 6])
    with pytest.raises(DomainError):
        oracle_exp([1, 1], 3)


def test_log_examples():
    assert np.allclose(oracle_log([1, 1], 4).coeffs, [0, 1, -0.5, 1 / 3])
    assert np.allclose(oracle_log([1], 4).coeffs, np.zeros(4))
    assert np.allclose(oracle_log([1, -1], 4).coeffs, [0, -1, -0.5, -1 / 3])
    with pytest.raises(DomainError):
        oracle_log([2, 1], 3)


def test_pow_examples():
    assert np.allclose(oracle_pow([1, 1], 2, 3).coeffs, [1, 2, 1])
    assert np.allclose(oracle_pow([1, 0.5, -0.25], 0, 4).coeffs, [1, 0, 0, 0])
    assert np.allclose(oracle_pow([1, 1], 0.5, 3).coeffs, [1, 0.5, -0.125])
    with pytest.raises(DomainError):
        oracle_pow([1.5, 1], 2, 3)


def test_middle_examples():
    assert np.allclose(oracle_middle([1], [1, 1], [1, 1], 1, 2).coeffs, [2, 1])
    rng = np.random.default_rng(0)
    f = disk(rng, 5)
    g = disk(rng, 5)
    h = disk(rng, 5)
    plain = oracle_middle(f, g, h, 0, 6).coeffs
    want = np.convolve(f, np.convolve(g, h))[:6]
    assert np.allclose(plain, want)
    assert np.allclose(oracle_middle([1, 1], [0, 1], [0, 1], 2, 1).coeffs, [1])


def test_exp_log_roundtrips():
    rng = np.random.default_rng(1)
    for n in (16, 64, 256):
        h = np.zeros(n, dtype=complex)
        h[1:] = disk(rng, n - 1)
        f = oracle_exp(h, n)
        back = oracle_log(f, n)
        assert rel_err(back.coeffs, h) < 1e-10
        # the 0.5**i envelope keeps all zeros of g outside the unit disk,
        # which the log to exp direction needs for a well-conditioned check
        g = np.zeros(n, dtype=complex)
        g[0] = 1
        g[1:] = disk(rng, n - 1, 0.5 ** np.arange(1, n))
        back2 = oracle_exp(oracle_log(g, n), n)
        assert rel_err(back2.coeffs, g) < 1e-10


def test_pow_additivity_and_identity():
    rng = np.random.default_rng(2)
    n = 64
    h = np.zeros(n, dtype=complex)
    h[0] = 1
    h[1:] = disk(rng, n - 1, 0.7 ** np.arange(1, n))
    c1, c2 = 0.5 + 0.25j, -1.25 + 0.5j
    lhs = oracle_pow(h, c1 + c2, n).coeffs
    rhs = mul_mod(oracle_pow(h, c1, n), oracle_pow(h, c2, n), n).coeffs
    assert rel_err(rhs, lhs) < 1e-9
    assert np.allclose(oracle_pow(h, 1, n).coeffs, h)


def test_pow_integer_matches_repeated_multiplication():
    rng = np.random.default_rng(3)
    n = 48
    h = np.zeros(n, dtype=complex)
    h[0] = 1
    h[1:] = disk(rng, n - 1, 0.7 ** np.arange(1, n))
    prod = np.zeros(n, dtype=complex)
    prod[0] = 1
    for _ in range(3):
        prod = np.convolve(prod, h)[:n]
    assert rel_err(oracle_pow(h, 3, n).coeffs, prod) < 1e-12


def test_exp_satisfies_its_ode():
    rng = np.random.default_rng(4)
    n = 96
    h = np.zeros(n, dtype=complex)
    h[1:] = disk(rng, n - 1)
    f = oracle_exp(h, n)
    lhs = derivative(f).coeffs
    rhs = np.convolve(f.coeffs, derivative(h).coeffs)[: n - 1]
    assert rel_err(lhs, rhs) < 1e-10


@pytest.mark.parametrize("n", BLOCK_ORDERS)
def test_blocked_exp_matches_the_plain_recurrence(n):
    h = random_exp_arg(np.random.default_rng(n), n)
    got, want = oracle_exp(h, n).coeffs, loop_exp(h, n)
    if n <= 32:  # the first block is the recurrence itself
        assert np.array_equal(got, want)
    assert rel_err(got, want) < 1e-13


@pytest.mark.parametrize("n", BLOCK_ORDERS)
def test_blocked_inverse_matches_the_plain_recurrence(n):
    f = random_pow_arg(np.random.default_rng(n), n, rho=0.9)
    f[0] = 2 - 1j
    got, want = oracle_inverse(f, n).coeffs, loop_inverse(f, n)
    if n <= 32:
        assert np.array_equal(got, want)
    assert rel_err(got, want) < 1e-13


@pytest.mark.parametrize("size, n", [(1, 200), (5, 200), (40, 1000), (3000, 1000)])
def test_blocked_recurrences_take_inputs_shorter_and_longer_than_n(size, n):
    rng = np.random.default_rng(size)
    h = random_exp_arg(rng, size)
    assert rel_err(oracle_exp(h, n).coeffs, loop_exp(h[:n], n)) < 1e-13
    f = random_pow_arg(rng, size, rho=0.9)
    f[0] = -0.5 + 1.5j
    assert rel_err(oracle_inverse(f, n).coeffs, loop_inverse(f[:n], n)) < 1e-13


@pytest.mark.parametrize("c", [0.5 + 0.3j, 0.25 - 0.4j, -1.2])
def test_blocked_recurrences_closed_forms(c):
    """1/(1 - a*x)**c and exp(c * sum a**j x**j / j) are (1 - a*x)**(-c)."""
    n = 2048
    want = binomial_series(CLOSED_FORM_A, -c, n)
    inv = oracle_inverse(binomial_series(CLOSED_FORM_A, c, n), n).coeffs
    assert rel_err(inv, want) < 1e-13
    h = np.zeros(n, dtype=complex)
    h[1:] = c * CLOSED_FORM_A ** np.arange(1, n) / np.arange(1, n)
    assert rel_err(oracle_exp(h, n).coeffs, want) < 1e-13


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("a", [15, 20, 30, -30, 30j, 100])
def test_blocked_exp_large_linear_exponent(a, n):
    """exp(a*x) = sum a**j/j! x**j: the recurrence meets no cancellation
    there, so the blocks must add none, however large the coefficients."""
    h = np.zeros(n, dtype=complex)
    h[1] = a
    want = np.cumprod(np.r_[1, a / np.arange(1, n)])
    assert rel_err(oracle_exp(h, n).coeffs, want) < 1e-14


@pytest.mark.parametrize("scale", [10, 20, 30, 40])
def test_blocked_exp_matches_the_recurrence_on_large_random_exponents(scale):
    """Five complex coefficients of size about scale: the blocks agree with
    the recurrence where a factored block solve would overflow."""
    n = 1024
    h = np.zeros(n, dtype=complex)
    h[1:6] = scale * disk(np.random.default_rng(scale), 5)
    assert rel_err(oracle_exp(h, n).coeffs, loop_exp(h, n)) < 1e-13


@pytest.mark.parametrize("C", [40, -40, 40.5])
def test_blocked_exp_large_power_of_a_binomial(C):
    """exp(C*log(1 + x)) = (1 + x)**C, with coefficients up to about 1e11
    and alternating log coefficients."""
    n = 1024
    j = np.arange(1, n)
    h = np.zeros(n, dtype=complex)
    h[1:] = C * (-1.0) ** (j + 1) / j
    assert rel_err(oracle_exp(h, n).coeffs, binomial_series(-1, C, n)) < 1e-13


@pytest.mark.parametrize("a", [12, 14])
def test_blocked_inverse_loses_no_more_than_the_recurrence(a):
    """1/exp(a*x) cancels in every coefficient, and the recurrence loses
    digits to it; the blocks may lose as many, not more."""
    n = 512
    c = np.cumprod(np.r_[1, a / np.arange(1, n)])
    want = np.cumprod(np.r_[1, -a / np.arange(1, n)])
    loop = rel_err(loop_inverse(c, n), want)
    assert rel_err(oracle_inverse(c, n).coeffs, want) <= 10 * loop
