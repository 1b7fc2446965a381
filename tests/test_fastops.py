from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastseries import (
    BlockCache,
    BlockPlan,
    CostLedger,
    DomainError,
    PlanError,
    choose_plan,
    derivative,
    dft,
    fast_exp,
    fast_inverse,
    fast_log,
    fast_pow,
    inverse_dft,
    mul_mod,
    oracle_exp,
    oracle_inverse,
    oracle_log,
    oracle_pow,
)
from fastseries import block_engine, cli, fast_ops
from fastseries.block_engine import frontier
from fastseries.cost_ledger import main_term_units, tally
from fastseries.fast_ops import bench_plan

from util import random_exp_arg, random_pow_arg, rel_err

PLAN_SMALL = BlockPlan(k=2, n=4, m=16)


def _spy(monkeypatch, name):
    """The calls a driver makes to the private step fast_ops.<name>, as
    (arguments, result) pairs, recorded while the test runs."""
    calls = []
    step = getattr(fast_ops, name)

    def spy(*args, **kwargs):
        calls.append((args, step(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(fast_ops, name, spy)
    return calls


def test_fast_inverse_examples():
    assert np.allclose(fast_inverse([1, -1], 8).coeffs, np.ones(8))
    assert np.allclose(fast_inverse([2], 4).coeffs, [0.5, 0, 0, 0])
    rng = np.random.default_rng(0)
    f = random_pow_arg(rng, 64)
    got = fast_inverse(f, 64).coeffs
    want = oracle_inverse(f, 64).coeffs
    assert rel_err(got, want) < 1e-10
    with pytest.raises(DomainError):
        fast_inverse([0, 1], 4)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 1000, 3000])
def test_newton_layer_matches_oracle(N):
    rng = np.random.default_rng(N)
    f = random_pow_arg(rng, N)
    g = f.copy()
    g[0] = 2.0 - 1.5j
    assert rel_err(fast_inverse(g, N).coeffs, oracle_inverse(g, N).coeffs) < 1e-10
    assert rel_err(fast_inverse(f, N).coeffs, oracle_inverse(f, N).coeffs) < 1e-10
    assert rel_err(fast_log(f, N).coeffs, oracle_log(f, N).coeffs) < 1e-10


@pytest.mark.parametrize("N", [1, 2, 3, 5, 12, 16])
def test_newton_base_is_the_reference(N):
    """Up to NEWTON_BASE_ORDER the inverse is the coefficient recurrence
    alone: oracle_inverse's bits, and no transform event."""
    assert N <= fast_ops.NEWTON_BASE_ORDER
    g = random_pow_arg(np.random.default_rng(N), 40)
    g[0] = 2.0 - 1.5j
    for f in (g, [1, -1]):
        led = CostLedger()
        got = fast_inverse(f, N, ledger=led).coeffs
        assert got.tobytes() == oracle_inverse(f, N).coeffs.tobytes()
        assert led.events == []


def test_one_newton_step_is_five_transforms_and_two_products():
    """At order 32 one Newton step follows the base of order 16.  It gives
    the bits, events and scalar counts of the same step written with dft,
    pointwise and inverse_dft calls."""
    n, b = 32, fast_ops.NEWTON_BASE_ORDER
    assert b == 16
    g = random_pow_arg(np.random.default_rng(32), n)
    g[0] = 0.5 + 1j
    led = CostLedger()
    got = fast_inverse(g, n, ledger=led).coeffs

    want, ref = CostLedger(), oracle_inverse(g, b).coeffs
    with want.stage("inverse"):
        tally(want, cmul=(b - 1) * b // 2, cadd=(b - 1) * b // 2)
        r_spec = dft(ref, n, ledger=want, label="newton")
        f_spec = dft(g, n, ledger=want, label="newton")
        e = inverse_dft(f_spec.pointwise(r_spec, ledger=want), ledger=want, label="newton")
        e_spec = dft(e[b:n], n, ledger=want, label="newton")
        upper = -inverse_dft(r_spec.pointwise(e_spec, ledger=want), ledger=want, label="newton")
    assert got.tobytes() == np.concatenate([ref, upper[: n - b]]).tobytes()
    assert led.events == want.events
    assert led.scalar == want.scalar


def test_exp_first_half_known_series(monkeypatch):
    h = np.zeros(32, dtype=complex)
    h[1] = 1
    first = _spy(monkeypatch, "_first_half")
    fast_exp(h, 32, plan=PLAN_SMALL)
    (cache, *_), fm = first[0]
    want = np.array([1 / factorial(i) for i in range(16)])
    assert rel_err(fm, want) < 1e-12
    assert cache.high_water("f") == 16 // 2 - 1


def test_exp_first_half_zero_argument(monkeypatch):
    h = np.zeros(16, dtype=complex)
    first = _spy(monkeypatch, "_first_half")
    out = fast_exp(h, 32, plan=PLAN_SMALL).coeffs
    want = np.zeros(32)
    want[0] = 1
    assert np.allclose(first[0][1], want[:16])
    assert np.allclose(out, want)


def test_exp_first_half_accepts_exactly_m_coefficients(monkeypatch):
    rng = np.random.default_rng(21)
    h = random_exp_arg(rng, 32)
    first = _spy(monkeypatch, "_first_half")
    fast_exp(h[:16], 32, plan=PLAN_SMALL)
    fast_exp(h, 32, plan=PLAN_SMALL)
    (_, short), (_, full) = first
    assert rel_err(short, full) < 1e-12


def test_exp_first_half_block_transform_budget():
    h = np.zeros(32, dtype=complex)
    h[1] = 1
    led = CostLedger()
    fast_exp(h, 32, plan=PLAN_SMALL, ledger=led)
    mk = PLAN_SMALL.ratio
    assert led.units_for(PLAN_SMALL.k, stage="exp.stage1", label="f") == 3 * mk
    assert led.units_for(PLAN_SMALL.k, stage="exp.stage1", label="dh") == 3 * mk


def test_log_extend_matches_reference_log_derivative(monkeypatch):
    plan = BlockPlan(k=2, n=4, m=8)
    h = np.zeros(16, dtype=complex)
    h[1] = 1
    first, log = _spy(monkeypatch, "_first_half"), _spy(monkeypatch, "_log_extend")
    fast_exp(h, 16, plan=plan)
    padded = np.zeros(16, dtype=complex)
    padded[:8] = first[0][1]
    want = np.arange(16) * oracle_log(padded, 16).coeffs  # x * (log f)'
    assert rel_err(log[0][1], want) < 1e-10


def test_log_extend_constant_one_gives_zero(monkeypatch):
    plan = BlockPlan(k=2, n=4, m=8)
    h = np.zeros(16, dtype=complex)
    log = _spy(monkeypatch, "_log_extend")
    fast_exp(h, 16, plan=plan)
    assert np.allclose(log[0][1], np.zeros(16))


def test_log_extend_unit_band_at_ratio_32():
    plan = BlockPlan(k=16, n=64, m=512)
    rng = np.random.default_rng(1)
    h = random_exp_arg(rng, 1024)
    led = CostLedger()
    fast_exp(h, 1024, plan=plan, ledger=led)
    per_mk = float(led.units_for(plan.k, stage="exp.log")) / plan.ratio
    assert 6 <= per_mk <= 8


def test_fast_exp_known_series():
    h = np.zeros(32, dtype=complex)
    h[1] = 1
    out = fast_exp(h, 32, plan=PLAN_SMALL)
    want = np.array([1 / factorial(i) for i in range(32)])
    assert np.max(np.abs(out.coeffs - want)) <= 1e-12


LARGE_AMPLITUDES = [(2048, 15), (2048, 20), (4096, 12)]
LARGE_AMPLITUDES += [(N, a) for N in (2048, 4096, 16384) for a in (10, 15, 20, 30, 30j)
                     if (N, a) not in LARGE_AMPLITUDES]


@pytest.mark.parametrize("N, a", LARGE_AMPLITUDES)
def test_fast_exp_large_linear_exponent(N, a):
    """exp(a*x) = sum a**j/j! x**j on the default plan, whose bootstrap
    prefix comes from oracle_exp.  From a = 10 on, its reciprocal prefix
    comes from exp(-a*x): inverting the prefix would cancel."""
    h = np.zeros(N, dtype=complex)
    h[1] = a
    want = np.cumprod(np.r_[1, a / np.arange(1, N)])
    assert rel_err(fast_exp(h, N).coeffs, want) < 1e-14


@pytest.mark.parametrize("a, tripped", [(8, False), (10, True)])
def test_reciprocal_gate_on_each_side(a, tripped, monkeypatch):
    """fast_exp's bootstrap takes 1/exp(a*x) mod x**n from the inverse
    while max|f_n| * max|r_n| stays within RECIPROCAL_GROWTH_MAX, and from
    exp(-a*x) above it."""
    N = 2048
    n = choose_plan(N).n
    h = np.zeros(N, dtype=complex)
    h[1] = a
    f_n = oracle_exp(h, n).coeffs
    growth = np.max(np.abs(f_n)) * np.max(np.abs(oracle_inverse(f_n, n).coeffs))
    assert (growth > fast_ops.RECIPROCAL_GROWTH_MAX) == tripped
    calls = _spy(monkeypatch, "_prefix_exp")
    got = fast_exp(h, N).coeffs
    assert [args[1] for args, _ in calls] == ([n, n] if tripped else [n])
    if tripped:
        assert np.array_equal(calls[1][0][0], -h[:n])
    assert rel_err(got, np.cumprod(np.r_[1, a / np.arange(1, N)])) < 1e-14


@pytest.mark.parametrize("N", [2048, 4096, 16384])
@pytest.mark.parametrize("C", [10, 15, 20])
def test_fast_pow_large_exponent_of_exp(N, C):
    """exp(x)**C = exp(C*x): the prefix h**C mod x**n is exp(C*x), and its
    reciprocal comes from exp(-C*x) above the growth gate."""
    e = np.zeros(N, dtype=complex)
    e[:171] = np.cumprod(np.r_[1, 1 / np.arange(1, 171)])  # 1/170! is the last normal
    want = np.cumprod(np.r_[1, C / np.arange(1, N)])
    assert rel_err(fast_pow(e, C, N).coeffs, want) < 1e-14


def test_fast_exp_random_vs_oracle():
    rng = np.random.default_rng(2)
    h = random_exp_arg(rng, 1024)
    got = fast_exp(h, 1024).coeffs
    want = oracle_exp(h, 1024).coeffs
    assert rel_err(got, want) < 1e-8


def test_fast_exp_total_budget_at_ratio_32():
    plan = BlockPlan(k=16, n=64, m=512)
    rng = np.random.default_rng(3)
    h = random_exp_arg(rng, 1024)
    led = CostLedger()
    fast_exp(h, 1024, plan=plan, ledger=led)
    total = float(main_term_units(led, plan.k)) / plan.ratio
    assert total <= 26


def test_fast_exp_rejects_bad_constant_term():
    with pytest.raises(DomainError):
        fast_exp([1, 1], 8)


def test_fast_exp_rejects_non_finite_coefficients():
    h = random_exp_arg(np.random.default_rng(30), 256)
    h[7] = np.nan
    with pytest.raises(DomainError):
        fast_exp(h, 256)


def test_fast_pow_rejects_non_finite_input():
    g = random_pow_arg(np.random.default_rng(31), 256)
    with pytest.raises(DomainError):
        fast_pow(g, np.nan, 256)
    g[9] = np.inf
    with pytest.raises(DomainError):
        fast_pow(g, 0.5, 256)


def test_fast_inverse_rejects_non_finite_coefficients():
    g = random_pow_arg(np.random.default_rng(32), 256)
    g[9] = complex(0, np.inf)
    with pytest.raises(DomainError):
        fast_inverse(g, 256)


def test_fast_log_rejects_non_finite_coefficients():
    g = random_pow_arg(np.random.default_rng(33), 256)
    g[255] = -np.inf
    with pytest.raises(DomainError):
        fast_log(g, 256)


def test_overflowing_results_are_rejected():
    # (1 - 1.5x)**C has coefficients near 1.5**j, past complex128 by j ~ 1750;
    # at 2**14 the overflow happens inside the recursive bootstrap prefix.
    with np.errstate(all="ignore"):
        for N in (2048, 1 << 14):
            with pytest.raises(DomainError, match="overflow"):
                fast_pow([1, -1.5], 0.5, N)
        with pytest.raises(DomainError, match="overflow"):
            fast_inverse([1, -1.5], 2048)
        # 1/h overflows at once; the bootstrap's prefix inverse must say so
        for N in (64, 1024):
            with pytest.raises(DomainError, match="overflow"):
                fast_pow([1, -1e200], 0.5, N)


def test_fast_exp_odd_order_truncates():
    rng = np.random.default_rng(4)
    h = random_exp_arg(rng, 100)
    got = fast_exp(h, 100, plan=choose_plan(100)).coeffs
    want = oracle_exp(h, 100).coeffs
    assert got.size == 100
    assert rel_err(got, want) < 1e-10


def _s_iteration(h, rho, seed, C):
    """fast_ops._s_iteration on PLAN_SMALL and a fresh cache, for h of order
    2m = 32: s = x*C*h'/h mod x**32."""
    dh = np.arange(h.size) * h
    return fast_ops._s_iteration(BlockCache(2), PLAN_SMALL, CostLedger(), h, dh, rho, seed,
                                 complex(C))


def test_s_iteration_geometric():
    # h = 1 + x, C = 2: s = 2/(1+x)
    h = np.zeros(32, dtype=complex)
    h[0] = 1
    h[1] = 1
    rho = oracle_inverse(h[:4], 4).coeffs
    seed = 2 * np.convolve(np.arange(1, 4) * h[1:4], rho)[:3]
    s = _s_iteration(h, rho, seed, 2)
    want = np.r_[0, 2.0 * (-1.0) ** np.arange(31)]
    assert rel_err(s, want) < 1e-12


def test_s_iteration_constant_input():
    h = np.zeros(32, dtype=complex)
    h[0] = 1
    rho = oracle_inverse(h[:4], 4).coeffs
    seed = np.zeros(3, dtype=complex)
    s = _s_iteration(h, rho, seed, 5 + 2j)
    assert np.allclose(s, np.zeros(32))


def test_s_iteration_random_vs_composed_reference():
    rng = np.random.default_rng(5)
    C = 0.5 + 0.25j
    h = random_pow_arg(rng, 32)
    rho = oracle_inverse(h[:4], 4).coeffs
    seed = C * np.convolve(np.arange(1, 4) * h[1:4], rho)[:3]
    s = _s_iteration(h, rho, seed, C)
    want = C * mul_mod(derivative(h[:32]), oracle_inverse(h, 31), 31).coeffs
    assert rel_err(s, np.r_[0, want]) < 1e-9


def test_fast_pow_binomial():
    h = np.zeros(8, dtype=complex)
    h[0] = 1
    h[1] = 1
    got = fast_pow(h, 3, 8).coeffs  # small order takes the fallback path
    want = np.zeros(8)
    want[:4] = [1, 3, 3, 1]
    assert np.allclose(got, want)
    got = fast_pow(np.concatenate([h, np.zeros(24)]), 3, 32, plan=PLAN_SMALL).coeffs
    want = np.zeros(32)
    want[:4] = [1, 3, 3, 1]
    assert rel_err(got, want) < 1e-12


def test_fast_pow_exponent_shortcuts():
    rng = np.random.default_rng(6)
    h = random_pow_arg(rng, 16)
    got = fast_pow(h, 0, 16).coeffs
    assert np.allclose(got, np.eye(1, 16, 0)[0])
    assert np.array_equal(fast_pow(h, 1, 16).coeffs, h)


def test_fast_pow_inverse_exponent():
    rng = np.random.default_rng(7)
    h = random_pow_arg(rng, 512)
    got = fast_pow(h, -1, 512).coeffs
    want = oracle_inverse(h, 512).coeffs
    assert rel_err(got, want) < 1e-8


def test_fast_pow_requires_unit_constant_term():
    with pytest.raises(DomainError):
        fast_pow([2, 1], 2, 8)


def test_pow_exponent_must_be_finite():
    with pytest.raises(DomainError):
        fast_pow([1, 1], float("inf"), 8)


def test_choose_plan_rule():
    """choose_plan(N) is a table of the frontier m: m/k and m/n are 4 and 2
    for m = 2^a up to 2^16, 8 and 2 above, 6 and 3 for m = 3*2^a.  Checked
    at the least and the greatest order of every frontier up to 2^20."""
    plan = choose_plan(1024)
    assert (plan.k, plan.n, plan.m) == (128, 256, 512)
    assert plan.target == 1024
    frontiers = sorted(c << a for c in (1, 3) for a in range(3, 21) if c << a <= 1 << 20)
    for below, m in zip(frontiers, frontiers[1:]):
        if m & (m - 1):
            mk, mn = 6, 3
        else:
            mk, mn = (8, 2) if m > 1 << 16 else (4, 2)
        for N in (2 * below + 1, 2 * m):
            if N < fast_ops.FAST_MIN_ORDER:
                continue
            assert frontier(N) == m
            assert choose_plan(N) == BlockPlan(k=m // mk, n=m // mn, m=m), N
            assert choose_plan(N).n % (2 * choose_plan(N).k) == 0, N


def test_choose_plan_small_orders_fall_back():
    plan = choose_plan(16)
    assert plan.fallback
    out = fast_exp([0, 1] + [0] * 14, 16)
    want = oracle_exp([0, 1], 16).coeffs
    assert rel_err(out.coeffs, want) < 1e-12


def test_fallback_plan_is_the_quadratic_reference_at_any_order():
    """A fallback plan means the quadratic reference in both ops, also when
    passed by hand at an order above ORACLE_MAX_ORDER."""
    rng = np.random.default_rng(23)
    N = fast_ops.ORACLE_MAX_ORDER + 512
    plan = BlockPlan(k=0, n=0, m=0, fallback=True)
    h = random_exp_arg(rng, N)
    got = fast_exp(h, N, plan=plan).coeffs
    assert got.tobytes() == oracle_exp(h, N).coeffs.tobytes()
    h = random_pow_arg(rng, N)
    got = fast_pow(h, 0.5, N, plan=plan).coeffs
    assert got.tobytes() == oracle_pow(h, 0.5, N).coeffs.tobytes()


def test_bench_plan_overrides_verbatim():
    for op in ("exp", "pow"):
        assert bench_plan(op, 1024, k=16, n=128) == BlockPlan(k=16, n=128, m=512)
        with pytest.raises(PlanError):
            bench_plan(op, 1024, k=16, n=100)
        for k in (-2, 0, 1):  # below 2, as BlockPlan requires, with or without n
            for n in (None, 16):
                with pytest.raises(PlanError):
                    bench_plan(op, 64, k=k, n=n)
        with pytest.raises(PlanError):
            bench_plan(op, 16, k=0)  # an override has no small-order fallback
    assert bench_plan("exp", 1024, k=16, n=16) == BlockPlan(k=16, n=16, m=512)
    with pytest.raises(PlanError, match="no valid block size"):
        bench_plan("pow", 1024, k=16, n=16)  # 2k must divide n


def test_bench_plan_bootstrap_only_override():
    """With n alone, k halves from 16 until it divides n (2k for pow)."""
    assert bench_plan("exp", 1024, n=128) == BlockPlan(k=16, n=128, m=512)
    assert bench_plan("exp", 1024, n=16) == BlockPlan(k=16, n=16, m=512)
    assert bench_plan("pow", 1024, n=16) == BlockPlan(k=8, n=16, m=512)
    assert bench_plan("pow", 384, n=96) == BlockPlan(k=16, n=96, m=192)
    assert bench_plan("exp", 1024, n=4) == BlockPlan(k=4, n=4, m=512)
    with pytest.raises(PlanError, match="must divide frontier"):
        bench_plan("exp", 1024, n=96)
    for op, n in (("exp", 3), ("pow", 6)):
        with pytest.raises(PlanError, match="no valid block size"):
            bench_plan(op, 1024, n=n)
    for op in ("exp", "pow"):
        for kw in ({"n": -4}, {"k": 4, "n": 0}):
            with pytest.raises(PlanError, match="must be positive"):
                bench_plan(op, 1024, **kw)


def test_plan_below_the_order_is_rejected():
    """A plan reaching order 2m < N must not return fewer than N coefficients."""
    rng = np.random.default_rng(22)
    small = BlockPlan(k=16, n=64, m=256)
    with pytest.raises(PlanError):
        fast_exp(random_exp_arg(rng, 1024), 1024, plan=small)
    with pytest.raises(PlanError):
        fast_pow(random_pow_arg(rng, 1024), 0.5, 1024, plan=small)
    assert fast_exp(random_exp_arg(rng, 512), 512, plan=small).coeffs.size == 512


SMOOTH = [2**a * b for a in range(9) for b in (1, 3) if 2**a * b <= 256]


@settings(max_examples=100, deadline=None)
@given(N=st.integers(1, 300),
       k=st.one_of(st.none(), st.integers(1, 64), st.sampled_from(SMOOTH[:12])),
       n=st.one_of(st.none(), st.integers(1, 256), st.sampled_from(SMOOTH)))
def test_plan_overrides_give_exactly_n_coefficients(N, k, n):
    """bench_plan("exp", N, k, n) either refuses the override or gives a
    plan on which fast_exp returns exactly N correct coefficients."""
    try:
        plan = bench_plan("exp", N, k=k, n=n)
    except PlanError:
        return
    h = random_exp_arg(np.random.default_rng(N), N)
    got = fast_exp(h, N, plan=plan).coeffs
    assert got.size == N
    assert rel_err(got, oracle_exp(h, N).coeffs) < 1e-10


@settings(max_examples=100, deadline=None)
@given(N=st.integers(1, 300),
       k=st.one_of(st.none(), st.integers(1, 64), st.sampled_from(SMOOTH[:12])),
       n=st.one_of(st.none(), st.integers(1, 256), st.sampled_from(SMOOTH)))
def test_plan_overrides_give_exactly_n_power_coefficients(N, k, n):
    """bench_plan("pow", N, k, n) either refuses the override or gives a
    plan on which fast_pow returns exactly N correct coefficients."""
    try:
        plan = bench_plan("pow", N, k=k, n=n)
    except PlanError:
        return
    C = 0.3 + 0.7j
    h = random_pow_arg(np.random.default_rng(N), N)
    got = fast_pow(h, C, N, plan=plan).coeffs
    assert got.size == N
    assert rel_err(got, oracle_pow(h, C, N).coeffs) < 1e-10


def test_fast_exp_defining_ode():
    rng = np.random.default_rng(8)
    N = 256
    h = random_exp_arg(rng, N)
    f = fast_exp(h, N).coeffs
    lhs = derivative(f).coeffs
    rhs = np.convolve(f, derivative(h).coeffs)[: N - 1]
    assert rel_err(lhs, rhs) < 1e-8


def test_fast_pow_defining_ode():
    rng = np.random.default_rng(9)
    N = 256
    C = 0.3 + 0.7j
    h = random_pow_arg(rng, N)
    f = fast_pow(h, C, N).coeffs
    lhs = np.convolve(h, derivative(f).coeffs)[: N - 1]
    rhs = C * np.convolve(derivative(h).coeffs, f)[: N - 1]
    assert rel_err(lhs, rhs) < 1e-8


def test_fast_exp_round_trip_with_log():
    rng = np.random.default_rng(10)
    N = 256
    f = random_pow_arg(rng, N)
    h = oracle_log(f, N)
    back = fast_exp(h, N).coeffs
    assert rel_err(back, f) < 1e-8


def test_fast_pow_opposite_exponents_cancel():
    rng = np.random.default_rng(11)
    N = 256
    C = 0.8 - 0.3j
    h = random_pow_arg(rng, N)
    prod = mul_mod(fast_pow(h, C, N), fast_pow(h, -C, N), N).coeffs
    one = np.zeros(N)
    one[0] = 1
    assert rel_err(prod, one) < 1e-8


def test_fast_log_matches_oracle():
    rng = np.random.default_rng(12)
    N = 200
    f = random_pow_arg(rng, N)
    got = fast_log(f, N).coeffs
    want = oracle_log(f, N).coeffs
    assert rel_err(got, want) < 1e-10


def test_determinism_bitwise():
    rng = np.random.default_rng(13)
    h = random_exp_arg(rng, 128)
    plan = choose_plan(128)
    l1, l2 = CostLedger(), CostLedger()
    a = fast_exp(h, 128, plan=plan, ledger=l1).coeffs
    b = fast_exp(h, 128, plan=plan, ledger=l2).coeffs
    assert np.array_equal(a, b)
    assert l1.events == l2.events and l1.scalar == l2.scalar

    g = random_pow_arg(rng, 128)
    l3, l4 = CostLedger(), CostLedger()
    c = fast_pow(g, 0.3 + 0.7j, 128, plan=plan, ledger=l3).coeffs
    d = fast_pow(g, 0.3 + 0.7j, 128, plan=plan, ledger=l4).coeffs
    assert np.array_equal(c, d)
    assert l3.events == l4.events


TINY = np.finfo(np.float64).tiny


def _subnormal_parts(c):
    parts = np.asarray(c, dtype=np.complex128).view(np.float64)
    return int(np.count_nonzero((parts != 0) & (np.abs(parts) < TINY)))


def test_flush_subnormals_zeroes_exactly_the_subnormal_parts():
    sub, keep = [5e-324, -5e-324, 1e-310, -TINY / 2], [TINY, -TINY, 0.0, -0.0, 1.5, -2e-300]
    c = np.array([complex(a, b) for a in sub + keep for b in keep + sub])
    before = c.view(np.float64).copy()
    fast_ops._flush_subnormals(c)
    after = c.view(np.float64)
    flushed = np.abs(before) < TINY
    assert np.array_equal(after[~flushed].view(np.uint64), before[~flushed].view(np.uint64))
    assert np.all(after[flushed] == 0)
    assert np.array_equal(np.signbit(after), np.signbit(before))
    negative = after[before == -5e-324]
    assert negative.size and np.all(negative == 0) and np.all(np.signbit(negative))


@pytest.mark.parametrize("pinned", [True, False])
def test_exp_and_pow_leave_the_caller_input_unwritten(pinned):
    N = 4096
    g = random_exp_arg(np.random.default_rng(0), N, rho=0.5)
    h = cli.pow_input(np.random.default_rng(0), N)
    assert _subnormal_parts(g) and _subnormal_parts(h)
    g0, h0 = g.tobytes(), h.tobytes()
    fast_exp(g, N, plan=bench_plan("exp", N) if pinned else None)
    fast_pow(h, 0.3 + 0.7j, N, plan=bench_plan("pow", N) if pinned else None)
    assert g.tobytes() == g0 and h.tobytes() == h0


def test_block_path_registers_no_subnormal(monkeypatch):
    """Every array the block engine registers, as registered, is free of
    subnormal parts although the inputs hold many."""
    registered = []
    register = block_engine.BlockCache.register

    def spy(self, label, array, *args, **kwargs):
        registered.append((label, np.array(array, dtype=np.complex128)))
        return register(self, label, array, *args, **kwargs)

    monkeypatch.setattr(block_engine.BlockCache, "register", spy)
    N = 4096
    for seed in (0, 1):
        h = cli.pow_input(np.random.default_rng(seed), N)
        fast_pow(h, 0.3 + 0.7j, N, plan=bench_plan("pow", N))
        fast_pow(h, 0.3 + 0.7j, N)
    fast_exp(random_exp_arg(np.random.default_rng(0), N, rho=0.5), N)
    assert {"h", "dh2", "dh"} <= {label for label, _ in registered}
    assert [label for label, a in registered if _subnormal_parts(a)] == []
