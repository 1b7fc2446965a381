"""The fast paths at N = 2**14 (2**16 for the Newton layer), beyond the
quadratic references' reach: the bootstrap recursion stays off the quadratic
code, leaves no trace in the caller's ledger, and the results satisfy their
defining identities."""

import hashlib

import numpy as np
import pytest

from fastseries import (
    CostLedger,
    choose_plan,
    derivative,
    fast_exp,
    fast_inverse,
    fast_log,
    fast_pow,
    fast_ops,
)
from fastseries.cli import bench_plan
from fastseries.cost_ledger import BOOTSTRAP_PREFIX, report_kv

from util import binomial_series, random_exp_arg, random_pow_arg, rel_err

N = 1 << 14
TOL = 1e-8  # the identity tolerance of acceptance criterion 5
C = 0.3 + 0.7j

# sha256 of report_kv for default-plan fast_exp / fast_pow at N = 2**14
# (k=2048, n=4096, m=8192); its unit lines hold no bootstrap work and no
# block transformed twice, its scalar lines count the additions of the
# output-block sums too.
KV_SHA256 = {
    "exp": "2ab3dba3c996d960885b6dc2570b917ab1d421130c72cdc1ed86b3a9e4b7b440",
    "pow": "5fa7940f5c637f1b069a80ce36c2c0ec196b498713065dab3941ab9ebcf31349",
}


def product(a, b, n):
    """(a*b) mod x**n through numpy's FFT, independent of fft_core."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    L = 1 << (a.size + b.size - 2).bit_length()
    return np.fft.ifft(np.fft.fft(a, L) * np.fft.fft(b, L))[:n]


def closed_form_check(got, want):
    """Error relative to the largest reference coefficient, after checking
    that the top half of the reference is not negligible (so that a result
    whose upper half is lost cannot pass)."""
    scale = np.max(np.abs(want))
    assert np.max(np.abs(want[want.size // 2 :])) >= 1e-5 * scale
    return np.max(np.abs(got - want)) / scale


# g = (1 - a*x)**c with |a| = 1: every coefficient is live up to 2**16, and
# 1/g and log g are known in closed form, without a quadratic reference
CLOSED_FORM_A = np.exp(2j * np.pi * np.random.default_rng(7).uniform())


@pytest.mark.parametrize("order", [1 << 14, 1 << 16])
@pytest.mark.parametrize("c", [0.5 + 0.3j, 0.25 - 0.4j])
def test_fast_inverse_closed_form(order, c):
    g = binomial_series(CLOSED_FORM_A, c, order)
    want = binomial_series(CLOSED_FORM_A, -c, order)
    assert closed_form_check(fast_inverse(g, order).coeffs, want) <= TOL


@pytest.mark.parametrize("order", [1 << 14, 1 << 16])
@pytest.mark.parametrize("c", [0.5 + 0.3j, 0.25 - 0.4j])
def test_fast_log_closed_form(order, c):
    g = binomial_series(CLOSED_FORM_A, c, order)
    want = np.zeros(order, dtype=np.complex128)
    want[1:] = -c * np.cumprod(np.full(order - 1, CLOSED_FORM_A)) / np.arange(1, order)
    assert closed_form_check(fast_log(g, order).coeffs, want) <= TOL


def _plan(op, order, pinned):
    return bench_plan(op, order) if pinned else None


@pytest.mark.parametrize("pinned", [False, True], ids=["default", "pinned"])
@pytest.mark.parametrize("order", [1 << 14, 1 << 16])
@pytest.mark.parametrize("c", [0.5 + 0.3j, 0.25 - 0.4j])
def test_fast_exp_closed_form(order, c, pinned):
    """exp(c * sum of a**j x**j / j) = (1 - a*x)**(-c)."""
    h = np.zeros(order, dtype=np.complex128)
    h[1:] = c * np.cumprod(np.full(order - 1, CLOSED_FORM_A)) / np.arange(1, order)
    got = fast_exp(h, order, plan=_plan("exp", order, pinned)).coeffs
    assert closed_form_check(got, binomial_series(CLOSED_FORM_A, -c, order)) <= TOL


@pytest.mark.parametrize("pinned", [False, True], ids=["default", "pinned"])
@pytest.mark.parametrize("order", [1 << 14, 1 << 16])
@pytest.mark.parametrize("power", [-1, 0.3 + 0.7j])
def test_fast_pow_closed_form(order, power, pinned):
    """((1 - a*x)**c)**C = (1 - a*x)**(c*C), for c = 0.5+0.3j."""
    c = 0.5 + 0.3j
    g = binomial_series(CLOSED_FORM_A, c, order)
    got = fast_pow(g, power, order, plan=_plan("pow", order, pinned)).coeffs
    assert closed_form_check(got, binomial_series(CLOSED_FORM_A, c * power, order)) <= TOL


def test_no_quadratic_work_above_the_crossover(monkeypatch):
    orders = []
    for name in ("oracle_exp", "oracle_inverse", "oracle_pow"):
        def spy(*args, _real=getattr(fast_ops, name)):
            orders.append(args[-1])
            return _real(*args)
        monkeypatch.setattr(fast_ops, name, spy)
    rng = np.random.default_rng(21)
    fast_exp(random_exp_arg(rng, N), N)
    fast_pow(random_pow_arg(rng, N), C, N)
    assert orders and max(orders) <= fast_ops.ORACLE_MAX_ORDER


@pytest.mark.parametrize("pinned", [False, True], ids=["default-2^14", "pinned-4096"])
def test_pow_bootstrap_calls_no_power(monkeypatch, pinned):
    """A non-fallback fast_pow takes its prefix h**C mod x**n as the exp of
    the integrated seed C*h'/h: it calls neither itself nor oracle_pow."""
    outer, inner = fast_ops.fast_pow, []
    for name in ("fast_pow", "oracle_pow"):
        def spy(*args, _real=getattr(fast_ops, name), _name=name, **kwargs):
            inner.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(fast_ops, name, spy)
    order = 4096 if pinned else N
    plan = bench_plan("pow", order) if pinned else choose_plan(order)
    assert not plan.fallback
    outer(random_pow_arg(np.random.default_rng(30), order), C, order, plan=plan)
    assert inner == []


def test_pinned_pow_bootstrap_inverses_come_from_the_reference(monkeypatch):
    """The pinned N = 4096 pow plan bootstraps at order 512, at the inverse
    crossover: both reciprocal prefixes (bootstrap.I and bootstrap.rho)
    come from the quadratic reference, none from the Newton inverse."""
    calls = {"oracle_inverse": [], "fast_inverse": []}
    for name in calls:
        def spy(f, n, *args, _real=getattr(fast_ops, name), _name=name, **kwargs):
            calls[_name].append(n)
            return _real(f, n, *args, **kwargs)
        monkeypatch.setattr(fast_ops, name, spy)
    n4 = 4096
    fast_pow(random_pow_arg(np.random.default_rng(29), n4), C, n4, plan=bench_plan("pow", n4))
    assert fast_ops.ORACLE_INVERSE_MAX_ORDER == 512
    assert calls["oracle_inverse"] == [512, 512]
    assert calls["fast_inverse"] == []


def test_bootstrap_stages_stay_out_of_the_ledger():
    rng = np.random.default_rng(22)
    h, g = random_exp_arg(rng, N), random_pow_arg(rng, N)
    plan = choose_plan(N)
    runs = {
        "exp": lambda led: fast_exp(h, N, ledger=led),
        "pow": lambda led: fast_pow(g, C, N, ledger=led),
    }
    for op, run in runs.items():
        led = CostLedger()
        run(led)
        boot = [t for t in led.units_by_stage(plan.k) if t.startswith(BOOTSTRAP_PREFIX)]
        assert boot
        assert all(led.event_count(stage=t) == 0 for t in boot)
        digest = hashlib.sha256(report_kv(led, plan).encode()).hexdigest()
        assert digest == KV_SHA256[op], op


def test_fast_exp_defining_ode_at_2_14():
    h = random_exp_arg(np.random.default_rng(23), N)
    f = fast_exp(h, N).coeffs
    assert rel_err(derivative(f).coeffs, product(derivative(h).coeffs, f, N - 1)) <= TOL


def test_fast_pow_defining_ode_at_2_14():
    h = random_pow_arg(np.random.default_rng(24), N)
    f = fast_pow(h, C, N).coeffs
    lhs = product(h, derivative(f).coeffs, N - 1)
    rhs = C * product(derivative(h).coeffs, f, N - 1)
    assert rel_err(lhs, rhs) <= TOL


def test_pinned_k16_defining_odes_at_2_14():
    """The pinned bench plans at 2**14 run k = 16 blocks, m/k = 512: every
    per-step block sum and the final product take the block-axis path."""
    h = random_exp_arg(np.random.default_rng(30), N)
    f = fast_exp(h, N, plan=bench_plan("exp", N)).coeffs
    assert rel_err(derivative(f).coeffs, product(derivative(h).coeffs, f, N - 1)) <= TOL
    g = random_pow_arg(np.random.default_rng(31), N)
    f = fast_pow(g, C, N, plan=bench_plan("pow", N)).coeffs
    lhs = product(g, derivative(f).coeffs, N - 1)
    assert rel_err(lhs, C * product(derivative(g).coeffs, f, N - 1)) <= TOL


def test_fast_log_inverts_fast_exp_at_2_14():
    h = random_exp_arg(np.random.default_rng(25), N)
    assert rel_err(fast_log(fast_exp(h, N), N).coeffs, h) <= TOL


def test_fast_pow_exponents_add_at_2_14():
    h = random_pow_arg(np.random.default_rng(26), N)
    c1, c2 = 0.6 - 0.2j, -0.9 + 0.4j
    lhs = product(fast_pow(h, c1, N).coeffs, fast_pow(h, c2, N).coeffs, N)
    assert rel_err(lhs, fast_pow(h, c1 + c2, N).coeffs) <= TOL


@pytest.mark.parametrize("order", [1 << 16, (1 << 16) - 1])
def test_newton_layer_identities_at_2_16(order):
    g = random_pow_arg(np.random.default_rng(27), order)
    one = np.zeros(order, dtype=np.complex128)
    one[0] = 1.0
    assert rel_err(product(g, fast_inverse(g, order).coeffs, order), one) <= TOL
    dlog = derivative(fast_log(g, order)).coeffs
    assert rel_err(product(g, dlog, order - 1), derivative(g).coeffs) <= TOL


def _is_power_of_two(n):
    return n & (n - 1) == 0


def test_newton_layer_transform_counts_at_2_16():
    """Five transforms per Newton step, all of power-of-two order, from the
    quadratic base at order 16 on: 60 for the inverse to 2**16; the logarithm
    inverts to 2**15 (55) and adds 8 at 2**16."""
    assert fast_ops.NEWTON_BASE_ORDER == 16
    g = random_pow_arg(np.random.default_rng(28), 1 << 16)
    led = CostLedger()
    fast_inverse(g, 1 << 16, ledger=led)
    assert led.event_count(label="newton") == len(led.events) == 60
    assert all(_is_power_of_two(e.order) for e in led.events)
    assert min(e.order for e in led.events) == 32
    assert max(e.order for e in led.events) == 1 << 16

    led = CostLedger()
    fast_log(g, 1 << 16, ledger=led)
    assert led.event_count(label="newton") == 55
    assert max(e.order for e in led.events if e.label == "newton") == 1 << 15
    assert [e.order for e in led.events if e.label == "log"] == [1 << 16] * 8
    assert len(led.events) == 63
    assert all(_is_power_of_two(e.order) for e in led.events)
