"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time

import numpy as np

from fastseries import (
    BlockCache,
    BlockPlan,
    CostLedger,
    dft,
    dft_3k,
    double_dft,
    fast_exp,
    fast_inverse,
    fast_pow,
    granted_length,
    inverse_dft,
    inverse_double_dft,
    mul_mod,
    derivative,
    oracle_exp,
    oracle_inverse,
    oracle_log,
    oracle_middle,
    oracle_pow,
    triple_middle_product,
)
from fastseries.cli import main as cli_main
from fastseries.cost_ledger import main_term_units

from util import disk, random_exp_arg, random_pow_arg, rel_err

POWERS = (2.0 + 0j, 0.5 + 0j, -1.0 + 0j, 0.3 + 0.7j)
SIZES = (64, 256, 1024, 4096)
SEEDS = 20


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    tol = 1e-8
    worst = 0.0
    for size in SIZES:
        for seed in range(SEEDS):
            rng = np.random.default_rng(1000 * size + seed)
            h = random_exp_arg(rng, size)
            err = rel_err(fast_exp(h, size).coeffs, oracle_exp(h, size).coeffs)
            worst = max(worst, err)
            assert err <= tol, f"exp N={size} seed={seed}: {err:.3e}"

            g = random_pow_arg(rng, size)
            err = rel_err(fast_inverse(g, size).coeffs, oracle_inverse(g, size).coeffs)
            worst = max(worst, err)
            assert err <= tol, f"inv N={size} seed={seed}: {err:.3e}"

            for C in POWERS:
                err = rel_err(fast_pow(g, C, size).coeffs, oracle_pow(g, C, size).coeffs)
                worst = max(worst, err)
                assert err <= tol, f"pow N={size} C={C} seed={seed}: {err:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds the 60s budget"
    print(f"ACCEPTANCE 1 PASS: oracle equivalence, worst={worst:.2e}, "
          f"{SEEDS} seeds x {len(SIZES)} sizes in {elapsed:.1f}s")


def test_criterion_2_middle_product_bound():
    worst = 0.0
    for k, n, m in ((4, 16, 64), (8, 32, 256), (16, 64, 1024)):
        rng = np.random.default_rng(m)
        f = disk(rng, n)
        g = disk(rng, m + n)
        h = disk(rng, m + n)
        led = CostLedger()
        cache = BlockCache(k)
        cache.register("a", f)
        cache.register("b", g)
        cache.register("c", h)
        cache.ensure("a", n // k - 1, ledger=led)
        cache.ensure("b", (m + n) // k - 1, ledger=led)
        cache.ensure("c", (m + n) // k - 1, ledger=led)
        before = led.units_total(k)
        q = triple_middle_product(cache, "a", "b", "c", m, n, ledger=led)
        incremental = led.units_total(k) - before
        bound = 3 * (n // k + 2)
        assert incremental <= bound, f"(k,n,m)=({k},{n},{m}): {incremental} > {bound}"
        err = rel_err(q.coeffs, oracle_middle(f, g, h, m, n).coeffs)
        worst = max(worst, err)
        assert err <= 1e-10, f"(k,n,m)=({k},{n},{m}): err {err:.3e}"
    print(f"ACCEPTANCE 2 PASS: incremental units within 3(n/k+2) at all configs, "
          f"worst err={worst:.2e}")


def _ladder_run(algorithm, ratio):
    k = 16
    m = k * ratio
    if algorithm == "exp":
        plan = BlockPlan(k=k, n=m // 8, m=m)
    else:
        plan = BlockPlan(k=k, n=m // 4, m=m)
    N = 2 * m
    rng = np.random.default_rng(10_000 + N)
    led = CostLedger()
    if algorithm == "exp":
        fast_exp(random_exp_arg(rng, N), N, plan=plan, ledger=led)
    else:
        fast_pow(random_pow_arg(rng, N), 0.3 + 0.7j, N, plan=plan, ledger=led)
    return plan, led


def test_criterion_3_stage_budgets():
    ratios = (8, 16, 32, 64)

    stage1, exp_total = [], []
    for ratio in ratios:
        plan, led = _ladder_run("exp", ratio)
        stage1.append(float(led.units_for(plan.k, stage="exp.stage1")) / ratio)
        exp_total.append(float(main_term_units(led, plan.k)) / ratio)
    pow_total = []
    for ratio in ratios:
        plan, led = _ladder_run("pow", ratio)
        pow_total.append(float(main_term_units(led, plan.k)) / ratio)

    at32 = ratios.index(32)
    assert 13.0 <= stage1[at32] <= 16.0, stage1
    assert all(b <= a for a, b in zip(stage1, stage1[1:])), stage1
    assert 23.0 <= exp_total[at32] <= 27.0, exp_total
    assert all(b <= a for a, b in zip(exp_total, exp_total[1:])), exp_total
    assert 40.5 <= pow_total[at32] <= 46.0, pow_total
    assert all(b <= a for a, b in zip(pow_total, pow_total[1:])), pow_total
    print("ACCEPTANCE 3 PASS: stage budgets; "
          f"stage1@32={stage1[at32]:.4f} in [13,16], "
          f"exp@32={exp_total[at32]:.4f} in [23,27], "
          f"pow@32={pow_total[at32]:.4f} in [40.5,46]; all non-increasing")


def test_criterion_4_transform_properties():
    rng = np.random.default_rng(77)
    lengths = [L for L in range(2, 4097) if granted_length(L) == L]
    cases = 110
    worst = 0.0

    for _ in range(cases):
        L = int(rng.choice(lengths))
        p = disk(rng, L)
        err = rel_err(inverse_dft(dft(p, L)), p)
        worst = max(worst, err)
        assert err <= 1e-12

    for _ in range(cases):
        L = int(rng.choice(lengths))
        la = int(rng.integers(1, L + 1))
        a = disk(rng, la)
        b = disk(rng, L - la + 1)
        prod = inverse_dft(dft(a, L).pointwise(dft(b, L)))[: la + (L - la + 1) - 1]
        err = rel_err(prod, np.convolve(a, b))
        worst = max(worst, err)
        assert err <= 1e-12

    ks = [k for k in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024) if 3 * k <= 4096]
    for _ in range(cases):
        k = int(rng.choice(ks))
        p = disk(rng, 3 * k)
        err = rel_err(inverse_double_dft(double_dft(p, 2 * k, k)), p)
        worst = max(worst, err)
        assert err <= 1e-12

    for _ in range(cases):
        k = int(rng.choice(ks))
        p = disk(rng, 3 * k)
        err = rel_err(dft_3k(p, k).values, dft(p, 3 * k).values)
        worst = max(worst, err)
        assert err <= 1e-12
    print(f"ACCEPTANCE 4 PASS: {cases} cases per transform property, "
          f"worst={worst:.2e} <= 1e-12")


def test_criterion_5_algebraic_identities():
    N = 1024
    tol = 1e-8
    rng = np.random.default_rng(55)
    worst = 0.0

    f = random_pow_arg(rng, N)
    h = oracle_log(f, N).coeffs
    err = rel_err(fast_exp(h, N).coeffs, f)
    worst = max(worst, err)
    assert err <= tol

    h2 = random_exp_arg(rng, N)
    err = rel_err(oracle_log(fast_exp(h2, N), N).coeffs, h2)
    worst = max(worst, err)
    assert err <= tol

    g = random_pow_arg(rng, N)
    c1, c2 = 0.6 - 0.2j, -0.9 + 0.4j
    lhs = mul_mod(fast_pow(g, c1, N), fast_pow(g, c2, N), N).coeffs
    rhs = fast_pow(g, c1 + c2, N).coeffs
    err = rel_err(lhs, rhs)
    worst = max(worst, err)
    assert err <= tol

    fe = fast_exp(h2, N).coeffs
    err = rel_err(derivative(fe).coeffs,
                  np.convolve(fe, derivative(h2).coeffs)[: N - 1])
    worst = max(worst, err)
    assert err <= tol

    C = 0.3 + 0.7j
    fp = fast_pow(g, C, N).coeffs
    err = rel_err(np.convolve(g, derivative(fp).coeffs)[: N - 1],
                  C * np.convolve(derivative(g).coeffs, fp)[: N - 1])
    worst = max(worst, err)
    assert err <= tol
    print(f"ACCEPTANCE 5 PASS: identity suite at N={N}, worst={worst:.2e} <= 1e-8")


def test_criterion_6_bench_determinism(tmp_path):
    args = ["bench", "--sizes", "256,512,1024", "--seed", "11"]
    rep1 = tmp_path / "bench1.txt"
    rep2 = tmp_path / "bench2.txt"
    assert cli_main(args + ["--report", str(rep1)]) == 0
    assert cli_main(args + ["--report", str(rep2)]) == 0
    b1, b2 = rep1.read_bytes(), rep2.read_bytes()
    assert b1 == b2 and len(b1) > 0
    print(f"ACCEPTANCE 6 PASS: bench reports byte-identical ({len(b1)} bytes)")
