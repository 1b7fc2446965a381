"""Results and ledger reports are bitwise reproducible, also when several
threads run the pinned-plan fast paths at once and share the module-level
root tables (the README's "bitwise identical" claim)."""

import sys
import threading

import numpy as np

from fastseries import CostLedger, fast_exp, fast_pow
from fastseries.cli import bench_plan, exp_input, pow_input
from fastseries.cost_ledger import report_kv

N = 4096
C = 0.3 + 0.7j


def _runs():
    rng = np.random.default_rng(31)
    h, g = exp_input(rng, N), pow_input(rng, N)
    plans = {"exp": bench_plan("exp", N), "pow": bench_plan("pow", N)}
    calls = {
        "exp": lambda led: fast_exp(h, N, plan=plans["exp"], ledger=led),
        "pow": lambda led: fast_pow(g, C, N, plan=plans["pow"], ledger=led),
    }

    def run(op):
        led = CostLedger()
        out = calls[op](led).coeffs
        return out, report_kv(led, plans[op])

    return run


def test_pinned_runs_in_threads_match_sequential_runs():
    run = _runs()
    sequential = {op: run(op) for op in ("exp", "pow")}

    results, errors = {"exp": [], "pow": []}, []
    orders = [("exp", "pow"), ("pow", "exp")] * 2  # more threads than cores
    start = threading.Barrier(len(orders))

    def worker(ops):
        try:
            start.wait(timeout=60)
            for op in ops:
                results[op].append(run(op))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(ops,), daemon=True) for ops in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for op, (want, want_kv) in sequential.items():
        assert len(results[op]) == len(orders)
        for got, got_kv in results[op]:
            assert np.array_equal(got.view(np.float64), want.view(np.float64)), op
            assert got_kv == want_kv, op
