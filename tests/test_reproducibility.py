"""Results and ledger reports are bitwise reproducible, also when several
threads run the pinned-plan fast paths at once and share the module-level
root tables, and when they run the Newton layer, each in its own workspace
(the README's "bitwise identical" claim).  A ledger only counts: results
with one and without one are the same bytes.  The Newton layer's transform
pairs give the same bytes, events and scalars on one thread or two, also
in a forked child; each thread a pair starts is done when the pair returns,
and none starts on one CPU."""

import _thread
import functools
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from fastseries import CostLedger, fast_exp, fast_inverse, fast_log, fast_pow, fft_core
from fastseries.cli import VERIFY_POWERS, bench_plan, exp_input, pow_input
from fastseries.cost_ledger import report_kv

from util import binomial_series, record_thread_starts

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


def _in_threads(orders, run):
    """Run each list of jobs in ``orders`` in its own thread, all released at
    once with a short switch interval; returns job -> list of results."""
    results, errors = {job: [] for jobs in orders for job in jobs}, []
    start = threading.Barrier(len(orders))

    def worker(jobs):
        try:
            start.wait(timeout=60)
            for job in jobs:
                results[job].append(run(job))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(jobs,), daemon=True) for jobs in orders]
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
    return results


def _assert_bitwise(sequential, results, runs_each):
    for job, (want, want_ledger) in sequential.items():
        assert len(results[job]) == runs_each, job
        for got, got_ledger in results[job]:
            assert np.array_equal(got.view(np.float64), want.view(np.float64)), job
            assert got_ledger == want_ledger, job


def test_pinned_runs_in_threads_match_sequential_runs():
    run = _runs()
    sequential = {op: run(op) for op in ("exp", "pow")}
    orders = [("exp", "pow"), ("pow", "exp")] * 2  # more threads than cores
    _assert_bitwise(sequential, _in_threads(orders, run), len(orders))


def test_newton_layer_in_threads_matches_sequential_runs():
    """fast_inverse and fast_log transform in a per-thread workspace: every
    thread starts without one and grows it from order 2**14 to 2**16 on its
    second call, while the others are mid-run."""
    g = pow_input(np.random.default_rng(37), 1 << 16)
    ops = {"inv": fast_inverse, "log": fast_log}

    def run(job):
        op, order = job
        led = CostLedger()
        out = ops[op](g, order, ledger=led).coeffs
        return out, [(e.order, e.stage, e.label) for e in led.events] + sorted(led.scalar.items())

    small, large = 1 << 14, 1 << 16
    orders = [
        (("inv", small), ("inv", large), ("log", small), ("log", large)),
        (("log", small), ("log", large), ("inv", small), ("inv", large)),
        (("inv", small), ("log", large), ("log", small), ("inv", large)),
        (("log", small), ("inv", large), ("inv", small), ("log", large)),
    ]
    sequential = {job: run(job) for job in orders[0]}
    _assert_bitwise(sequential, _in_threads(orders, run), len(orders))


@pytest.mark.parametrize("order", [1000, 4096, 16384])
def test_results_without_a_ledger_match_ledgered_ones(order):
    """The timed paths (perfbench and the timed calls of
    tools/bench_ladder.py) run without a ledger, the fingerprint with one;
    both must compute the same bytes."""
    rng = np.random.default_rng(order)
    h, g = exp_input(rng, order), pow_input(rng, order)
    calls = {"inv": functools.partial(fast_inverse, g, order),
             "log": functools.partial(fast_log, g, order)}
    for kind in ("default", "pinned"):
        exp_plan = None if kind == "default" else bench_plan("exp", order)
        pow_plan = None if kind == "default" else bench_plan("pow", order)
        calls[f"exp {kind}"] = functools.partial(fast_exp, h, order, plan=exp_plan)
        for C in VERIFY_POWERS:
            calls[f"pow {kind} C={C}"] = functools.partial(fast_pow, g, C, order, plan=pow_plan)
    for name, call in calls.items():
        assert call(ledger=CostLedger()).coeffs.tobytes() == call().coeffs.tobytes(), name


def _newton_runs(order):
    """fast_inverse and fast_log at ``order`` on a series with a live top
    half: each result's bytes with a ledger and without one, and the
    ledger's events and scalars in the order they were recorded."""
    g = binomial_series(np.exp(0.4j), 0.5 + 0.3j, order)
    runs = []
    for op in (fast_inverse, fast_log):
        led = CostLedger()
        out = op(g, order, ledger=led).coeffs.tobytes()
        runs.append((out, op(g, order).coeffs.tobytes(),
                     [(e.order, e.stage, e.label) for e in led.events], list(led.scalar.items())))
    return runs


def _recorded_pairs(monkeypatch):
    """Record the order of each dft_pair call and each thread it starts."""
    orders, pair = [], fft_core.dft_pair

    def recorded(p, q, L, out_p, out_q):
        orders.append(L)
        return pair(p, q, L, out_p, out_q)

    monkeypatch.setattr(fft_core, "dft_pair", recorded)
    monkeypatch.setattr(fft_core, "_usable_cpus", lambda: 2)
    return orders, record_thread_starts(monkeypatch)


@pytest.mark.parametrize("order", [1 << 14, 1 << 16, (1 << 16) - 1, 3 << 14])
def test_transform_pairs_on_two_threads_match_serial_ones(order, monkeypatch):
    """With the crossover patched above every length, every pair of the
    Newton layer runs serially; patched below, every pair runs on two
    threads.  Both give the same bytes, events and scalars, in order."""
    orders, starts = _recorded_pairs(monkeypatch)
    monkeypatch.setattr(fft_core, "_PAIR_MIN_ORDER", 1 << 30)
    serial = _newton_runs(order)
    assert orders and not starts
    orders.clear()
    monkeypatch.setattr(fft_core, "_PAIR_MIN_ORDER", 1)
    threaded = _newton_runs(order)
    assert max(orders) == fft_core.granted_length(order)
    assert len(starts) == len(orders)
    for want, got in zip(serial, threaded):
        assert want[0] == want[1]
        assert got == want


def test_paired_fast_log_leaves_no_thread_alive(monkeypatch):
    """Every thread that fast_log's transform pairs start has run its
    target to the end when fast_log returns."""
    orders, starts = _recorded_pairs(monkeypatch)
    g = binomial_series(np.exp(0.4j), 0.5 + 0.3j, 1 << 16)
    # a thread is done a few bytecodes after it lets the caller go; the
    # long switch interval keeps the caller from taking the GIL before that
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        alive = _thread._count()
        fast_log(g, 1 << 16)
        assert _thread._count() <= alive
    finally:
        sys.setswitchinterval(interval)
    assert len(starts) == sum(L >= fft_core._PAIR_MIN_ORDER for L in orders) > 0
    assert all(start["done"] for start in starts)


def _log_bytes(g, order, conn):
    conn.send(fast_log(g, order).coeffs.tobytes())
    conn.close()


def test_forked_child_runs_the_newton_layer(monkeypatch):
    """A child forked after the parent ran paired transforms runs its own,
    and its fast_log gives the parent's bytes."""
    monkeypatch.setattr(fft_core, "_usable_cpus", lambda: 2)
    order = 1 << 16
    g = binomial_series(np.exp(0.4j), 0.5 + 0.3j, order)
    want = fast_log(g, order).coeffs.tobytes()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_log_bytes, args=(g, order, send), daemon=True)
    child.start()
    try:
        assert recv.poll(60), "the forked child's fast_log did not finish"
        assert recv.recv() == want
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()


_LATE_PAIR = """
import threading
import numpy as np
from fastseries import dft, fft_core
fft_core._usable_cpus = lambda: 2
fft_core._PAIR_MIN_ORDER = 1
p, q = np.arange(16) + 1j, np.ones(8)
out = np.empty(16, dtype=complex), np.empty(16, dtype=complex)

def late():
    threading.main_thread().join()
    sp, sq = fft_core.dft_pair(p, q, 16, *out)
    same = [np.array_equal(s, dft(c, 16).values) for s, c in ((sp, p), (sq, q))]
    print("late pair", same)

if WARM:
    fft_core.dft_pair(p, q, 16, *out)
threading.Thread(target=late).start()
"""


def _python(code):
    src = os.path.dirname(os.path.dirname(fft_core.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


@pytest.mark.parametrize("warm", [False, True])
def test_pair_after_the_main_thread_ends_gives_dft_values_and_exits(warm):
    """A thread that pairs after the main thread ended, while the
    interpreter waits for its threads before it finalizes, gets dft's
    values, and the process exits, whether or not a pair ran before."""
    done = _python(f"WARM = {warm}\n" + _LATE_PAIR)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "late pair [True, True]", done.stderr


def test_one_cpu_starts_no_helper_thread(monkeypatch):
    """A process that may use one CPU runs every pair serially and starts
    no thread."""
    starts = record_thread_starts(monkeypatch)
    monkeypatch.setattr(fft_core, "_usable_cpus", lambda: 1)
    g = binomial_series(np.exp(0.4j), 0.5 + 0.3j, 1 << 16)
    fast_inverse(g, 1 << 16)
    fast_log(g, 1 << 16)
    assert not starts
