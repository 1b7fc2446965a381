"""The traced benchmark run wraps library functions by module attribute name
(perfbench/spans.py); a rename in src/ would silently drop its spans."""

import importlib.util
import pathlib
import sys

import numpy as np

from fastseries import CostLedger, fast_exp, fast_pow, stage_table
from fastseries.cli import bench_plan, exp_input, pow_input

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_block_engine_span_fires_on_pinned_runs():
    spans = _load_spans()
    N = 1024
    rng = np.random.default_rng(N)
    h, g = exp_input(rng, N), pow_input(rng, N)
    tracer, led = spans.Tracer(), CostLedger()
    with spans.instrumented(tracer):
        fast_exp(h, N, plan=bench_plan("exp", N), ledger=led)
        fast_pow(g, 0.3 + 0.7j, N, plan=bench_plan("pow", N), ledger=led)
    names = {name for _, _, name in spans.WRAPPED if name.startswith("block_engine.")}
    assert names == {"block_engine.ensure", "block_engine.ensure_2k",
                     "block_engine.aligned_middle", "block_engine.window_product_2k"}
    fired = tracer.totals()
    assert all(fired[name][0] > 0 for name in names), {n: fired[n][0] for n in names}
    # every double spectrum ensure makes is one order-k event, so its count
    # is the ledger's order-k events outside the middle products' own
    # theta, u-boundary and mp-restore transforms
    k = bench_plan("exp", N).k
    assert bench_plan("pow", N).k == k
    blocks = sum(1 for ev in led.events
                 if ev.order == k and ev.label not in ("theta", "u-boundary", "mp-restore"))
    assert tracer.counts["ensure.transforms"] == blocks > 0
    # series grow by whole blocks, so ensure makes no block twice; the
    # tracer counts a transform that does not raise high_water as made again
    assert tracer.counts["ensure.retransforms"] == 0
    # every wrapped attribute is restored afterwards
    assert all(not hasattr(owner.__dict__[attr], "__wrapped__")
               for owner, attr, _ in spans.WRAPPED)


def test_timing_ledger_opens_a_span_for_every_stage():
    """perfbench's per-layer stage.<tag>.ms come from TimingLedger.stage; a
    stage entered past it would read 0.0 there, not fail."""
    spans = _load_spans()
    N = 4096
    rng = np.random.default_rng(N)
    h, g = exp_input(rng, N), pow_input(rng, N)
    runs = {"exp": lambda led, plan: fast_exp(h, N, plan=plan, ledger=led),
            "pow": lambda led, plan: fast_pow(g, 0.3 + 0.7j, N, plan=plan, ledger=led)}
    for op, run in runs.items():
        tracer, plan = spans.Tracer(), bench_plan(op, N)
        led = spans.TimingLedger(tracer)
        run(led, plan)
        tags = [row.stage for row in stage_table(led, plan)]
        assert any(tag.startswith(op + ".") for tag in tags), tags
        assert any(tag.startswith("bootstrap.") for tag in tags), tags
        fired = tracer.totals()
        assert all(fired["stage." + tag][0] > 0 for tag in tags), (op, tags)
