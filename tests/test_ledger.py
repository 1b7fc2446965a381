import hashlib
from fractions import Fraction

import numpy as np
import pytest

from fastseries import (
    BlockPlan,
    CostLedger,
    EXPECTED_STAGE_UNITS,
    fast_exp,
    fast_inverse,
    fast_log,
    fast_ops,
    fast_pow,
    multiply,
    report_kv,
    report_text,
    stage_table,
)
from fastseries.cli import bench_plan, exp_input, main, pow_input
from fastseries.series_core import dump_series


def test_unit_rule():
    led = CostLedger()
    k = 8
    with led.stage("s"):
        led.record_dfts((3 * k,), 1, label="x")
        assert led.units_total(k) == 3
        led.record_dfts((k,), 1)
        assert led.units_total(k) == 4
        led.record_dfts((2 * k,), 1)
        assert led.units_total(k) == 6


def test_bulk_records_equal_single_records():
    one, bulk = CostLedger(), CostLedger()
    with one.stage("s"), bulk.stage("s"):
        for _ in range(3):
            one.record_dfts((8,), 1, label="x")
            one.record_dfts((4,), 1, label="x")
        bulk.record_dfts((8, 4), 3, label="x")
        bulk.record_dfts((8,), 0, label="x")
    assert bulk.events == one.events


# sha256 of every event (order, stage, label, in recording order) and scalar
# count of fast_exp / fast_pow at N = 4096, on the pinned bench plans and on
# the default plans, with the block-pair sums on the block-axis path where
# the engine takes it; none of it depends on the input values.
EVENT_SHA256 = {
    "exp pinned": "991c0a91ff7f0443c6a8b173dd43a7256e2e3c7c349c57b4336411ccf574c0be",
    "pow pinned": "31cb016ac3acb07aeeaba9194ca6ee55f6a55ee5555e163f87fafb58459f5d50",
    "exp default": "6b813df84f216591a0bb8c2234694ce63b0cb66e29885a37fc66356c1b4cca35",
    "pow default": "fd776c9b333753d82f3fa2a2b41e0c887c8fb12b1b202f8b49860c1cb722d5b7",
}
# sha256 of the events alone of the same runs: every block transformed once,
# whole; how the block-pair sums are done moves no transform.
EVENTS_ONLY_SHA256 = {
    "exp pinned": "86c0ea99d590e3a6bd4f127d37b92c3b5c2ae44756a62f0523416dc9c87e0c48",
    "pow pinned": "446cbebf1a442d33c43b4ffaf6406845bc3b27166d190a3a42223431b222d302",
    "exp default": "37891f237b781c8339b97f653605e8e8817a13fc21396dff60130bb7b05c1b18",
    "pow default": "cf63cadf182c2276925118c5287952d87583541e96de46a72c2bee39141f7989",
}


def test_event_sequence_of_pinned_runs():
    N = 4096
    rng = np.random.default_rng(31 + N)
    for kind in ("pinned", "default"):
        def plan(op, kind=kind):
            return bench_plan(op, N) if kind == "pinned" else None

        runs = {
            "exp": lambda led: fast_exp(exp_input(rng, N), N, plan=plan("exp"), ledger=led),
            "pow": lambda led: fast_pow(pow_input(rng, N), 0.3 + 0.7j, N, plan=plan("pow"),
                                        ledger=led),
        }
        for op, run in runs.items():
            led = CostLedger()
            run(led)
            key = f"{op} {kind}"
            text = "".join(f"{e.order} {e.stage} {e.label}\n" for e in led.events)
            assert hashlib.sha256(text.encode()).hexdigest() == EVENTS_ONLY_SHA256[key], key
            text += "".join(f"{name}={n}\n" for name, n in sorted(led.scalar.items()))
            assert hashlib.sha256(text.encode()).hexdigest() == EVENT_SHA256[key], key


# Units of each main stage on the bench_plan ladder, as a*r + b for
# r = m/k; the bootstrap stages are left out.
LADDER_UNITS = {
    "exp": {"exp.stage1": (Fraction(25, 2), 42), "exp.log": (Fraction(45, 8), 48),
            "exp.final": (4, 0)},
    "pow": {"pow.s.first": (Fraction(21, 2), 18), "pow.s.second": (10, 8), "pow.f": (9, 18),
            "pow.log": (Fraction(21, 4), 24), "pow.final": (4, 0)},
}


@pytest.mark.parametrize("N", [512, 1024, 2048, 4096, 8192, 16384])
def test_bench_ladder_stage_units_in_closed_form(N):
    """Every main stage of a pinned exp and pow run costs exactly its closed
    form in r = m/k (r = 16..512 here)."""
    rng = np.random.default_rng(N)
    runs = {"exp": lambda plan, led: fast_exp(exp_input(rng, N), N, plan=plan, ledger=led),
            "pow": lambda plan, led: fast_pow(pow_input(rng, N), 0.3 + 0.7j, N, plan=plan,
                                              ledger=led)}
    for op, run in runs.items():
        plan, led = bench_plan(op, N), CostLedger()
        run(plan, led)
        got = {tag: units for tag, units in led.units_by_stage(plan.k).items()
               if not tag.startswith("bootstrap.")}
        r = plan.ratio
        assert got == {tag: a * r + b for tag, (a, b) in LADDER_UNITS[op].items()}, (op, r)


def test_additivity_and_filtering():
    led = CostLedger()
    with led.stage("a"):
        led.record_dfts((8,), 1, label="x")
        led.record_dfts((8,), 1, label="x")
    with led.stage("b"):
        led.record_dfts((16,), 1, label="y")
    assert led.units_for(8, stage="a") == 2
    assert led.units_for(8, label="y") == 2
    assert led.event_count(stage="a", label="x") == 2


def test_fractional_units_are_exact():
    led = CostLedger()
    with led.stage("s"):
        led.record_dfts((12,), 1)
    assert led.units_total(8) == Fraction(3, 2)


def test_stage_scoping():
    led = CostLedger()
    with led.stage("outer"):
        led.record_dfts((4,), 1)
        with led.stage("inner"):
            led.record_dfts((4,), 1)
        led.record_dfts((4,), 1)
    assert led.units_for(4, stage="outer") == 2
    assert led.units_for(4, stage="inner") == 1


def test_bootstrap_exclusion():
    led = CostLedger()
    with led.stage("bootstrap.E"):
        led.record_dfts((8,), 1)
    with led.stage("exp.stage1"):
        led.record_dfts((8,), 1)
    assert led.units_total(8, include_bootstrap=False) == 1
    assert led.units_total(8) == 2


def test_multiply_records_three_events_of_one_order():
    led = CostLedger()
    rng = np.random.default_rng(0)
    multiply(rng.standard_normal(20), rng.standard_normal(13), ledger=led)
    orders = [ev.order for ev in led.events]
    assert len(orders) == 3 and len(set(orders)) == 1 and orders[0] >= 32


def test_report_rows_and_expected_constants():
    plan = BlockPlan(k=4, n=8, m=32)
    led = CostLedger()
    with led.stage("exp.stage1"):
        led.record_dfts((8,), 1, label="f")
        led.record_dfts((4,), 1, label="f")
    rows = stage_table(led, plan)
    assert [r.stage for r in rows] == ["exp.stage1"]
    assert rows[0].expected == EXPECTED_STAGE_UNITS["exp.stage1"] == 13.0
    assert rows[0].units == 3
    assert rows[0].per_mk == 3 / 8

    text = report_text(led, plan)
    assert "exp.stage1" in text and "plan k=4" in text
    kv = report_kv(led, plan)
    assert "stage.exp.stage1.units=3" in kv
    assert "total.main.units=3" in kv


def test_empty_ledger_reports_zero_table():
    plan = BlockPlan(k=4, n=8, m=32)
    led = CostLedger()
    assert stage_table(led, plan) == []
    with led.stage("exp.stage1"):
        pass
    rows = stage_table(led, plan)
    assert len(rows) == 1 and rows[0].units == 0


def test_boundary_inverse_note():
    plan = BlockPlan(k=4, n=8, m=32)
    led = CostLedger()
    with led.stage("exp.log"):
        led.record_dfts((8,), 1, label="u-boundary")
        led.record_dfts((4,), 1, label="u-boundary")
    kv = report_kv(led, plan)
    assert "note.boundary_inverse.units=3" in kv
    assert "note.boundary_inverse.units_if_2k=2" in kv


def test_no_ledger_counts_nothing(monkeypatch, tmp_path):
    """Without a ledger no call builds one: not the entry points, not their
    bootstrap calls into fast_exp and fast_inverse, not the CLI without
    --report."""
    built, init = [], CostLedger.__init__

    def counting_init(self):
        built.append(type(self))
        init(self)

    monkeypatch.setattr(CostLedger, "__init__", counting_init)
    exp_orders, exp = [], fast_ops.fast_exp

    def spy_exp(h, N, *args, **kwargs):
        exp_orders.append(N)
        return exp(h, N, *args, **kwargs)

    monkeypatch.setattr(fast_ops, "fast_exp", spy_exp)
    N, n, C = 1 << 14, 4096, 0.3 + 0.7j
    rng = np.random.default_rng(N)
    h, g = exp_input(rng, N), pow_input(rng, N)
    fast_ops.fast_exp(h, N)
    fast_pow(g, C, N)
    # the default plans bootstrap through fast_exp at 4096, whose own
    # order-1024 prefix comes from the quadratic reference
    assert exp_orders == [N, 4096, 4096]
    fast_exp(h[:n], n, plan=bench_plan("exp", n))
    fast_pow(g[:n], C, n, plan=bench_plan("pow", n))
    fast_inverse(g, N)
    fast_log(g, N)
    src = tmp_path / "g.txt"
    dump_series(g[:n], src)
    assert main(["inv", str(src), str(tmp_path / "r.txt"), "--n", str(n)]) == 0
    assert built == []
