import hashlib
from fractions import Fraction

import numpy as np

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
    "exp pinned": "73313e295558a22821e8f61df2e9dcfe255baf0751d4e81e39bcfda4ef858f9d",
    "pow pinned": "45024ff165544694be3806696857600fbd268b42af25b9ea593e01cd2927dcc9",
    "exp default": "1e1ebcab34db70581a3135f2dd8cba776616325a46f9dd1161cb9cd4bf77593b",
    "pow default": "89b54b305ef7dfa1daf0b3ac68a9ebffe8cf76acd3b5c1048a4409d7e218d5f4",
}
# sha256 of the events alone of the same runs; the pinned ones as the
# block-by-block engine recorded them: how the block-pair sums are done moves
# no transform.
EVENTS_ONLY_SHA256 = {
    "exp pinned": "11112037ce033803b1a9053b94d995ce558af764fd8a32963fd1784fa163e363",
    "pow pinned": "f7149676eaa3cff1c347c9c1f564a4135e5a2d895783831fdf0e4fdbd381e6a3",
    "exp default": "0b5c5342c7da3f05dbbe330439d76625e10a033e63a7058eb8e14a5502289185",
    "pow default": "1a894e14248a7799484f9d3a8e07e3eb7c6998a7ac286afa69873050c10b99f8",
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
