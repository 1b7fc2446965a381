"""The tools under tools/ call the library by name, and no other test runs
them: these runs keep a renamed or removed name from breaking a tool
unseen."""

import os
import re
import sys

import numpy as np
import pytest

from fastseries import CostLedger, PlanError, block_engine, cli, fast_ops, fft_core

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tools"))

import ab_time  # noqa: E402
import block_share  # noqa: E402
import crossover  # noqa: E402
import fingerprint  # noqa: E402
import newton_faults  # noqa: E402

SRC = os.path.join(ROOT, "src")


def test_fingerprint_edge_runs_and_plans():
    """Every edge middle product of the fingerprint, with and without its
    folded linear term, gives its whole output blocks; the plans digest is
    made over every order it lists."""
    runs = fingerprint._edge_runs(block_engine)
    assert len(runs) == 72
    assert {name.split()[0] for name, _ in runs} == {"triple", "linear"}
    for name, run in runs:
        led = CostLedger()
        q = run(led).coeffs
        blocks = int(name.rsplit("out=", 1)[1].rstrip("k"))
        assert q.size == 4 * blocks and np.all(np.isfinite(q)), name
        assert led.events, name
    digest = fingerprint._plans(cli, fast_ops, PlanError)
    assert len(digest) == 64


@pytest.mark.parametrize("op", ["exp", "pow"])
def test_ab_time_compares_a_tree_with_itself(op):
    """tools/ab_time.py on this source tree against itself: two pairs at
    order 64, the same outputs bit for bit."""
    ms, ratios, diff, shares = ab_time.compare(SRC, SRC, op, 64, 2)
    assert [len(side) for side in ms] == [2, 2] and len(ratios) == 2
    assert diff == 0 and shares is None


def test_block_share_times_every_stage(capsys):
    """tools/block_share.py at order 256, one run: a head line per op and a
    line per top-level stage, with time in _block_conv for each op; the
    wrapped names are restored afterwards."""
    conv, stage = block_engine._block_conv, CostLedger.stage
    assert block_share.main([SRC, "256", "1"]) == 0
    assert (block_engine._block_conv, CostLedger.stage) == (conv, stage)
    lines = capsys.readouterr().out.splitlines()
    stages = {"exp": ["bootstrap.E", "bootstrap.I", "exp.stage1", "exp.log", "exp.final"],
              "pow": ["bootstrap.rho", "bootstrap.s", "bootstrap.P", "bootstrap.I",
                      "pow.s.first", "pow.s.second", "pow.f", "pow.log", "pow.final"]}
    assert len(lines) == 2 + sum(map(len, stages.values()))
    for op, tags in stages.items():
        head = lines.pop(0)
        assert re.fullmatch(rf"{op} N=256: [\d.]+ ms, _block_conv [\d.]+ ms", head), head
        assert float(head.rsplit(" ", 2)[1]) > 0, head
        for tag in tags:
            line = lines.pop(0)
            assert re.fullmatch(rf"  {re.escape(tag)} +[\d.]+ ms  _block_conv +[\d.]+ ms "
                                rf"\(\d+%\)", line), line


def test_newton_faults_counts_each_function(capsys):
    """tools/newton_faults.py at order 64, two repeats: a first-call line and
    three repeated-call lines per function; the wrapped leaf transforms are
    restored afterwards."""
    saved = fft_core._forward, fft_core._backward
    assert newton_faults.main([SRC, "64", "2"]) == 0
    assert (fft_core._forward, fft_core._backward) == saved
    lines = capsys.readouterr().out.splitlines()
    assert lines.pop(0) == "N=64 repeats=2"
    assert len(lines) == 8
    for name in ("fast_inverse", "fast_log"):
        first = lines.pop(0)
        assert re.fullmatch(rf"{name} first: [\d.]+ ms, \d+ faults, \d+ in transforms",
                            first), first
        for label in ("ms", "faults", "transform faults"):
            line = lines.pop(0)
            assert re.fullmatch(rf"{name} repeated {label}: median [\d.]+ min [\d.]+ "
                                rf"max [\d.]+", line), line


def test_crossover_prints_every_table(monkeypatch, capsys):
    """tools/crossover.py's four measurements, once each at small orders and
    one or two repeats: a host line and the rows of every table; the
    constants it sets while measuring are restored afterwards."""
    for name, value in (("REPEATS", 1), ("BASES", (8,)), ("BASE_PROBE_ORDER", 64),
                        ("BASE_REPEATS", 1), ("FAMILY_ORDER", 256), ("FAMILY_SEEDS", (7,)),
                        ("PAIR_ORDERS", (64,)), ("PAIR_REPEATS", 2)):
        monkeypatch.setattr(crossover, name, value)
    saved = (fast_ops.NEWTON_BASE_ORDER, fast_ops.ORACLE_INVERSE_MAX_ORDER,
             fft_core._PAIR_MIN_ORDER)
    assert crossover.main([SRC, "64,128"]) == 0
    assert (fast_ops.NEWTON_BASE_ORDER, fast_ops.ORACLE_INVERSE_MAX_ORDER,
            fft_core._PAIR_MIN_ORDER) == saved
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"# .+, \d+ usable CPUs, numpy \S+, Python \S+", lines.pop(0))
    pair = r"[\d.]+ / +[\d.]+ +\d/1"
    del lines[:2]
    for n in (64, 128):
        line = lines.pop(0)
        assert re.fullmatch(rf"# +{n} +{pair} +{pair}", line), line
    del lines[:2]
    line = lines.pop(0)
    assert re.fullmatch(r"# +b = +8 +[\d.]+ / +[\d.]+ +\d/1 +[\d.]+", line), line
    del lines[:2]
    for op in ("exp", "pow"):
        for label in (op, ""):
            line = lines.pop(0)
            assert re.fullmatch(rf"# +{label} +\d\.\de[-+]\d+", line), line
    if fft_core._usable_cpus() < 2:
        assert lines == ["# one usable CPU: dft_pair runs serially at every order"]
    else:
        del lines[:3]
        assert len(lines) == 1
        assert re.fullmatch(r"# +64 +\d+ +\d+ +[\d.]+ \[[\d.]+, [\d.]+\]", lines[0]), lines
