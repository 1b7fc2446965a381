"""The tools under tools/ call the library by name, and no other test runs
them: these runs keep a renamed or removed name from breaking a tool
unseen."""

import contextlib
import json
import os
import re
import shutil
import sys

import numpy as np
import pytest

from fastseries import (CostLedger, PlanError, block_engine, cli, fast_ops, fft_core, oracle_middle,
                        series_core)

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tools"))

import bench_ladder  # noqa: E402
import crossover  # noqa: E402
import fingerprint  # noqa: E402

SRC = os.path.join(ROOT, "src")


def test_fingerprint_edge_runs_and_plans():
    """Every edge middle product of the fingerprint, with and without its
    folded linear term, gives the product oracle_middle makes of the known
    coefficients of its cache's series (block size 4); the plans digest is
    made over every order it lists."""
    runs = fingerprint._edge_runs(block_engine)
    assert len(runs) == 72
    assert {name.split()[0] for name, _, _ in runs} == {"triple", "linear"}
    for name, run, cache in runs:
        led = CostLedger()
        q = run(led).coeffs
        shift, n = (4 * int(x) for x in re.search(r"shift=(\d+)k out=(\d+)k", name).groups())
        a, b, c, d = (cache.series_array(x)[: cache.known(x)] for x in "abcd")
        want = oracle_middle(a, b, c, shift, n).coeffs
        if name.startswith("linear"):
            want = fingerprint.EDGE_LINEAR * oracle_middle(a, d, [1], shift, n).coeffs - want
        assert q.size == n and led.events, name
        assert np.max(np.abs(q - want)) <= 1e-13 * (1 + np.max(np.abs(want))), name
    digest = fingerprint._plans(cli, fast_ops, PlanError)
    assert len(digest) == 64


def test_bench_ladder_writes_its_schema(tmp_path):
    """tools/bench_ladder.py at order 256, run under two labels
    into one file: each run has its host header and a row per cell, five ops
    on the default plans, three on the pinned ones, the two text cells and
    the CLI round trip, with positive times and units; a run under a label already there
    replaces it.  The block-plan and Newton rows split their fastest
    instrumented call by top-level stage, with _block_conv's part of each,
    and count the faults of the leaf transforms; the wrappers that measure
    these stay in each cell's child.  No timing is checked."""
    def measured():
        return (CostLedger.stage, block_engine._block_conv,
                *(getattr(fft_core, name) for name in bench_ladder.LEAVES))

    before = measured()
    out = str(tmp_path / "BENCH_ladder.json")
    for label in ("before", "after", "before"):
        assert bench_ladder.main([SRC, "--sizes", "256", "--out", out, "--label", label]) == 0
    assert measured() == before
    with open(out) as f:
        runs = json.load(f)["runs"]
    assert [run["label"] for run in runs] == ["after", "before"]
    cells = {("exp", "default"), ("pow", "default"), ("exp(C*log)", "default"),
             ("inv", "default"), ("log", "default"),
             ("exp", "pinned"), ("pow", "pinned"), ("exp(C*log)", "pinned"),
             ("write", None), ("read", None), ("cli", None)}
    exp = ["bootstrap.E", "bootstrap.I", "exp.stage1", "exp.log", "exp.final"]
    stages = {"exp": exp, "exp(C*log)": ["inverse"] + exp, "inv": ["inverse"], "log": ["inverse"],
              "pow": ["bootstrap.rho", "bootstrap.s", "bootstrap.P", "bootstrap.I",
                      "pow.s.first", "pow.s.second", "pow.f", "pow.log", "pow.final"]}
    for run in runs:
        assert set(run["host"]) == {"cpu", "usable_cpus", "numpy", "python"}
        assert run["repeats"] == bench_ladder.REPEATS
        assert {(row["op"], row["plan"]) for row in run["rows"]} == cells
        assert len(run["rows"]) == len(cells)
        for row in run["rows"]:
            assert row["N"] == 256
            assert (row["k"] is None) == (row["op"] in ("inv", "log", "write", "read", "cli"))
            assert row["first_ms"] > 0 and row["first_faults"] >= 0
            assert row["ms_best"] <= row["ms_median"] <= row["ms_max"]
            assert row["mn_ms"] > 0 and row["wall_over_mn"] == row["ms_best"] / row["mn_ms"]
            assert row["faults_median"] >= 0
            if row["plan"] is None:
                assert [row[key] for key in ("unit_order", "main_units", "instrumented_ms", "stage_ms",
                                             "block_conv_ms", "transform_faults_median")] == [None] * 6
                continue
            assert row["unit_order"] == (row["k"] or 256) and row["main_units"] > 0
            stage_ms, conv_ms = row["stage_ms"], row["block_conv_ms"]
            assert list(stage_ms) == list(conv_ms) == stages[row["op"]], row
            assert all(0 <= conv_ms[tag] <= ms for tag, ms in stage_ms.items()), row
            assert 0 < sum(stage_ms.values()) <= row["instrumented_ms"], row
            assert (sum(conv_ms.values()) > 0) == (row["k"] is not None), row
            assert row["transform_faults_median"] >= 0


def _forking_pid(N):
    return os.getppid()


def _cell_forking_pids(N, op, name, mn):
    return os.getppid(), mn


def test_bench_ladder_forks_every_cell_from_one_server(monkeypatch):
    """Every cell and every M(N) of a ladder runs in a child of one fork
    server, never in a child of the measuring process."""
    monkeypatch.setattr(bench_ladder, "_product_ms", _forking_pid)
    monkeypatch.setattr(bench_ladder, "_cell_row", _cell_forking_pids)
    _, rows = bench_ladder.measure(SRC, [256, 512])
    assert len(rows) == 2 * len(bench_ladder.CELLS)
    (pids,) = set(rows)
    assert pids[0] == pids[1] != os.getpid()


def test_bench_ladder_runs_below_the_fast_orders(tmp_path):
    """At N = 16, below FAST_MIN_ORDER, the default cells take choose_plan's
    fallback plan (k = 0) and count their units in order-N transforms, as
    inv and log do; a --sizes entry that is not a positive integer exits
    with one line before any server starts."""
    out = str(tmp_path / "BENCH_ladder.json")
    assert bench_ladder.main([SRC, "--sizes", "16", "--out", out]) == 0
    with open(out) as f:
        (run,) = json.load(f)["runs"]
    assert len(run["rows"]) == len(bench_ladder.CELLS)
    for row in run["rows"]:
        if row["plan"] == "default" and row["op"] not in ("inv", "log"):
            assert row["k"] == 0
        if row["plan"] is not None:
            assert row["unit_order"] == (row["k"] or 16) and row["main_units"] >= 0
    for sizes in ("0", "16,-4", "x", ""):
        with pytest.raises(SystemExit, match=r"^error: --sizes takes"):
            bench_ladder.main([SRC, "--sizes", sizes, "--out", out])


def _server_facts():
    return os.getppid(), len(os.environ[bench_ladder.SHIFT_VAR]), sum(map(len, bench_ladder._PAD))


def _paired(monkeypatch, tmp_path, change, parent=SRC):
    """The rows of a paired ladder of change against parent at order 256,
    two pairs per cell, by cell, and the pid, stack shift and heap pad bytes
    of each of its fork servers."""
    monkeypatch.setattr(bench_ladder, "PAIRS", 2)
    servers, fork_server = [], bench_ladder._fork_server

    @contextlib.contextmanager
    def recorded(*args):
        with fork_server(*args) as server:
            servers.append(server(_server_facts))
            yield server

    monkeypatch.setattr(bench_ladder, "_fork_server", recorded)
    out = str(tmp_path / "BENCH_ladder.json")
    assert bench_ladder.main([change, "--ab", parent, "--sizes", "256", "--out", out]) == 0
    with open(out) as f:
        (run,) = json.load(f)["runs"]
    assert run["label"] == f"{change} vs {parent}" and run["pairs"] == 2
    assert set(run["host"]) == {"cpu", "usable_cpus", "numpy", "python"}
    assert [(row["op"], row["plan"]) for row in run["rows"]] == list(bench_ladder.CELLS)
    return {(row["op"], row["plan"]): row for row in run["rows"]}, servers


def test_bench_ladder_pairs_a_tree_with_itself(monkeypatch, tmp_path, capsys):
    """--ab src against src at order 256: one paired row per cell with two
    ratios, the outputs equal in every pair, from two new fork servers a
    pair that are neither the measuring process nor each other and start
    with the same stack shift and heap pad, drawn anew for each pair; the
    rows print as a table."""
    rows, servers = _paired(monkeypatch, tmp_path, SRC)
    (pids, shifts, pads) = zip(*servers)
    assert len(set(pids)) == 4 and os.getpid() not in pids
    assert shifts[0] == shifts[1] and shifts[2] == shifts[3]
    assert all(shift % 16 == 0 and shift < 4096 for shift in shifts)
    assert pads[0] == pads[1] != pads[2] == pads[3]
    for row in rows.values():
        assert row["N"] == 256 and len(row["ratios"]) == 2
        assert row["parent_ms"] > 0 and row["change_ms"] > 0
        assert row["ratio_q1"] <= row["ratio_median"] <= row["ratio_q3"]
        assert min(row["ratios"]) <= row["ci95"][0] <= row["ci95"][1] <= max(row["ratios"])
        assert row["change_won"] == sum(r < 1 for r in row["ratios"])
        assert row["outputs_equal"] and row["max_diff"] is None
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(bench_ladder.CELLS) and lines[-1].split()[1:3] == ["256", "cli"]


def _copy_of_src(tmp_path, body):
    """A copy of src under tmp_path whose fast_inverse runs body, the
    indented lines of a function of (*args, **kwargs) that may call
    _fast_inverse, the copy's own."""
    tree = tmp_path / "copy"
    shutil.copytree(os.path.join(SRC, "fastseries"), tree / "fastseries",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tree / "fastseries" / "fast_ops.py", "a") as f:
        f.write("\n\n_fast_inverse = fast_inverse\n\n\ndef fast_inverse(*args, **kwargs):\n" + body)
    return str(tree)


def test_bench_ladder_pairs_see_a_slower_tree(monkeypatch, tmp_path):
    """A copy of src whose fast_inverse sleeps 5 ms first, paired as the
    change against src: the inv and cli cells' ratios exceed 1 in every
    pair, and every cell's outputs still match."""
    slow = _copy_of_src(tmp_path, "    import time\n    time.sleep(0.005)\n"
                                  "    return _fast_inverse(*args, **kwargs)\n")
    rows, _ = _paired(monkeypatch, tmp_path, slow)
    for cell in (("inv", "default"), ("cli", None)):
        assert all(r > 1 for r in rows[cell]["ratios"]), rows[cell]
    assert all(row["outputs_equal"] for row in rows.values())


def test_bench_ladder_pairs_report_differing_outputs(monkeypatch, tmp_path):
    """A copy of src whose fast_inverse returns its result times 1 + 1e-12,
    paired as the change against src: the cells that write fast_inverse's
    coefficients (inv), its text (write) or its file (cli) read their
    outputs unequal, by a scaled difference near 1e-12; every other cell
    reads equal."""
    scaled = _copy_of_src(tmp_path, "    return TruncatedSeries(_fast_inverse(*args, **kwargs).coeffs"
                                    " * (1 + 1e-12))\n")
    rows, _ = _paired(monkeypatch, tmp_path, scaled)
    differing = {("inv", "default"), ("write", None), ("cli", None)}
    for cell, row in rows.items():
        if cell in differing:
            assert not row["outputs_equal"] and 1e-13 < row["max_diff"] < 1e-11, row
        else:
            assert row["outputs_equal"] and row["max_diff"] is None, row


def test_crossover_prints_every_table(monkeypatch, capsys):
    """tools/crossover.py's five measurements, once each at small orders and
    one or two repeats: a host line and the rows of every table; the
    constants it sets while measuring are restored afterwards."""
    for name, value in (("REPEATS", 1), ("BASES", (8,)), ("BASE_PROBE_ORDER", 64),
                        ("BASE_REPEATS", 1), ("FAMILY_ORDER", 256), ("FAMILY_SEEDS", (7,)),
                        ("PAIR_ORDERS", (64,)), ("PAIR_REPEATS", 2),
                        ("WRITE_ROWS", (64, 96)), ("WRITE_REPEATS", 2)):
        monkeypatch.setattr(crossover, name, value)
    saved = (fast_ops.NEWTON_BASE_ORDER, fast_ops.ORACLE_INVERSE_MAX_ORDER,
             fft_core._PAIR_MIN_ORDER, series_core._THREAD_MIN_ROWS)
    assert crossover.main([SRC, "64,128"]) == 0
    assert (fast_ops.NEWTON_BASE_ORDER, fast_ops.ORACLE_INVERSE_MAX_ORDER,
            fft_core._PAIR_MIN_ORDER, series_core._THREAD_MIN_ROWS) == saved
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
        assert lines == ["# one usable CPU: dft_pair and write_series run serially at every size"]
        return
    threads = r"\d+ +\d+ +[\d.]+ \[[\d.]+, [\d.]+\]"
    assert re.fullmatch(r"# +L +serial +threads +ratio", lines[2]), lines
    assert re.fullmatch(rf"# +64 +{threads}", lines[3]), lines
    assert re.fullmatch(r"# +rows +serial +threads +ratio", lines[6]), lines
    assert [re.fullmatch(rf"# +{rows} +{threads}", line) is not None
            for rows, line in zip((64, 96), lines[7:])] == [True, True], lines
    assert len(lines) == 9
