"""Wall time of every fast op in units of a measured M(N), beside the
ledger's units and the page faults of a repeated call.

Usage:  python tools/bench_ladder.py SRC_DIR [--label NAME] [--sizes LIST]
                                     [--out PATH]

Imports fastseries from SRC_DIR and, at each order N of SIZES (a comma list;
default 2^8..2^16), calls exp, pow (C = 0.3+0.7j), inv, log and the composite
exp(C*log) on the CLI's inputs (cli.exp_input for exp, cli.pow_input for
the others, both drawn from default_rng(N)): all five on the default plans,
and exp, pow and the composite, whose exp runs the exp plan, on the pinned
k = 16 plans of cli.bench_plan.  Each cell is called once untimed and then
REPEATS (7) times, in a process forked for it alone from one that has only
imported fastseries, so no cell's faults depend on what ran before it.  Its
row holds:

- ms_best, ms_median, ms_max: the wall time of the REPEATS calls, in ms;
- mn_ms: M(N), the best of REPEATS products of two order-N inputs by np.fft
  at length 2N, timed in a forked process of its own in the same run, and
  wall_over_mn, ms_best / mn_ms;
- main_units: the ledger's transform units of one call outside the
  bootstrap stages, in order-unit_order transforms: unit_order is the
  plan's k for the block plans and N for inv and log (the bootstrap's inner
  calls record nothing);
- faults_median: the median minor page faults of the REPEATS calls, read
  with getrusage for the whole process, so the threads a transform pair
  starts count too.

The file (default BENCH_ladder.json at the repository root) holds one run
per label, each with its host header (CPU model, usable CPUs, numpy,
Python): a run replaces the one of its label and keeps the others, so one
file holds a parent's rows beside a change's.  The label defaults to
SRC_DIR.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from crossover import _cpu_model
from source_tree import import_fastseries

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = tuple(1 << a for a in range(8, 17))
REPEATS = 7
POWER = 0.3 + 0.7j
CELLS = tuple((op, name) for name in ("default", "pinned") for op in ("exp", "pow", "exp(C*log)")) + (
    ("inv", "default"), ("log", "default"))


def _cell(fastseries, N, op, name):
    """The plan (None for inv and log) and the call taking a ledger of cell
    (op, plan name) at order N."""
    from fastseries import cli, fast_exp, fast_inverse, fast_log, fast_pow

    rng = np.random.default_rng(N)
    h, g = cli.exp_input(rng, N), cli.pow_input(rng, N)
    if op in ("inv", "log"):
        return None, lambda led: (fast_inverse if op == "inv" else fast_log)(g, N, ledger=led)
    e, p = ((fastseries.choose_plan(N),) * 2 if name == "default"
            else (cli.bench_plan("exp", N), cli.bench_plan("pow", N)))
    if op == "pow":
        return p, lambda led: fast_pow(g, POWER, N, plan=p, ledger=led)
    if op == "exp":
        return e, lambda led: fast_exp(h, N, plan=e, ledger=led)
    return e, lambda led: fast_exp(POWER * fast_log(g, N, ledger=led).coeffs, N, plan=e, ledger=led)


def _timed(call):
    """Wall ms and minor page faults of each of REPEATS calls, after one
    untimed call."""
    call()
    ms, faults = [], []
    for _ in range(REPEATS):
        before, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        call()
        ms.append((time.perf_counter() - start) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return ms, faults


def _forked(work):
    """work() in a child forked from this process: its result."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=lambda: send.send(work()))
    child.start()
    send.close()
    try:
        return receive.recv()
    finally:
        child.join()


def _product_ms(N):
    """M(N): the best ms of REPEATS np.fft products at length 2N."""
    rng = np.random.default_rng(N)
    a, b = (rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(2))
    ms, _ = _timed(lambda: np.fft.ifft(np.fft.fft(a, 2 * N) * np.fft.fft(b, 2 * N)))
    return min(ms)


def _cell_row(fastseries, N, op, name, mn):
    """The row of cell (op, plan name) at order N, over M(N) = mn."""
    from fastseries import CostLedger
    from fastseries.cost_ledger import main_term_units

    plan, run = _cell(fastseries, N, op, name)
    unit = N if plan is None else plan.k
    led = CostLedger()
    run(led)
    ms, faults = _timed(lambda: run(None))
    return {
        "op": op, "plan": name, "N": N,
        "k": plan and plan.k, "n": plan and plan.n, "m": plan and plan.m,
        "ms_best": min(ms), "ms_median": statistics.median(ms), "ms_max": max(ms),
        "mn_ms": mn, "wall_over_mn": min(ms) / mn,
        "unit_order": unit, "main_units": float(main_term_units(led, unit)),
        "faults_median": statistics.median(faults),
    }


def measure(src_dir, sizes=SIZES):
    """The host header and the rows of every cell at every order."""
    fastseries = import_fastseries(src_dir)
    from fastseries import fft_core

    host = {"cpu": _cpu_model(), "usable_cpus": fft_core._usable_cpus(),
            "numpy": np.__version__, "python": platform.python_version()}
    rows = []
    for N in sizes:
        mn = _forked(lambda: _product_ms(N))
        rows += [_forked(lambda: _cell_row(fastseries, N, op, name, mn)) for op, name in CELLS]
    return host, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir")
    parser.add_argument("--label")
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_ladder.json"))
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    host, rows = measure(args.src_dir, sizes)
    runs = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            runs = json.load(f)["runs"]
    label = args.label or args.src_dir
    runs = [run for run in runs if run["label"] != label]
    runs.append({"label": label, "host": host, "repeats": REPEATS, "rows": rows})
    with open(args.out, "w") as f:
        json.dump({"runs": runs}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
