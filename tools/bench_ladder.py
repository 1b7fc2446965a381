"""Wall time of every fast op in units of a measured M(N), beside the
ledger's units, the page faults of a repeated call and where one call's
time goes.

Usage:  python tools/bench_ladder.py SRC_DIR [--label NAME] [--sizes LIST]
                                     [--out PATH]

Imports fastseries from SRC_DIR and, at each order N of SIZES (a comma list;
default 2^8..2^16), calls exp, pow (C = 0.3+0.7j), inv, log and the composite
exp(C*log) on the CLI's inputs (cli.exp_input for exp, cli.pow_input for
the others, both drawn from default_rng(N)): all five on the default plans,
and exp, pow and the composite, whose exp runs the exp plan, on the pinned
k = 16 plans of cli.bench_plan.  Two text cells time series_core's format
at N: write, write_series of fast_inverse's output into a string, and read,
load_series of the pow_input file, the benchmark CLI's input.  The cli cell
runs the CLI on that file as the benchmark does, in process, file in and
file out: one call is cli.main's inv round trip and then its log one at
order N.  Each cell is
called once with a ledger, once untimed and then REPEATS (7) times, in a
process forked for it alone by a fork server: a process forked from this
one right after fastseries is imported, which does nothing but fork, so no
cell's faults depend on what the measuring process or the cells before it
did.  Its row holds:

- first_ms, first_faults: the wall ms and minor page faults of the first
  call, the one with a ledger;
- ms_best, ms_median, ms_max: the wall time of the REPEATS calls, in ms;
- mn_ms: M(N), the best of REPEATS products of two order-N inputs by np.fft
  at length 2N, timed in a child of the fork server of its own, and
  wall_over_mn, ms_best / mn_ms;
- main_units: the ledger's transform units of the first call outside the
  bootstrap stages, in order-unit_order transforms: unit_order is the
  plan's k for the block plans and N for inv and log (the bootstrap's inner
  calls record nothing);
- faults_median: the median minor page faults of the REPEATS calls, read
  with getrusage for the whole process, so the threads a transform pair
  starts count too.

Then the child wraps CostLedger.stage and block_engine._block_conv with
timers, and fft_core's pocketfft leaves (LEAVES) with counts of the minor
faults each takes in its own thread (getrusage(RUSAGE_THREAD): a transform
pair runs one leaf on a thread of its own), and makes INSTRUMENTED (3)
calls with a ledger.  Of the fastest, instrumented_ms is its wall ms and
stage_ms and block_conv_ms, per top-level ledger stage, the stage's wall ms
and _block_conv's part of it (the bootstrap's inner calls run inside their
bootstrap.* stage); transform_faults_median is the median of the calls'
faults in the leaves, pocketfft's scratch included.  The text and cli
cells have none of these, nor units: those fields are null.

The file (default BENCH_ladder.json at the repository root) holds one run
per label, each with its host header (CPU model, usable CPUs, numpy,
Python): a run replaces the one of its label and keeps the others, so one
file holds a parent's rows beside a change's.  The label defaults to
SRC_DIR.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter

import numpy as np

from crossover import _cpu_model
from source_tree import import_fastseries

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = tuple(1 << a for a in range(8, 17))
REPEATS = 7
INSTRUMENTED = 3
POWER = 0.3 + 0.7j
LEAVES = ("_forward", "_backward", "_axis_forward", "_axis_backward")
CELLS = tuple((op, name) for name in ("default", "pinned") for op in ("exp", "pow", "exp(C*log)")) + (
    ("inv", "default"), ("log", "default"), ("write", None), ("read", None), ("cli", None))


def _cell(N, op, name, tmp):
    """The plan (None for inv, log and the text cells) and the call taking a
    ledger of cell (op, plan name) at order N; the files of the read and cli
    cells go in the directory tmp."""
    from fastseries import choose_plan, cli, fast_exp, fast_inverse, fast_log, fast_pow, series_core

    rng = np.random.default_rng(N)
    h, g = cli.exp_input(rng, N), cli.pow_input(rng, N)
    if op == "write":
        f = fast_inverse(g, N).coeffs
        return None, lambda led: series_core.write_series(f, io.StringIO())
    if op in ("read", "cli"):
        path = os.path.join(tmp, "input.txt")
        series_core.dump_series(g, path)
    if op == "read":
        return None, lambda led: series_core.load_series(path)
    if op == "cli":
        out = os.path.join(tmp, "output.txt")

        def round_trips(led):
            for cmd in ("inv", "log"):
                if cli.main([cmd, path, out, "--n", str(N)]) != 0:
                    raise RuntimeError(f"cli {cmd} failed at order {N}")

        return None, round_trips
    if op in ("inv", "log"):
        return None, lambda led: (fast_inverse if op == "inv" else fast_log)(g, N, ledger=led)
    e, p = ((choose_plan(N),) * 2 if name == "default"
            else (cli.bench_plan("exp", N), cli.bench_plan("pow", N)))
    if op == "pow":
        return p, lambda led: fast_pow(g, POWER, N, plan=p, ledger=led)
    if op == "exp":
        return e, lambda led: fast_exp(h, N, plan=e, ledger=led)
    return e, lambda led: fast_exp(POWER * fast_log(g, N, ledger=led).coeffs, N, plan=e, ledger=led)


def _faults(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_minflt


def _once(call):
    """Wall ms and minor page faults of one call."""
    before, start = _faults(), time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1e3, _faults() - before


def _timed(call):
    """Wall ms and minor page faults of each of REPEATS calls, after one
    untimed call."""
    call()
    return tuple(zip(*(_once(call) for _ in range(REPEATS))))


def _serve(conn):
    """The fork server's loop: each request (func, args) from conn runs in a
    child of its own, which sends func(*args) back itself; None, after the
    child, says it failed."""
    while (request := conn.recv()) is not None:
        if os.fork() == 0:
            try:
                func, args = request
                conn.send(func(*args))
                os._exit(0)
            except BaseException:
                traceback.print_exc()
                os._exit(1)
        if os.wait()[1]:
            conn.send(None)


@contextlib.contextmanager
def _fork_server():
    """A process forked from this one that runs each call in a child forked
    from it, so every child starts from the same heap, whatever this
    process did between calls: yields forked(func, *args), func(*args) in
    such a child, for a module-level func."""
    context = multiprocessing.get_context("fork")
    conn, theirs = context.Pipe()
    server = context.Process(target=_serve, args=(theirs,), daemon=True)
    server.start()
    theirs.close()

    def forked(func, *args):
        conn.send((func, args))
        result = conn.recv()
        if result is None:
            raise RuntimeError(f"{func.__name__}{args} failed in its child")
        return result

    try:
        yield forked
    finally:
        conn.send(None)
        server.join()


def _product_ms(N):
    """M(N): the best ms of REPEATS np.fft products at length 2N."""
    rng = np.random.default_rng(N)
    a, b = (rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(2))
    ms, _ = _timed(lambda: np.fft.ifft(np.fft.fft(a, 2 * N) * np.fft.fft(b, 2 * N)))
    return min(ms)


def _instrumented(run):
    """The fastest of INSTRUMENTED calls of run: its wall ms, ms per
    top-level stage and ms of _block_conv in each, and the median of all
    their faults in fft_core's leaves.  The wrappers that measure these stay
    for the rest of the process, a cell's forked child."""
    from fastseries import CostLedger, block_engine, fft_core

    stage, conv = CostLedger.stage, block_engine._block_conv
    top, stages, convs, faults = [], Counter(), Counter(), [0]
    lock = threading.Lock()

    @contextlib.contextmanager
    def timed_stage(self, tag):
        outer = not top
        if outer:
            top.append(tag)
        start = time.perf_counter()
        try:
            with stage(self, tag):
                yield self
        finally:
            if outer:
                stages[top.pop()] += (time.perf_counter() - start) * 1e3

    def timed_conv(*args, **kwargs):
        start = time.perf_counter()
        try:
            return conv(*args, **kwargs)
        finally:
            convs[top[0] if top else ""] += (time.perf_counter() - start) * 1e3

    def counted(leaf):
        def wrapper(*args, **kwargs):
            before = _faults(resource.RUSAGE_THREAD)
            try:
                return leaf(*args, **kwargs)
            finally:
                taken = _faults(resource.RUSAGE_THREAD) - before
                with lock:
                    faults[0] += taken
        return wrapper

    CostLedger.stage, block_engine._block_conv = timed_stage, timed_conv
    for name in LEAVES:
        setattr(fft_core, name, counted(getattr(fft_core, name)))
    calls = []
    for _ in range(INSTRUMENTED):
        stages.clear()
        convs.clear()
        faults[0] = 0
        ms, _ = _once(lambda: run(CostLedger()))
        calls.append((ms, dict(stages), {**dict.fromkeys(stages, 0.0), **convs}, faults[0]))
    ms, stage_ms, conv_ms, _ = min(calls, key=lambda call: call[0])
    return {"instrumented_ms": ms, "stage_ms": stage_ms, "block_conv_ms": conv_ms,
            "transform_faults_median": statistics.median(call[3] for call in calls)}


def _cell_row(N, op, name, mn):
    """The row of cell (op, plan name) at order N, over M(N) = mn."""
    from fastseries import CostLedger
    from fastseries.cost_ledger import main_term_units

    with tempfile.TemporaryDirectory() as tmp:
        plan, run = _cell(N, op, name, tmp)
        led = CostLedger()
        first_ms, first_faults = _once(lambda: run(led))
        ms, faults = _timed(lambda: run(None))
        row = {
            "op": op, "plan": name, "N": N,
            "k": plan and plan.k, "n": plan and plan.n, "m": plan and plan.m,
            "first_ms": first_ms, "first_faults": first_faults,
            "ms_best": min(ms), "ms_median": statistics.median(ms), "ms_max": max(ms),
            "mn_ms": mn, "wall_over_mn": min(ms) / mn,
            "faults_median": statistics.median(faults),
        }
        if name is None:  # a text or cli cell
            return {**row, **dict.fromkeys(("unit_order", "main_units", "instrumented_ms", "stage_ms",
                                            "block_conv_ms", "transform_faults_median"))}
        unit = N if plan is None else plan.k
        return {**row, "unit_order": unit, "main_units": float(main_term_units(led, unit)),
                **_instrumented(run)}


def measure(src_dir, sizes=SIZES):
    """The host header and the rows of every cell at every order."""
    import_fastseries(src_dir)
    from fastseries import fft_core

    rows = []
    with _fork_server() as forked:
        for N in sizes:
            mn = forked(_product_ms, N)
            rows += [forked(_cell_row, N, op, name, mn) for op, name in CELLS]
    host = {"cpu": _cpu_model(), "usable_cpus": fft_core._usable_cpus(),
            "numpy": np.__version__, "python": platform.python_version()}
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
