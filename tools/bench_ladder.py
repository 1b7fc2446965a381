"""Wall time of every fast op in units of a measured M(N), beside the
ledger's units, page faults and where one call's time goes; or, with --ab,
the wall time of every cell in a change's tree paired with its parent's.

Usage:  python tools/bench_ladder.py SRC_DIR [--ab PARENT_SRC] [--label NAME]
                                     [--sizes LIST] [--out PATH]

At each order N of SIZES (a comma list of positive integers; default
2^8..2^16) it calls exp, pow (C = 0.3+0.7j), inv, log and exp(C*log) on
the CLI's inputs (cli.exp_input, cli.pow_input, from default_rng(N)) on
the default plans, and exp, pow and exp(C*log) on cli.bench_plan's pinned
k = 16 plans.  The write cell writes fast_inverse's output into a string,
the read cell loads the pow_input file (the benchmark CLI's input), and
one call of the cli cell is cli.main's inv and then log round trip on that
file at order N, in process, file in and file out.

Every call runs in a process forked for it alone by a fork server, a new
interpreter that imports its tree through source_tree and then does
nothing but fork, so no cell depends on what this process (which imports
no tree) or earlier cells did.

One tree: each cell is called once with a ledger, once untimed and then
REPEATS (7) times, in one child.  Its row holds first_ms and first_faults,
the wall ms and minor page faults of the ledgered call; ms_best, ms_median
and ms_max of the REPEATS calls; mn_ms, M(N), the best of REPEATS np.fft
products of two order-N inputs at length 2N in a child of its own, and
wall_over_mn, ms_best / mn_ms; main_units, the ledger's transform units
outside the bootstrap stages in order-unit_order transforms (the plan's k,
or N for inv, log and the quadratic fallback plans below FAST_MIN_ORDER);
faults_median, the median minor faults of the REPEATS calls, read with
getrusage for the whole process, so a transform pair's thread counts too.

Then the child times CostLedger.stage and block_engine._block_conv, counts
the minor faults of fft_core's pocketfft leaves (LEAVES) per thread
(RUSAGE_THREAD: a transform pair runs a leaf on a thread of its own) and
makes INSTRUMENTED (3) calls with a ledger.  Of the fastest, instrumented_ms
is its wall ms, and stage_ms and block_conv_ms, per top-level stage, the
stage's ms and _block_conv's part of it (the bootstrap's inner calls run
in their bootstrap.* stage); transform_faults_median is the median of the
calls' leaf faults.  The text and cli cells leave these and units null.

Two trees (--ab PARENT_SRC, SRC_DIR the change): each cell runs in PAIRS
(480) pairs.  Pair j of every cell runs on a new fork server for each
tree.  Both start with the same random layout: a shift of their stacks
(an environment entry of 0 to 4080 bytes) and a pad of their heaps
(_heap_pad), held before the tree's import.  So the pairs sample layouts,
and ci95 counts their spread.  With one layout for a whole run, a tree's
speed hangs on it: a copy of the tree that differs in one comment read
1.08 on the default exp cell at 4096, and a copy in another directory
0.91 or 1.08 on the cli cell as the environment's size changed (2-vCPU
Xeon VM).  In pair j each tree's child moves to the pair's CPU (the
usable ones in turn, two pairs each; else a child stays on its server's
CPU, and a busy CPU slows one tree).  It keeps the output of one untimed
call (a series' coefficients, or the bytes of the write cell's text or
of the cli cell's two files), then makes another and PAIRED_TIMED (3)
timed ones without a ledger, which drop what they make, as a caller
does: with every output held, the gain of cebebad over 46e9e6e on the
pinned pow cell at 4096 read 0.99 instead of 0.88.  It returns the best
ms and the output.  The change goes first on even j.
The row holds parent_ms and change_ms (each tree's median), ratios
(change/parent per pair) with ratio_median, ratio_q1, ratio_q3 and ci95,
a 95% percentile-bootstrap interval of the median; change_won, the pairs
below 1; outputs_equal, the same bytes in every pair, and if not,
max_diff, the largest difference of the values scaled by
1 + max|parent output|.  The rows print as a table.

The file (default BENCH_ladder.json at the repository root) holds one run
per label (default SRC_DIR, or "SRC_DIR vs PARENT_SRC") with its host
header (CPU model, usable CPUs, numpy, Python); a run replaces the one of
its label, so one-tree and paired runs (with their pair count) stay side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import pathlib
import platform
import random
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
PAIRS = 480
PAIRED_TIMED = 3
SHIFT_VAR = "BENCH_LADDER_SHIFT"
_PAD = []
BOOTSTRAP = 2000
POWER = 0.3 + 0.7j
LEAVES = ("_forward", "_backward", "_axis_forward", "_axis_backward")
CELLS = tuple((op, name) for name in ("default", "pinned") for op in ("exp", "pow", "exp(C*log)")) + (
    ("inv", "default"), ("log", "default"), ("write", None), ("read", None), ("cli", None))


def _cell(N, op, name, tmp):
    """The plan (None for inv, log and the text cells) and the call taking a
    ledger of cell (op, plan name) at order N, which returns what it made;
    the files of the read and cli cells go in the directory tmp."""
    from fastseries import choose_plan, cli, fast_exp, fast_inverse, fast_log, fast_pow, series_core

    rng = np.random.default_rng(N)
    h, g = cli.exp_input(rng, N), cli.pow_input(rng, N)
    if op == "write":
        f = fast_inverse(g, N).coeffs

        def write(led):
            series_core.write_series(f, buf := io.StringIO())
            return buf

        return None, write
    if op in ("read", "cli"):
        path = os.path.join(tmp, "input.txt")
        series_core.dump_series(g, path)
    if op == "read":
        return None, lambda led: series_core.load_series(path)
    if op == "cli":
        outs = tuple(os.path.join(tmp, f"{cmd}.txt") for cmd in ("inv", "log"))

        def round_trips(led):
            for cmd, out in zip(("inv", "log"), outs):
                if cli.main([cmd, path, out, "--n", str(N)]) != 0:
                    raise RuntimeError(f"cli {cmd} failed at order {N}")
            return outs

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


def _timed(call, count=REPEATS):
    """Wall ms and minor page faults of each of count calls, after one
    untimed call."""
    call()
    return tuple(zip(*(_once(call) for _ in range(count))))


def _heap_pad(seed):
    """Blocks that move where an import places what it allocates, drawn from
    seed: one of 0 to 64 KiB from malloc, and 0 to 16 KiB of bytes objects
    of each of 32 sizes from 34 to 530 bytes, in pymalloc's size classes
    from 48 bytes up."""
    draw = random.Random(seed).randrange
    return [bytearray(draw(1 << 16))] + [bytes(size) for size in range(1, 513, 16)
                                         for _ in range(draw(16384 // (size + 33) + 1))]


def _serve(conn, src_dir, seed):
    """The fork server: holds _heap_pad(seed) in _PAD, imports the
    fastseries of src_dir and says so on conn; then each request (func,
    args) from conn runs in a child of its own, which sends func(*args)
    back itself; None, after the child, says it failed."""
    global _PAD
    _PAD = _heap_pad(seed)
    import_fastseries(src_dir)
    conn.send(True)
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
def _fork_server(src_dir, shift=0, seed=0):
    """A new interpreter (no tree but src_dir's) that runs each call in a
    child forked for it alone, so every child starts from the same heap:
    yields forked(func, *args), func(*args) in such a child, for a
    module-level func.  The interpreter starts with an environment entry
    SHIFT_VAR of shift bytes, which moves where its stack starts, and holds
    _heap_pad(seed) before it imports the tree."""
    context = multiprocessing.get_context("spawn")
    conn, theirs = context.Pipe()
    server = context.Process(target=_serve, args=(theirs, src_dir, seed), daemon=True)
    os.environ[SHIFT_VAR] = "x" * shift
    try:
        server.start()
    finally:
        del os.environ[SHIFT_VAR]
    theirs.close()
    try:
        conn.recv()
    except EOFError:  # the server could not import the tree, and said why
        sys.exit(1)

    def forked(func, *args):
        conn.send((func, args))
        if (result := conn.recv()) is None:
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
        unit = (plan and plan.k) or N  # a fallback plan's k is 0
        return {**row, "unit_order": unit, "main_units": float(main_term_units(led, unit)),
                **_instrumented(run)}


def _host():
    from fastseries import fft_core
    return {"cpu": _cpu_model(), "usable_cpus": fft_core._usable_cpus(),
            "numpy": np.__version__, "python": platform.python_version()}


def measure(src_dir, sizes=SIZES):
    """The host header and the rows of every cell at every order."""
    rows = []
    with _fork_server(src_dir) as forked:
        for N in sizes:
            mn = forked(_product_ms, N)
            rows += [forked(_cell_row, N, op, name, mn) for op, name in CELLS]
        return forked(_host), rows


def _output(result):
    """The bytes a cell's call made: a series' coefficients, the text the
    writer wrote or the files the CLI wrote."""
    if isinstance(result, io.StringIO):
        return result.getvalue().encode()
    if isinstance(result, tuple):
        return b"".join(pathlib.Path(path).read_bytes() for path in result)
    return np.ascontiguousarray(result.coeffs, dtype=np.complex128).tobytes()


def _paired_call(N, op, name, cpu):
    """One tree's side of a pair, on the CPU cpu: the output of an untimed
    call of cell (op, plan name) at order N, and the best ms of PAIRED_TIMED
    calls after another untimed one, which drop what they make."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # move there, then let it run on all again
    os.sched_setaffinity(0, allowed)
    with tempfile.TemporaryDirectory() as tmp:
        _, run = _cell(N, op, name, tmp)
        output = _output(run(None))
        ms, _ = _timed(lambda: run(None), PAIRED_TIMED)
        return min(ms), output


def _difference(op, parent, change):
    """The largest difference of the values of two outputs of op, scaled by
    1 + max|parent|; inf when they hold different counts."""
    if op in ("write", "cli"):  # series text: '#order n', then 'i<TAB>re<TAB>im' lines
        parent, change = (np.loadtxt(io.BytesIO(text), comments="#", usecols=(1, 2), ndmin=2)
                          @ np.array([1, 1j]) for text in (parent, change))
    else:
        parent, change = (np.frombuffer(coeffs, np.complex128) for coeffs in (parent, change))
    if parent.shape != change.shape:
        return float("inf")
    scale = 1.0 + float(np.max(np.abs(parent), initial=0.0))
    return float(np.max(np.abs(change - parent), initial=0.0)) / scale


def _paired_row(N, op, name, pairs):
    """The row of cell (op, plan name) at order N from its pairs (change ms,
    parent ms, scaled difference of the outputs or None)."""
    change, parent, diffs = zip(*pairs)
    diffs = [d for d in diffs if d is not None]
    ratios = [c / p for c, p in zip(change, parent)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    resampled = np.random.default_rng(0).choice(ratios, (BOOTSTRAP, len(ratios)))
    return {"op": op, "plan": name, "N": N,
            "parent_ms": statistics.median(parent), "change_ms": statistics.median(change),
            "ratios": ratios, "ratio_median": median, "ratio_q1": q1, "ratio_q3": q3,
            "ci95": np.percentile(np.median(resampled, axis=1), [2.5, 97.5]).tolist(),
            "change_won": sum(r < 1 for r in ratios),
            "outputs_equal": not diffs, "max_diff": max(diffs, default=None)}


def measure_pairs(src_dir, parent_src, sizes=SIZES):
    """The host header and the rows of every cell at every order, paired.
    Pair j of every cell runs on two new servers, both started with the
    same stack shift (0 to 4080 bytes) and heap pad seed, drawn anew for
    each j: a tree's speed can hang on where its stack and heap lie by
    several percent, either way."""
    cells = [(N, op, name) for N in sizes for op, name in CELLS]
    pairs = {cell: [] for cell in cells}
    cpus = sorted(os.sched_getaffinity(0))
    rng = np.random.default_rng(0)
    layouts = zip((rng.integers(0, 256, PAIRS) * 16).tolist(), rng.integers(0, 1 << 32, PAIRS).tolist())
    for j, layout in enumerate(layouts):
        with _fork_server(src_dir, *layout) as change, _fork_server(parent_src, *layout) as parent:
            for N, op, name in cells:
                made = {}
                for forked in (change, parent) if j % 2 == 0 else (parent, change):
                    made[forked] = forked(_paired_call, N, op, name, cpus[j // 2 % len(cpus)])
                (c, c_out), (p, p_out) = made[change], made[parent]
                pairs[N, op, name].append((c, p, None if c_out == p_out else _difference(op, p_out, c_out)))
            host = change(_host)
    return host, [_paired_row(*cell, pairs[cell]) for cell in cells]


def _print_pairs(label, host, rows):
    print(f"# {label}: {PAIRS} pairs, best of {PAIRED_TIMED} calls per tree; {host['cpu']}, "
          f"{host['usable_cpus']} usable CPUs, numpy {host['numpy']}, Python {host['python']}\n"
          f"# {'N':>6} {'cell':<19} parent ms change ms  ratio [q1, q3]         95% interval"
          "       won  outputs")
    for r in rows:
        print(f"# {r['N']:>6} {r['op'] + ' ' + (r['plan'] or ''):<19} {r['parent_ms']:>9.3f} "
              f"{r['change_ms']:>9.3f}  {r['ratio_median']:.3f} [{r['ratio_q1']:.3f}, {r['ratio_q3']:.3f}]"
              f"  [{r['ci95'][0]:.3f}, {r['ci95'][1]:.3f}] {r['change_won']:>2}/{PAIRS:<2}  "
              + ("equal" if r["outputs_equal"] else f"max_diff {r['max_diff']:.1e}"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir")
    parser.add_argument("--ab", metavar="PARENT_SRC")
    parser.add_argument("--label")
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_ladder.json"))
    args = parser.parse_args(argv)
    sizes = [int(s) if s.strip().isdecimal() else 0 for s in args.sizes.split(",")]
    if min(sizes) < 1:
        sys.exit(f"error: --sizes takes a comma list of positive integers, not {args.sizes!r}")
    if args.ab:
        label = args.label or f"{args.src_dir} vs {args.ab}"
        host, rows = measure_pairs(args.src_dir, args.ab, sizes)
        _print_pairs(label, host, rows)
        run = {"label": label, "host": host, "pairs": PAIRS, "repeats": PAIRED_TIMED, "rows": rows}
    else:
        label = args.label or args.src_dir
        host, rows = measure(args.src_dir, sizes)
        run = {"label": label, "host": host, "repeats": REPEATS, "rows": rows}
    runs = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            runs = [old for old in json.load(f)["runs"] if old["label"] != label]
    runs.append(run)
    with open(args.out, "w") as f:
        json.dump({"runs": runs}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
