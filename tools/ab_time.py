"""Interleaved A/B wall time of one fast operation in two source trees.

Usage:  python tools/ab_time.py PARENT_SRC CHANGE_SRC OP N [REPEATS] [--pinned]

OP is exp, pow, inv, log, write, read or cli; --pinned (exp and pow only)
runs them on cli.bench_plan's pinned k=16 plans instead of the default
choose_plan ones.  write times series_core.write_series into a string of
the fast_inverse output at order N, the outputs made once by the parent
tree, untimed, and fails unless both trees write the same bytes.  read
times series_core.read_series of the parent's text of those outputs, also
made once and untimed, and fails unless both trees read the same bytes.
cli times one in-process cli.main round trip, file in and file out,
alternating inv (even j) and log (odd j) at order N as the benchmark does,
on the file of cli.pow_input written once by the parent tree's
series_core.dump_series, and fails unless both trees write the same bytes.
Copies the fastseries package of each source tree (e.g. ``src`` of a second
checkout of the parent commit, and ``src`` of this one) into a temporary
directory under the names fastseries_parent and fastseries_change, and
imports both into this one process.  It then draws REPEATS inputs (default
12) with cli.exp_input (exp) or cli.pow_input (the others) from
default_rng(j), and calls the operation at order N on each input in both
trees, alternating which tree goes first; pow cycles through
cli.VERIFY_POWERS.  One untimed call per tree comes first.

It prints a header with the number of CPUs this process may use (the
Newton layer's transform pairs and long series writes run on two threads
only when it may use two), the median milliseconds of each tree, the median and quartiles of
the paired ratios change/parent with the number of pairs the change won,
and the largest difference between the two trees' outputs, scaled by
1 + max|parent output|.  For write and read it prints instead that the
bytes are equal and, for write, for each tree the share of floats that
took the writer's exact '%.17g' fallback.  Both trees share the process,
its allocator and numpy's FFT plan cache, so whole-host drift moves both
sides of a pair alike; that is what makes a paired ratio steadier than two
separate runs.
"""

from __future__ import annotations

import functools
import importlib
import io
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

OPS = {"exp": "fast_exp", "pow": "fast_pow", "inv": "fast_inverse", "log": "fast_log",
       "write": "write_series", "read": "read_series", "cli": "main"}
TEXT_OPS = ("write", "read", "cli")  # compared by their bytes
SIDES = ("parent", "change")


def _load(src_dir, name, tmp):
    """Import SRC_DIR/fastseries as the package ``name`` from a copy in tmp."""
    pkg = os.path.join(os.path.abspath(src_dir), "fastseries")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"error: no fastseries package under {src_dir}")
    shutil.copytree(pkg, os.path.join(tmp, name), ignore=shutil.ignore_patterns("__pycache__"))
    return tuple(importlib.import_module(f"{name}.{module}")
                 for module in ("cli", "fast_ops", "series_core"))


def _written(series_core, coeffs):
    buf = io.StringIO()
    series_core.write_series(coeffs, buf)
    return buf.getvalue()


def _read(series_core, text):
    return series_core.read_series(io.StringIO(text)).coeffs.tobytes()


def _round_trip(cli, argv):
    """Run cli.main on argv; the output file's path."""
    if cli.main(argv) != 0:
        sys.exit(f"error: {cli.__name__} failed on {argv}")
    return argv[2]


def _inverses(cli, fast_ops, N, repeats):
    return [fast_ops.fast_inverse(cli.pow_input(np.random.default_rng(j), N), N).coeffs
            for j in range(repeats)]


def _fallback_share(series_core, outputs):
    """Share of the floats in outputs that the writer's fast path sends to
    '%.17g'."""
    fields = series_core._g17_fields
    values = np.concatenate([c.view(np.float64) for c in outputs])
    slow = 0
    for start in range(0, values.size, 4096):
        part = values[start:start + 4096]
        shape = (part.size, series_core._FIELD)
        slow += fields(part, np.empty(shape, dtype=np.uint8), np.empty(shape, dtype=bool))
    return slow / values.size


def _calls(cli, fast_ops, series_core, op, N, repeats, pinned, outputs=None):
    """One zero-argument call per input j < repeats; for cli, outputs are
    the input paths."""
    if op == "cli":
        out = os.path.join(os.path.dirname(outputs[0]), f"{cli.__package__}.out")
        return [functools.partial(_round_trip, cli, [("inv", "log")[j % 2], path, out, "--n", str(N)])
                for j, path in enumerate(outputs)]
    if op == "write":
        return [functools.partial(_written, series_core, c) for c in outputs]
    if op == "read":
        return [functools.partial(_read, series_core, text) for text in outputs]
    fn = getattr(fast_ops, OPS[op])
    if op in ("exp", "pow"):
        fn = functools.partial(fn, plan=cli.bench_plan(op, N) if pinned else None)
    calls = []
    for j in range(repeats):
        rng = np.random.default_rng(j)
        if op == "exp":
            calls.append(lambda x=cli.exp_input(rng, N): fn(x, N))
        elif op == "pow":
            C = cli.VERIFY_POWERS[j % len(cli.VERIFY_POWERS)]
            calls.append(lambda x=cli.pow_input(rng, N), C=C: fn(x, C, N))
        else:
            calls.append(lambda x=cli.pow_input(rng, N): fn(x, N))
    return calls


def _timed(call):
    start = time.perf_counter()
    out = call()
    return (time.perf_counter() - start) * 1e3, out


def compare(parent_src, change_src, op, N, repeats, pinned=False):
    """(ms per side, change/parent ratio per pair, largest scaled difference,
    the share of floats each tree's writer sent to '%.17g' for write).  For
    write, read and cli the difference is the number of pairs whose bytes
    differ."""
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            trees = [_load(src, name, tmp) for src, name in
                     zip((parent_src, change_src), ("fastseries_" + s for s in SIDES))]
        finally:
            sys.path.remove(tmp)
        outputs = texts = None
        if op in ("write", "read"):
            outputs = _inverses(*trees[0][:2], N, repeats)
            texts = [_written(trees[0][2], c) for c in outputs] if op == "read" else None
        elif op == "cli":
            outputs = [os.path.join(tmp, f"in{j}.txt") for j in range(repeats)]
            for j, path in enumerate(outputs):
                trees[0][2].dump_series(trees[0][0].pow_input(np.random.default_rng(j), N), path)
        calls = [_calls(*tree, op, N, repeats, pinned, texts or outputs) for tree in trees]
        for side in calls:
            side[0]()
        ms = ([], [])
        diff = 0
        for j in range(repeats):
            outs = [None, None]
            for side in ((0, 1) if j % 2 == 0 else (1, 0)):
                t, outs[side] = _timed(calls[side][j])
                ms[side].append(t)
            if op == "cli":
                outs = [pathlib.Path(path).read_bytes() for path in outs]
            if op in TEXT_OPS:
                diff += outs[0] != outs[1]
            else:
                scale = 1.0 + float(np.max(np.abs(outs[0].coeffs)))
                diff = max(diff, float(np.max(np.abs(outs[1].coeffs - outs[0].coeffs))) / scale)
    shares = [_fallback_share(tree[2], outputs) for tree in trees] if op == "write" else None
    return ms, [b / a for a, b in zip(*ms)], diff, shares


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    pinned = "--pinned" in argv
    argv = [a for a in argv if a != "--pinned"]
    if (len(argv) not in (4, 5) or argv[2] not in OPS
            or pinned and argv[2] not in ("exp", "pow")):
        sys.exit(__doc__.split("\n\n")[1])
    parent_src, change_src, op, N = argv[0], argv[1], argv[2], int(argv[3])
    repeats = int(argv[4]) if len(argv) == 5 else 12
    if N < 1 or repeats < 1:
        sys.exit("error: N and REPEATS must be positive")
    ms, ratios, diff, shares = compare(parent_src, change_src, op, N, repeats, pinned)
    q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"{op} N={N} pairs={repeats}{' pinned' if pinned else ''} cpus={cpus}")
    for side, times in zip(SIDES, ms):
        print(f"{side} median_ms={statistics.median(times):.2f}")
    print(f"ratio change/parent median={statistics.median(ratios):.3f} "
          f"q1={q[0]:.3f} q3={q[2]:.3f} "
          f"change_faster={sum(r < 1 for r in ratios)}/{len(ratios)}")
    if op not in TEXT_OPS:
        print(f"max_diff={diff:.3e}")
        return 0
    for side, share in zip(SIDES, shares or ()):
        print(f"{side} fallback_share={share:.4f}")
    if diff:
        print(f"error: the trees {'read' if op == 'read' else 'wrote'} different bytes "
              f"in {diff} of {repeats} pairs")
        return 1
    print("bytes_equal=yes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
