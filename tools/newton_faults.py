"""Wall time and minor page faults of the Newton layer, per call.

Usage:  python tools/newton_faults.py SRC_DIR N [REPEATS]

Imports fastseries from SRC_DIR and calls fast_inverse and then fast_log at
order N on cli.pow_input, first once and then REPEATS more times each
(default 20).  For each function it prints the first call's milliseconds and
minor page faults, then the median, lowest and highest of the repeated
calls.  Faults are read with resource.getrusage(RUSAGE_SELF) before and
after each call, so they count this process alone; a fault is a page the
call touched for the first time, e.g. a fresh array the allocator had
handed back to the kernel.

The "transform faults" column counts the faults taken inside the leaf
transforms fft_core._forward/_backward (wrapped for this process only),
which make every pocketfft call of the Newton layer; each is read with
getrusage(RUSAGE_THREAD) in the thread that made the call: the Newton
layer runs some transforms on a thread it starts for a transform pair, at
the same time as the caller's, and a process-wide count would give the
faults of both to each.  The process-wide count also holds the faults of
those threads' own stacks.
pocketfft allocates its own scratch on every call, and whether that
scratch faults depends on what the process freed before: glibc hands a
freed block back to the kernel unless a larger block was freed earlier.
So a process that only runs these calls can fault there, where one that
also runs larger work (the benchmark's) does not.
"""

from __future__ import annotations

import resource
import statistics
import sys
import threading
import time

import numpy as np

from source_tree import import_fastseries


def _faults(who=resource.RUSAGE_SELF) -> int:
    return resource.getrusage(who).ru_minflt


def _count_in(counter, fn):
    lock = threading.Lock()

    def wrapper(*args, **kwargs):
        before = _faults(resource.RUSAGE_THREAD)
        try:
            return fn(*args, **kwargs)
        finally:
            faults = _faults(resource.RUSAGE_THREAD) - before
            with lock:
                counter[0] += faults
    return wrapper


def _measure(call, in_fft) -> tuple[float, int, int]:
    in_fft[0] = 0
    before, start = _faults(), time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1e3, _faults() - before, in_fft[0]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (2, 3):
        sys.exit(__doc__.split("\n\n")[1])
    import_fastseries(argv[0])
    from fastseries import fast_inverse, fast_log, fft_core
    from fastseries.cli import pow_input

    N, repeats = int(argv[1]), int(argv[2]) if len(argv) == 3 else 20
    g = pow_input(np.random.default_rng(5), N)
    in_fft = [0]
    saved = fft_core._forward, fft_core._backward
    fft_core._forward, fft_core._backward = (_count_in(in_fft, fn) for fn in saved)
    try:
        print(f"N={N} repeats={repeats}")
        for name, fn in (("fast_inverse", fast_inverse), ("fast_log", fast_log)):
            ms, faults, fft_faults = _measure(lambda: fn(g, N), in_fft)
            print(f"{name} first: {ms:.2f} ms, {faults} faults, {fft_faults} in transforms")
            runs = [_measure(lambda: fn(g, N), in_fft) for _ in range(repeats)]
            for col, label, fmt in ((0, "ms", ".2f"), (1, "faults", ".0f"),
                                    (2, "transform faults", ".0f")):
                values = [run[col] for run in runs]
                print(f"{name} repeated {label}: median {statistics.median(values):{fmt}}"
                      f" min {min(values):{fmt}} max {max(values):{fmt}}")
    finally:
        fft_core._forward, fft_core._backward = saved
    return 0


if __name__ == "__main__":
    sys.exit(main())
