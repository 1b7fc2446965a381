"""Noise floor of the host the benchmark runs on.

    python3 perfbench/noise.py

Times a fixed pure-Python loop and the same fast_exp call (pinned k=16
plan, N=4096, one input) REPEATS times each and prints min, median, max and
(max - min) / median.  Neither depends on the input, so their scatter is
the host's, which per-call differences between commits must exceed before
they mean anything.
"""

from __future__ import annotations

import statistics
import time

import run

REPEATS = 20


def _python_loop():
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    return acc


def _summary(label, times_ms):
    lo, med, hi = min(times_ms), statistics.median(times_ms), max(times_ms)
    print(f"{label}: n={len(times_ms)} min={lo:.1f} ms median={med:.1f} ms "
          f"max={hi:.1f} ms (max-min)/median={(hi - lo) / med:.2f}")


def main():
    run.import_library()
    import numpy as np
    from fastseries import cli, fast_ops

    def timed(fn):
        out = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            out.append((time.perf_counter() - t0) * 1e3)
        return out

    h = cli.exp_input(np.random.default_rng(0), 4096)
    plan = cli.bench_plan("exp", 4096)
    _summary("python loop", timed(_python_loop))
    _summary("fast_exp k=16 N=4096", timed(lambda: fast_ops.fast_exp(h, 4096, plan=plan)))


if __name__ == "__main__":
    main()
