"""Wall time per stage of pinned fast_exp / fast_pow, and the share of it
spent in the block-pair sums (block_engine._block_conv).

Usage:  python tools/block_share.py SRC_DIR N [REPEATS]

Imports fastseries from SRC_DIR, runs fast_exp and fast_pow at order N on
the pinned bench plans (cli.bench_plan: k = 16, n = m/8 for exp and m/4 for
pow) on cli.exp_input / cli.pow_input, and prints, for the fastest of
REPEATS runs (default 3), the call time and per top-level ledger stage its
wall time and the time spent in _block_conv.  Bootstrap calls into the fast
algorithms run inside the bootstrap stages and are counted there.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

import numpy as np

from source_tree import import_fastseries


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (2, 3):
        sys.exit(__doc__.split("\n\n")[1])
    import_fastseries(argv[0])
    from fastseries import CostLedger, block_engine, fast_exp, fast_pow
    from fastseries.cli import bench_plan, exp_input, pow_input

    N, repeats = int(argv[1]), int(argv[2]) if len(argv) == 3 else 3
    rng = np.random.default_rng(5)
    h, g = exp_input(rng, N), pow_input(rng, N)
    runs = {
        "exp": lambda led: fast_exp(h, N, plan=bench_plan("exp", N), ledger=led),
        "pow": lambda led: fast_pow(g, 0.3 + 0.7j, N, plan=bench_plan("pow", N), ledger=led),
    }
    conv, stage = block_engine._block_conv, CostLedger.stage
    top: list[str] = []
    in_conv, in_stage = Counter(), Counter()

    def timed_conv(*args, **kwargs):
        start = time.perf_counter()
        try:
            return conv(*args, **kwargs)
        finally:
            in_conv[top[-1] if top else ""] += time.perf_counter() - start

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
                in_stage[top.pop()] += time.perf_counter() - start

    block_engine._block_conv, CostLedger.stage = timed_conv, timed_stage
    try:
        for op, run in runs.items():
            best = None
            for _ in range(repeats):
                in_conv.clear()
                in_stage.clear()
                start = time.perf_counter()
                run(CostLedger())
                total = time.perf_counter() - start
                if best is None or total < best[0]:
                    best = (total, dict(in_stage), dict(in_conv))
            total, stages, convs = best
            print(f"{op} N={N}: {total * 1e3:.1f} ms, _block_conv "
                  f"{sum(convs.values()) * 1e3:.1f} ms")
            for tag, ms in stages.items():
                share = convs.get(tag, 0.0) / ms if ms else 0.0
                print(f"  {tag:<14} {ms * 1e3:8.1f} ms  _block_conv "
                      f"{convs.get(tag, 0.0) * 1e3:8.1f} ms ({share:.0%})")
    finally:
        block_engine._block_conv, CostLedger.stage = conv, stage
    return 0


if __name__ == "__main__":
    sys.exit(main())
