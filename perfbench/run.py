"""Benchmark harness for fastseries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` next to
this directory, never from anywhere else; without it the harness exits with
an error before measuring anything.  It writes only under ``perfbench/out/``.

One process, one thread, one caller: each call is issued when the previous
one returned (a closed loop).  A cycle is one call each of exp, pow, inv,
log and the CLI (workloads.py) on one pool entry; cycles repeat until
``--seconds`` have passed and the run has made a whole number of passes
over the 40-entry pool.  Every call is checked
outside its timed interval (gate.py); a call that raises or fails its check
counts in ``failed``.

--trace 0 prints the end-to-end metrics.  --trace 1 makes each cycle twice,
plain and then traced: the traced cycles run with spans around every layer
(spans.py) and give the per-layer metrics.  The last line of standard
output is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_library():
    """Import fastseries from this checkout's src/, single-threaded."""
    if not os.path.isfile(os.path.join(SRC, "fastseries", "__init__.py")):
        sys.exit(f"error: no fastseries sources under {SRC}")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import fastseries
    if os.path.dirname(os.path.dirname(os.path.abspath(fastseries.__file__))) != SRC:
        sys.exit(f"error: fastseries imported from {fastseries.__file__}, not {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: order divisor for the self-test, and the set-up timing child
    parser.add_argument("--shrink", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import_library()
    import harness
    import workloads
    if args.workload not in workloads.SPECS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.SPECS)}")
    if args.setup_only:
        harness.setup_in_fresh_dir(args.workload, args.seed, args.shrink)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    result, lines = harness.measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace), shrink=args.shrink)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
