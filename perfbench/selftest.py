"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json briefly, with all orders divided by
SHRINK, once untraced and once traced, and checks that each run reports
exactly the metrics BENCHMARK.json names, each with its unit, and that no
call fails.  Then it runs one workload with one coefficient of every direct
output perturbed and checks that the gate counts those calls as failed.
Exits 0 when all checks hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import run

SHRINK = 16


def _perturb(op, out):
    """One coefficient off by a relative 1e-6 (the CLI's exit code is left
    alone; its output file is compared bit for bit elsewhere)."""
    if op == "cli":
        return out
    out = np.array(out, copy=True)
    out[out.size // 3] += 1e-6 * (1.0 + float(np.max(np.abs(out))))
    return out


def main():
    run.import_library()
    import harness
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for name in names:
        for trace in (False, True):
            result, _ = harness.measure(name, 1, 0, trace, shrink=SHRINK)
            got = result["metrics"]
            where = f"{name} trace={int(trace)}"
            for metric, unit in wanted[trace].items():
                if metric not in got:
                    problems.append(f"{where}: missing {metric}")
                elif got[metric]["unit"] != unit:
                    problems.append(f"{where}: {metric} in {got[metric]['unit']}, not {unit}")
            for metric in sorted(set(got) - set(wanted[trace])):
                problems.append(f"{where}: unlisted metric {metric}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} calls failed")
            print(f"{where}: {len(got)} metrics, {result['attempted']} calls", flush=True)

    result, _ = harness.measure(names[0], 1, 0, False, shrink=SHRINK, corrupt=_perturb)
    if not (result["failed"] > 0 and not result["correct"]):
        problems.append(f"{names[0]}: perturbed outputs passed the gate")
    print(f"{names[0]} perturbed: {result['failed']} of {result['attempted']} calls failed")

    for line in problems:
        print("FAIL " + line)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
