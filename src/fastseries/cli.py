"""Batch command-line front end.

Commands: exp, log, inv, pow transform a coefficient file; verify sweeps the
fast algorithms against the quadratic references and fails on a tolerance
breach; bench runs a pinned plan ladder and emits the stage budget table.
Exit codes: 0 success, 1 domain/precondition error or an order too large to
allocate, 2 I/O or parse error, 3 verification failure.

Reports are deterministic byte-for-byte for a fixed configuration: wall
clock never appears in them (timing, when requested, goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import fast_ops, oracle
from .cost_ledger import CostLedger, report_kv, report_text
from .errors import DomainError, FormatError, PlanError, UnsupportedLengthError
from .fast_ops import bench_plan
from .series_core import load_series, dump_series

VERIFY_TOL = 1e-8
VERIFY_POWERS = (2.0 + 0j, 0.5 + 0j, -1.0 + 0j, 0.3 + 0.7j)


def _disk_samples(rng, count):
    r = np.sqrt(rng.uniform(0.0, 1.0, count))
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.exp(1j * phi)


def exp_input(rng, size):
    """Random exponential argument: zero constant term, coefficients drawn
    from the closed unit disk with a geometric envelope.  The envelope keeps
    the spurious zeros of truncated prefixes away from the unit circle, so
    the logarithmic-derivative tail stays bounded and double precision can
    reach the stated tolerances at every test size."""
    h = np.zeros(size, dtype=np.complex128)
    h[1:] = _disk_samples(rng, size - 1) * (0.9 ** np.arange(1, size))
    return h


def pow_input(rng, size):
    """Random power/inverse argument: constant term 1, unit-disk coefficients
    damped by 0.5**i, which certifies the series has no zeros inside the
    unit circle and keeps reciprocal-type outputs representable."""
    h = np.zeros(size, dtype=np.complex128)
    h[0] = 1.0
    h[1:] = _disk_samples(rng, size - 1) * (0.5 ** np.arange(1, size))
    return h


def _max_err(got, want):
    scale = 1.0 + float(np.max(np.abs(want))) if want.size else 1.0
    return float(np.max(np.abs(got - want))) / scale if want.size else 0.0


# CLI command -> name of its fast_ops.fast_* and oracle.oracle_* functions
_OPS = {"exp": "exp", "log": "log", "inv": "inverse", "pow": "pow"}


def _run(command, algorithm, head, n, **options):
    """Call a command's fast or reference function on (*head, n); the
    function is looked up at call time."""
    if algorithm == "oracle":
        return getattr(oracle, "oracle_" + _OPS[command])(*head, n)
    return getattr(fast_ops, "fast_" + _OPS[command])(*head, n, **options)


def run_verify(sizes, seed, report_path=None, out=None):
    """Fast-vs-reference sweep; returns the worst normalized error and writes
    one line per check to out, sys.stdout when None."""
    out = sys.stdout if out is None else out
    lines = [f"verify seed={seed} tol={VERIFY_TOL:g}"]
    worst = 0.0
    for size in sizes:
        rng = np.random.default_rng(seed + size)
        h = exp_input(rng, size)
        g = pow_input(rng, size)
        checks = [("exp", (h,), ""), ("inv", (g,), ""), ("log", (g,), "")]
        checks += [("pow", (g, C), f" C={C:g}") for C in VERIFY_POWERS]
        for command, head, tag in checks:
            err = _max_err(_run(command, "fast", head, size).coeffs,
                           _run(command, "oracle", head, size).coeffs)
            worst = max(worst, err)
            lines.append(f"{command} N={size}{tag} max_err={err:.3e}")
    status = "ok" if worst <= VERIFY_TOL else "FAIL"
    lines.append(f"verify result={status} worst={worst:.3e}")
    text = "\n".join(lines) + "\n"
    out.write(text)
    if report_path:
        with open(report_path, "w") as fp:
            fp.write(text)
    return worst


def run_bench(sizes, seed, k=None, n=None, report_path=None, out=None):
    """Stage budget tables for exp and pow across a size ladder, to out."""
    out = sys.stdout if out is None else out
    kv_parts = [f"bench seed={seed}"]
    for size in sizes:
        for algorithm in ("exp", "pow"):
            plan = bench_plan(algorithm, size, k=k, n=n)
            rng = np.random.default_rng(seed + size)
            ledger = CostLedger()
            if algorithm == "exp":
                h = exp_input(rng, size)
                fast_ops.fast_exp(h, size, plan=plan, ledger=ledger)
            else:
                g = pow_input(rng, size)
                fast_ops.fast_pow(g, 0.3 + 0.7j, size, plan=plan, ledger=ledger)
            out.write(f"== {algorithm} N={size} ==\n")
            out.write(report_text(ledger, plan))
            kv_parts.append(f"[{algorithm} N={size}]")
            kv_parts.append(report_kv(ledger, plan).rstrip("\n"))
    text = "\n".join(kv_parts) + "\n"
    if report_path:
        with open(report_path, "w") as fp:
            fp.write(text)
    return text


def _transform(args):
    series = load_series(args.input)
    ledger = CostLedger() if args.report else None
    # inv and log run no block plan; an oracle run checks an override but runs none
    plan = None
    if args.command in ("exp", "pow"):
        if args.block_size is not None or args.bootstrap_order is not None:
            plan = bench_plan(args.command, args.n, k=args.block_size, n=args.bootstrap_order)
        elif args.algorithm == "fast":
            plan = fast_ops.choose_plan(args.n)
    options = {"ledger": ledger} if plan is None else {"ledger": ledger, "plan": plan}
    head = (series, complex(args.power_re, args.power_im)) if args.command == "pow" else (series,)
    result = _run(args.command, args.algorithm, head, args.n, **options)

    dump_series(result, args.output)
    if args.report:
        with open(args.report, "w") as fp:
            if args.algorithm == "oracle" or plan is None or plan.fallback:
                fp.write(f"plan.fallback=1\nplan.target={args.n}\n")
            else:
                fp.write(report_kv(ledger, plan))
    return 0


def _sizes(text):
    """argparse type of --sizes: a comma list of positive orders."""
    parts = text.split(",")
    if not all(p.isascii() and p.isdigit() and int(p) > 0 for p in parts):
        raise argparse.ArgumentTypeError(f"not a comma list of positive orders: {text!r}")
    return [int(p) for p in parts]


def build_parser():
    parser = argparse.ArgumentParser(prog="fastseries",
                                     description="truncated power series toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="input series file")
        p.add_argument("output", help="output series file")
        p.add_argument("--n", type=int, required=True, help="output order")
        p.add_argument("--algorithm", choices=("fast", "oracle"), default="fast")
        p.add_argument("--report", default=None, help="write the budget report here")

    def add_plan(p):  # inv and log run no block plan
        p.add_argument("--block-size", type=int, default=None)
        p.add_argument("--bootstrap-order", type=int, default=None)

    for name in ("log", "inv"):
        add_common(sub.add_parser(name))
    p_exp = sub.add_parser("exp")
    add_common(p_exp)
    add_plan(p_exp)
    p_pow = sub.add_parser("pow")
    add_common(p_pow)
    add_plan(p_pow)
    p_pow.add_argument("--power-re", type=float, required=True)
    p_pow.add_argument("--power-im", type=float, default=0.0)

    p_verify = sub.add_parser("verify")
    p_verify.add_argument("--sizes", type=_sizes, default="64,256,1024")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--report", default=None)

    p_bench = sub.add_parser("bench")
    p_bench.add_argument("--sizes", type=_sizes, default="256,512,1024,2048")
    p_bench.add_argument("--seed", type=int, default=1)
    add_plan(p_bench)
    p_bench.add_argument("--report", default=None)
    p_bench.add_argument("--timing", action="store_true",
                         help="print wall clock to stderr (advisory only)")
    return parser


@functools.cache
def _parser():
    """The process's one parser: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command in ("exp", "log", "inv", "pow"):
            return _transform(args)
        if args.command == "verify":
            worst = run_verify(args.sizes, args.seed, report_path=args.report)
            return 0 if worst <= VERIFY_TOL else 3
        start = time.perf_counter()  # bench, the last command
        run_bench(args.sizes, args.seed, k=args.block_size, n=args.bootstrap_order,
                  report_path=args.report)
        if args.timing:
            print(f"bench wall clock: {time.perf_counter() - start:.2f}s", file=sys.stderr)
        return 0
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PlanError, UnsupportedLengthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
