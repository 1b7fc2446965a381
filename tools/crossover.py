"""Wall time of the quadratic references against the fast paths, per order,
the accuracy of the two bootstrap inverses, and the wall time of a transform
pair and of the series writer on one thread and on two: the measurements
behind fast_ops.ORACLE_MAX_ORDER, ORACLE_INVERSE_MAX_ORDER and
NEWTON_BASE_ORDER, fft_core._PAIR_MIN_ORDER and
series_core._THREAD_MIN_ROWS.

Usage:  python tools/crossover.py SRC_DIR [SIZES]

Imports fastseries from SRC_DIR and, at each order n of SIZES (a comma
list; default 256,512,768,1024,1536,2048,3072,4096), times oracle_exp
against fast_exp on its default plan, on the exp argument cli.exp_input, and
oracle_inverse against fast_inverse on that argument's exponential, the
input a bootstrap.I prefix gets.  These are the two ways the bootstrap can
make an order-n prefix.  Each order draws REPEATS = 15 inputs from
default_rng(n + j) and calls both functions of a pair on each, alternating
which goes first, after one untimed call of each.

It prints a host header (CPU model, usable CPUs, numpy, Python) and one row
per order: the median milliseconds of each reference and of its fast path,
and the number of pairs the reference won.

A second table times where fast_inverse's Newton steps start.  For each
base b of BASES (8 to 128) it calls fast_inverse at BASE_PROBE_ORDER = 256,
on the same kind of input, with fast_ops.NEWTON_BASE_ORDER set to b (the
coefficient recurrence makes the prefix of order b, Newton goes on from
there) and set to 1 (Newton from order 1), BASE_REPEATS = 100 pairs
alternating as above, and prints both medians, the pairs the recurrence's
prefix won and the median of the paired ratios, prefix / from 1; the base
with the least ratio is the one to take.

A third table gives the error of fast_exp and fast_pow on the closed-form
family of ROADMAP.md at FAMILY_ORDER = 4096, seeds 7 to 10, on the pinned
plans of cli.bench_plan, whose bootstraps invert at orders 256 (exp) and
512 (pow).  Each is run twice: with the bootstrap inverses from
oracle_inverse up to ORACLE_INVERSE_MAX_ORDER as the tree sets it, and
with ORACLE_INVERSE_MAX_ORDER = 0, so that fast_inverse makes them at every
order.  The family is g = prod over i of (1 - a_i x)**c_i, its factors
multiplied by direct convolution; exp takes log g and is checked against
g, pow takes g with C = 0.3+0.7j and is checked against the factors with
exponents C*c_i.  The error is max|err| / max|reference|.

A fourth table times fft_core.dft_pair, the transform pair of the Newton
layer, at each order L of PAIR_ORDERS on p of L and q of L/2 coefficients,
as a Newton step pairs them: serially (fft_core._PAIR_MIN_ORDER set above
L) and on two threads (set to 1), PAIR_REPEATS = 300 pairs alternating as
above.  It prints the median microseconds of each and the median of the
paired ratios, two threads / serial, with its quartiles (the inclusive
method, so they stay inside the sample).

A fifth table times series_core.write_series into a string, at each row
count of WRITE_ROWS (2^11 to 2^16), of the dense series fast_inverse makes
of cli.pow_input drawn from default_rng(rows), the series the CLI writes:
serially (series_core._THREAD_MIN_ROWS set above the row count) and on two
threads (set to 1), WRITE_REPEATS = 40 pairs alternating as above, printed
as the fourth.  _THREAD_MIN_ROWS is the least row count from which the
ratio's third quartile stays below 1.  On a host with one usable CPU
neither runs a second thread, and a note takes the place of both tables.

The first three tables are written as the comment beside the constants in
fast_ops, and the fourth as the one beside _PAIR_MIN_ORDER in fft_core, so
they can be pasted there; the fifth is not pasted anywhere.
Running it on the parent's SRC_DIR as well compares the references of two
trees, one process each.
"""

from __future__ import annotations

import io
import os
import platform
import statistics
import sys
import time

import numpy as np

from source_tree import import_fastseries

SIZES = (256, 512, 768, 1024, 1536, 2048, 3072, 4096)
REPEATS = 15
BASES = (8, 16, 32, 64, 128)
BASE_PROBE_ORDER = 256
BASE_REPEATS = 100
FAMILY_ORDER = 4096
FAMILY_SEEDS = (7, 8, 9, 10)
# (r, c) of the family's factors, each with a = r*exp(2*pi*i*rng.uniform())
FAMILY_FACTORS = ((1.0, 0.5 + 0.3j), (0.999, -1.2), (1.0, 0.25 - 0.4j))
FAMILY_POWER = 0.3 + 0.7j
PAIR_ORDERS = (4096, 6144, 8192, 12288, 16384, 32768, 65536)
PAIR_REPEATS = 300
WRITE_ROWS = tuple(1 << a for a in range(11, 17))
WRITE_REPEATS = 40


def _import(src_dir):
    import_fastseries(src_dir)
    from fastseries import cli, fast_ops, fft_core, oracle, series_core
    return cli, fast_ops, fft_core, oracle, series_core


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _pair(ref, fast, j):
    """Milliseconds of ref() and fast(), alternating which runs first."""
    ms = {}
    for call in ((ref, fast) if j % 2 == 0 else (fast, ref)):
        start = time.perf_counter()
        call()
        ms[call] = (time.perf_counter() - start) * 1e3
    return ms[ref], ms[fast]


def _row(pairs):
    """'ref / fast  won' over a list of (ref ms, fast ms)."""
    ref, fast = zip(*pairs)
    won = sum(r < f for r, f in pairs)
    return f"{statistics.median(ref):6.2f} / {statistics.median(fast):6.2f} {won:3d}/{len(pairs)}"


def measure(cli, fast_ops, oracle, n):
    """(exp pairs, inverse pairs) of (reference ms, fast ms) at order n."""
    exp_pairs, inv_pairs = [], []
    for j in range(-1, REPEATS):
        h = cli.exp_input(np.random.default_rng(n + max(j, 0)), n)
        f = fast_ops.fast_exp(h, n).coeffs
        e = _pair(lambda: oracle.oracle_exp(h, n), lambda: fast_ops.fast_exp(h, n), j)
        i = _pair(lambda: oracle.oracle_inverse(f, n), lambda: fast_ops.fast_inverse(f, n), j)
        if j >= 0:  # j = -1 is the untimed warm-up
            exp_pairs.append(e)
            inv_pairs.append(i)
    return exp_pairs, inv_pairs


def measure_base(cli, fast_ops, b):
    """(recurrence prefix ms, Newton from 1 ms) pairs of fast_inverse at
    BASE_PROBE_ORDER, with the Newton steps started at base b and at 1."""
    n, pairs = BASE_PROBE_ORDER, []
    saved = fast_ops.NEWTON_BASE_ORDER

    def inverse(f, base):
        fast_ops.NEWTON_BASE_ORDER = base
        fast_ops.fast_inverse(f, n)

    try:
        for j in range(-1, BASE_REPEATS):
            f = fast_ops.fast_exp(cli.exp_input(np.random.default_rng(n + max(j, 0)), n), n).coeffs
            pair = _pair(lambda: inverse(f, b), lambda: inverse(f, 1), j)
            if j >= 0:
                pairs.append(pair)
    finally:
        fast_ops.NEWTON_BASE_ORDER = saved
    return pairs


def _binomial(a, c, n):
    """(1 - a*x)**c mod x**n from t_j = t_{j-1} * (j-1-c) * a / j."""
    j = np.arange(1, n)
    t = np.ones(n, dtype=np.complex128)
    t[1:] = np.cumprod((j - 1 - c) * a / j)
    return t


def family(seed, n):
    """(log g, g, g**FAMILY_POWER) mod x**n for the family member of seed."""
    rng = np.random.default_rng(seed)
    j = np.arange(1, n)
    log_g = np.zeros(n, dtype=np.complex128)
    g, g_pow = np.ones(1, dtype=np.complex128), np.ones(1, dtype=np.complex128)
    for r, c in FAMILY_FACTORS:
        a = r * np.exp(2j * np.pi * rng.uniform())
        log_g[1:] -= c * a ** j / j
        g = np.convolve(g, _binomial(a, c, n))[:n]
        g_pow = np.convolve(g_pow, _binomial(a, FAMILY_POWER * c, n))[:n]
    g[0] = g_pow[0] = 1.0
    return log_g, g, g_pow


def _error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def family_errors(cli, fast_ops, inverse_max):
    """{op: [error per seed]} of fast_exp and fast_pow on the family at
    FAMILY_ORDER on the pinned plans, with ORACLE_INVERSE_MAX_ORDER set to
    inverse_max."""
    n, errors = FAMILY_ORDER, {"exp": [], "pow": []}
    saved = fast_ops.ORACLE_INVERSE_MAX_ORDER
    fast_ops.ORACLE_INVERSE_MAX_ORDER = inverse_max
    try:
        for seed in FAMILY_SEEDS:
            log_g, g, g_pow = family(seed, n)
            f = fast_ops.fast_exp(log_g, n, plan=cli.bench_plan("exp", n)).coeffs
            p = fast_ops.fast_pow(g, FAMILY_POWER, n, plan=cli.bench_plan("pow", n)).coeffs
            errors["exp"].append(_error(f, g))
            errors["pow"].append(_error(p, g_pow))
    finally:
        fast_ops.ORACLE_INVERSE_MAX_ORDER = saved
    return errors


def print_bases(cli, fast_ops):
    """The table of Newton bases."""
    print(f"# fast_inverse at order {BASE_PROBE_ORDER}, median ms of {BASE_REPEATS} interleaved "
          "pairs, Newton from")
    print("# the recurrence's order-b prefix / from order 1, pairs the prefix won, median ratio")
    for b in BASES:
        pairs = measure_base(cli, fast_ops, b)
        ratio = statistics.median(p / one for p, one in pairs)
        print(f"#   b = {b:3d}   {_row(pairs)}   {ratio:.3f}", flush=True)


def _serial_and_threaded(module, constant, size, call, repeats):
    """(serial us, two threads us) pairs of call() at size: module.constant,
    the size from which call() uses two threads, set above size and set to
    1, repeats pairs alternating as _pair does, after one untimed pair."""
    saved, pairs = getattr(module, constant), []

    def run(threshold):
        setattr(module, constant, threshold)
        call()

    try:
        for j in range(-1, repeats):
            serial, paired = _pair(lambda: run(size + 1), lambda: run(1), j)
            if j >= 0:
                pairs.append((serial * 1e3, paired * 1e3))
    finally:
        setattr(module, constant, saved)
    return pairs


def measure_pair(fft_core, L):
    """(serial us, two threads us) pairs of dft_pair at order L."""
    rng = np.random.default_rng(L)
    p, q = rng.standard_normal((2, L)) + 1j * rng.standard_normal((2, L))
    q = q[: L // 2]
    out = np.empty((2, L), dtype=np.complex128)
    return _serial_and_threaded(fft_core, "_PAIR_MIN_ORDER", L,
                                lambda: fft_core.dft_pair(p, q, L, out[0], out[1]), PAIR_REPEATS)


def measure_write(cli, fast_ops, series_core, rows):
    """(serial us, two threads us) pairs of write_series at rows rows."""
    f = fast_ops.fast_inverse(cli.pow_input(np.random.default_rng(rows), rows), rows)
    return _serial_and_threaded(series_core, "_THREAD_MIN_ROWS", rows,
                                lambda: series_core.write_series(f, io.StringIO()), WRITE_REPEATS)


def _print_threads(sizes, measure, size_name):
    """The rows of a serial / two threads table: median us of each side and
    the median of the paired ratios, two threads / serial, [q1, q3]."""
    print(f"# {size_name:>7}   serial  threads   ratio")
    for size in sizes:
        pairs = measure(size)
        serial, paired = zip(*pairs)
        q1, q2, q3 = statistics.quantiles([b / a for a, b in pairs], n=4, method="inclusive")
        print(f"#   {size:5d}   {statistics.median(serial):6.0f}   {statistics.median(paired):6.0f}"
              f"   {q2:.2f} [{q1:.2f}, {q3:.2f}]", flush=True)


def print_threads(cli, fast_ops, fft_core, series_core):
    """The tables of transform pairs and of the writer."""
    if fft_core._usable_cpus() < 2:
        print("# one usable CPU: dft_pair and write_series run serially at every size")
        return
    print(f"# dft_pair of L and L/2 coefficients, median us of {PAIR_REPEATS} interleaved pairs,")
    print("# serial / two threads, and the ratio two threads / serial [q1, q3]")
    _print_threads(PAIR_ORDERS, lambda L: measure_pair(fft_core, L), "L")
    print(f"# write_series of fast_inverse's output, median us of {WRITE_REPEATS} interleaved pairs,")
    print("# serial / two threads, and the ratio two threads / serial [q1, q3]")
    _print_threads(WRITE_ROWS, lambda rows: measure_write(cli, fast_ops, series_core, rows), "rows")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        sys.exit(__doc__.split("\n\n")[1])
    try:
        sizes = [int(s) for s in argv[1].split(",")] if len(argv) == 2 else SIZES
    except ValueError:
        sys.exit("error: SIZES must be a comma list of orders")
    if any(n < 1 for n in sizes):
        sys.exit("error: orders must be positive")
    cli, fast_ops, fft_core, oracle, series_core = _import(argv[0])
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"# {_cpu_model()}, {cpus} usable CPUs, numpy {np.__version__}, "
          f"Python {platform.python_version()}")
    print(f"# median ms of {REPEATS} interleaved pairs, reference / fast, and pairs the reference won")
    print("#   order   exp                        inverse")
    for n in sizes:
        exp_pairs, inv_pairs = measure(cli, fast_ops, oracle, n)
        print(f"#   {n:5d}   {_row(exp_pairs)}   {_row(inv_pairs)}", flush=True)
    print_bases(cli, fast_ops)
    cap = fast_ops.ORACLE_INVERSE_MAX_ORDER
    reference, newton = family_errors(cli, fast_ops, cap), family_errors(cli, fast_ops, 0)
    seeds = "/".join(map(str, FAMILY_SEEDS))
    print(f"# closed-form family at N = {FAMILY_ORDER}, pinned plans, error of seeds {seeds},")
    print(f"# bootstrap inverses from oracle_inverse up to {cap} / from fast_inverse")
    for op in ("exp", "pow"):
        print(f"#   {op}  " + "/".join(f"{e:.1e}" for e in reference[op]))
        print("#        " + "/".join(f"{e:.1e}" for e in newton[op]))
    print_threads(cli, fast_ops, fft_core, series_core)
    return 0


if __name__ == "__main__":
    sys.exit(main())
