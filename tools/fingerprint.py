"""Output, ledger, text and reader fingerprint of a fastseries source tree.

Usage:  python tools/fingerprint.py SRC_DIR

Imports fastseries from SRC_DIR (e.g. ``src`` of this checkout, or of a
second checkout of the parent commit) and runs a fixed matrix: fast_exp and
fast_pow (every exponent in cli.VERIFY_POWERS) on the default and on the
pinned bench plans, plus fast_inverse and fast_log, at orders 16, 64,
256, 1000, 1024, 3000, 4096 and 16384, and, apart from that matrix, middle
products with and without a folded linear term on small block caches
whose products end before the output does (the edge runs), plus the plans
fast_ops.choose_plan and cli.bench_plan (exp and pow) give at the least
and the greatest order of every frontier up to 2^22 and at every order
below 64.
Order 16 is at fast_ops.NEWTON_BASE_ORDER, so its inverses come from the
coefficient recurrence alone.  Order 3000 is the one whose transforms are
not all of length 2^a: its Newton steps run at 3072 and its plans at
m = 1536, so it shows the 3*2^a path.  It prints seven
sha256 digests.  Over the matrix: one over the raw bytes of every output,
one over every ledger event (order, stage, label, in recording order) and
scalar count, one over the events alone, one over the text write_series
makes of every output and of a fixed set of floats a '%.17g' writer finds
hard (powers of ten and their neighbours, decimal ties, subnormals, large
integers, signed zeros, inf, nan, short decimals at every exponent), and
one over what read_series and load_series make of that text and of a fixed
table of other texts (float and index spellings, blank lines, spaces, CRLF,
a comment, '#order 0' with and without a coefficient line, a huge declared
order, a control byte, and, for load_series alone, a byte that is not
UTF-8): the coefficient bytes, or the FormatError's message and line; one
over those plans, each (k, n, m, fallback) or the PlanError's message; and
one (edges) over each edge run's output, text, events and scalar counts.
A run whose plan is rejected records PlanError in its lines; a last line
names those runs.

A refactor meant to keep results bit for bit prints the same seven lines as
its parent on the same machine; a change to how the scalar work is done or
counted keeps the events line, a change to the writer alone keeps all but
the text line, and a change to the readers alone keeps all but the read
line.  The edge runs reach block shapes no exp/pow step makes, so a change
to how the block engine handles such shapes moves the edges line alone.
The output digests depend on numpy's FFT and the CPU, so compare trees on
one host and do not pin them anywhere.
"""

from __future__ import annotations

import hashlib
import io
import pathlib
import sys
import tempfile

import numpy as np

from source_tree import import_fastseries

SIZES = (16, 64, 256, 1000, 1024, 3000, 4096, 16384)
SEED = 7


def _import(src_dir):
    import_fastseries(src_dir)
    from fastseries import cli, fast_ops, series_core
    from fastseries.cost_ledger import CostLedger
    from fastseries.errors import FormatError, PlanError

    return cli, fast_ops, series_core, CostLedger, PlanError, FormatError


def _runs(cli, fast_ops, N):
    """(name, callable taking a ledger) for every case at order N."""
    rng = np.random.default_rng(SEED + N)
    h, g = cli.exp_input(rng, N), cli.pow_input(rng, N)
    out = []
    for kind in ("default", "pinned"):
        def plan(op, kind=kind):
            return None if kind == "default" else cli.bench_plan(op, N)

        out.append((f"exp {kind} N={N}",
                    lambda led, plan=plan: fast_ops.fast_exp(h, N, plan=plan("exp"), ledger=led)))
        for C in cli.VERIFY_POWERS:
            out.append((f"pow {kind} C={C} N={N}",
                        lambda led, plan=plan, C=C: fast_ops.fast_pow(g, C, N, plan=plan("pow"),
                                                                      ledger=led)))
    out.append((f"inv N={N}", lambda led: fast_ops.fast_inverse(g, N, ledger=led)))
    out.append((f"log N={N}", lambda led: fast_ops.fast_log(g, N, ledger=led)))
    return out


def _plan_orders():
    """Every order below 64, and the least and the greatest order of every
    frontier up to 2^22."""
    frontiers = sorted(c << a for c in (1, 3) for a in range(2, 23) if 8 <= c << a <= 1 << 22)
    ends = [N for below, m in zip(frontiers, frontiers[1:]) for N in (2 * below + 1, 2 * m)]
    return sorted(set(range(1, 64)) | set(ends))


def _plans(cli, fast_ops, PlanError):
    """sha256 over choose_plan(N) and the exp and pow bench_plan(N) at every
    _plan_orders order."""
    digest = hashlib.sha256()
    rules = {"choose": fast_ops.choose_plan,
             "exp": lambda N: cli.bench_plan("exp", N), "pow": lambda N: cli.bench_plan("pow", N)}
    for N in _plan_orders():
        for name, rule in rules.items():
            try:
                plan = rule(N)
                text = f"{plan.k} {plan.n} {plan.m} {plan.fallback}"
            except PlanError as exc:
                text = f"PlanError {exc}"
            digest.update(f"{name} N={N} {text}\n".encode())
    return digest.hexdigest()


def _edge_runs(block_engine):
    """Middle products at block shifts 2, 4 and 10 on small caches with
    residual images that no block pair reaches, without and with a folded
    linear term that runs past its series; the exp/pow matrix never reaches
    either case."""
    rng = np.random.default_rng(SEED)
    k, out = 4, []
    for na, nb, nd in ((1, 1, 1), (3, 2, 2), (6, 5, 1), (6, 2, 6)):
        for shift in (2, 4, 10):
            for blocks in (1, 5, 9):
                cache = block_engine.BlockCache(k)
                # d holds 6 blocks, of which only the first nd are known; every
                # known block gets its spectrum here, outside the ledger
                for label, count, size, held in (("a", na, k, na), ("b", nb, k, nb),
                                                 ("c", nb, k, nb), ("d", nd, 2 * k, 6)):
                    cache.register(label, np.array([1, 1j]) @ rng.standard_normal((2, held * size)),
                                   known=count * size, block=size)
                    cache.ensure(label, count - 1)
                tag = f"a={na} b,c={nb} d={nd} shift={shift}k out={blocks}k"
                out.append((f"triple {tag}", lambda led, cache=cache, s=shift, n=blocks:
                            block_engine.triple_middle_product(cache, "a", "b", "c", s * k, n * k,
                                                               ledger=led)))
                out.append((f"linear {tag}", lambda led, cache=cache, s=shift, n=blocks:
                            block_engine.triple_middle_product(cache, "a", "b", "c", s * k, n * k,
                                                               ledger=led,
                                                               linear=(0.3 - 0.2j, "d"))))
    return out


def _edge_floats():
    """Floats a '%.17g' writer finds hard, as one array of even length."""
    rng = np.random.default_rng(SEED)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # j / 2**(p+1) with j odd and j * 5**p in [2e16, 2e17) is a decimal tie at 17 digits
    ties = [float(j | 1) / 2 ** (p + 1) for p in range(1, 24)
            for j in rng.integers(-(-2 * 10 ** 16 // 5 ** p),
                                  min(2 * 10 ** 17 // 5 ** p, 2 ** 53) - 1, 8).tolist()]
    ints = [float(2 ** k + d) for k in range(53, 64) for d in range(-8, 9)]
    short = [float(f"{D}e{e}") for sig in range(1, 18) for e in range(-330, 310, 7)
             for D in rng.integers(10 ** (sig - 1), 10 ** sig, 2).tolist()]
    values = np.concatenate([tens, np.nextafter(tens, np.inf), np.nextafter(tens, -np.inf),
                             ties, ints, short, [0.0, np.inf, np.nan, 2.0 ** -1022],
                             rng.integers(1, 2 ** 52, 1000, dtype=np.uint64).view(np.float64)])
    values = np.concatenate([values, -values])
    return values[: values.size // 2 * 2]


def _read_table():
    """(name, bytes) of texts other than writer output that a reader must
    parse or reject as the line loop does."""
    floats = ["+1", "1e5", ".5", "5.", "infinity", "-inf", "nan", "-nan", "-0", "3" * 400,
              "2.4703282292062328e-324", " 1", "1_0", "1#", "0x10", "1d5", "\uff11", "\x1f1"]
    indices = ["01", "+1", " 1", "1_0", "2", "0\x1f", "1\x1f"]
    texts = [f"#order 3\n0\t1\t0\n1\t{s}\t-2\n2\t0.5\t{s}\n" for s in floats]
    texts += [f"#order 3\n0\t1\t0\n{s}\t2\t-2\n2\t0.5\t3\n" for s in indices]
    texts += ["#order 2\n\n0\t1\t2\n\n1\t3\t4\n\n", "#order 2\n 0 \t 1 \t 2 \n1\t 3\t4 \n",
              "#order 2\r\n0\t1\t2\r\n1\t3\t4\r\n", "#order 2\n# comment\n0\t1\t2\n1\t3\t4\n",
              "#order 0", "#order 0\n", "#order 0\n\n", "#order 0\n0\t1\t2\n",
              "#order 1000000000000\n0\t1\t0\n", "#order 1\n0\t1\x1f\t2\n"]
    table = [(repr(text), text.encode()) for text in texts]
    return table + [("not UTF-8", b"#order 1\n0\t1\t2\xff\n")]


def _read_outcomes(series_core, FormatError, name, data, path):
    """name, then what read_series (when data is UTF-8) and load_series make
    of data: the coefficient bytes, or the FormatError's message and line."""
    path.write_bytes(data)
    readers = [lambda: series_core.load_series(path)]
    try:
        text = data.decode("utf-8")
        readers.insert(0, lambda: series_core.read_series(io.StringIO(text)))
    except UnicodeDecodeError:
        pass
    out = name.encode()
    for read in readers:
        try:
            out += b"\0" + read().coeffs.tobytes()
        except FormatError as exc:
            out += f"\0FormatError {exc} line {exc.line}".encode()
    return out


def _written(series_core, coeffs):
    buf = io.StringIO()
    series_core.write_series(coeffs, buf)
    return buf.getvalue().encode()


def _record(name, run, CostLedger, PlanError, series_core):
    """What one run leaves: its status, output bytes, text and ledger (events,
    then events and scalar counts) as text.  A plan the size rejects is part
    of the fingerprint."""
    led = CostLedger()
    try:
        coeffs = run(led).coeffs
        status, result, written = "ok", coeffs.tobytes(), _written(series_core, coeffs)
    except PlanError:
        status, result, written = "PlanError", b"PlanError", b"PlanError"
    events = f"{name} {status}\n"
    events += "".join(f"{e.order} {e.stage} {e.label}\n" for e in led.events)
    scalars = "".join(f"{kind}={n}\n" for kind, n in sorted(led.scalar.items()))
    return status, result, written, events, events + scalars


def fingerprint(src_dir):
    cli, fast_ops, series_core, CostLedger, PlanError, FormatError = _import(src_dir)
    outputs, ledgers, events = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    texts, reads, edges = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    to_read = []
    raised = []
    for N in SIZES:
        for name, run in _runs(cli, fast_ops, N):
            status, result, written, evs, ledger = _record(name, run, CostLedger, PlanError,
                                                           series_core)
            if status == "ok":
                to_read.append((name, written))
            else:
                raised.append(name)
            outputs.update(name.encode() + b"\0" + result)
            texts.update(name.encode() + b"\0" + written)
            events.update(evs.encode())
            ledgers.update(ledger.encode())
    for name, run in _edge_runs(fast_ops.block_engine):
        status, result, written, _, ledger = _record(name, run, CostLedger, PlanError,
                                                     series_core)
        if status != "ok":
            raised.append(name)
        edges.update(b"\0".join((name.encode(), result, written, ledger.encode(), b"")))
    hard = _written(series_core, _edge_floats().view(np.complex128))
    texts.update(b"edge floats\0" + hard)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "series.txt")
        for name, data in to_read + [("edge floats", hard)] + _read_table():
            reads.update(_read_outcomes(series_core, FormatError, name, data, path))
    return (outputs.hexdigest(), ledgers.hexdigest(), events.hexdigest(), texts.hexdigest(),
            reads.hexdigest(), _plans(cli, fast_ops, PlanError), edges.hexdigest(), raised)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    *digests, raised = fingerprint(argv[0])
    for name, digest in zip(("outputs", "ledgers", "events", "text", "read", "plans", "edges"),
                            digests):
        print(f"{name} {digest}")
    print(f"raised {len(raised)}: {', '.join(raised)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
