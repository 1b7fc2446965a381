"""Output and ledger fingerprint of a fastseries source tree.

Usage:  python tools/fingerprint.py SRC_DIR

Imports fastseries from SRC_DIR (e.g. ``src`` of this checkout, or of a
second checkout of the parent commit) and runs a fixed matrix: fast_exp and
fast_pow (every exponent in cli.VERIFY_POWERS) on the default and on the
pinned bench plans, plus fast_inverse and fast_log, at orders 64, 256, 1000,
1024, 3000, 4096 and 16384, and triple and shifted middle products on small
block caches whose products end before the output does.  Order 3000 is the
one whose transforms are not all of length 2^a: its Newton steps run at
3072 and its plans at m = 1536, so it shows the 3*2^a path.  It prints three
sha256 digests: one over the raw bytes of every output, one over every
ledger event (order, stage, label, in recording order) and scalar count,
and one over the events alone.  A run whose plan is rejected records
PlanError in all three; a last line names those runs.

A refactor meant to keep results bit for bit prints the same three lines as
its parent on the same machine; a change to how the scalar work is done or
counted keeps the events line.  The output digest depends on numpy's FFT
and the CPU, so compare trees on one host and do not pin it anywhere.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

SIZES = (64, 256, 1000, 1024, 3000, 4096, 16384)
SEED = 7


def _import(src_dir):
    src = os.path.abspath(src_dir)
    if not os.path.isfile(os.path.join(src, "fastseries", "__init__.py")):
        sys.exit(f"error: no fastseries package under {src}")
    sys.path.insert(0, src)
    import fastseries
    from fastseries import cli, fast_ops
    from fastseries.cost_ledger import CostLedger
    from fastseries.errors import PlanError

    if not os.path.abspath(fastseries.__file__).startswith(src + os.sep):
        sys.exit(f"error: fastseries imported from {fastseries.__file__}, not {src}")
    return cli, fast_ops, CostLedger, PlanError


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


def _edge_runs(block_engine):
    """Middle products on small caches whose residual images run past the
    product (absent images) and whose folded linear term runs past its
    series; the exp/pow matrix never reaches either case."""
    rng = np.random.default_rng(SEED)
    k, out = 4, []
    for na, nb, nd in ((1, 1, 1), (3, 2, 2), (6, 5, 1), (6, 2, 6)):
        for shift in (2, 4, 10):
            for blocks in (1, 5, 9):
                cache = block_engine.BlockCache(k)
                # only the first nd blocks of d get spectra
                for label, count, size, held in (("a", na, k, na), ("b", nb, k, nb),
                                                 ("c", nb, k, nb), ("d", nd, 2 * k, 6)):
                    cache.register(label, np.array([1, 1j]) @ rng.standard_normal((2, held * size)),
                                   block=size)
                    cache.ensure(label, count - 1)
                tag = f"a={na} b,c={nb} d={nd} shift={shift}k out={blocks}k"
                out.append((f"triple {tag}", lambda led, cache=cache, s=shift, n=blocks:
                            block_engine.triple_middle_product(cache, "a", "b", "c", s * k, n * k,
                                                               ledger=led)))
                out.append((f"shifted {tag}", lambda led, cache=cache, s=shift, n=blocks:
                            block_engine.shifted_middle_product(cache, "a", "b", "c", s * k - 1,
                                                                n * k, ledger=led,
                                                                linear=(0.3 - 0.2j, "d"))))
    return out


def fingerprint(src_dir):
    cli, fast_ops, CostLedger, PlanError = _import(src_dir)
    outputs, ledgers, events = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    raised = []
    runs = [run for N in SIZES for run in _runs(cli, fast_ops, N)]
    for name, run in runs + _edge_runs(fast_ops.block_engine):
        led = CostLedger()
        try:
            result, status = run(led).coeffs.tobytes(), "ok"
        except PlanError:  # a plan the size rejects is part of the fingerprint
            result, status = b"PlanError", "PlanError"
            raised.append(name)
        outputs.update(name.encode() + b"\0" + result)
        text = f"{name} {status}\n"
        text += "".join(f"{e.order} {e.stage} {e.label}\n" for e in led.events)
        events.update(text.encode())
        text += "".join(f"{kind}={n}\n" for kind, n in sorted(led.scalar.items()))
        ledgers.update(text.encode())
    return outputs.hexdigest(), ledgers.hexdigest(), events.hexdigest(), raised


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    out_hash, ledger_hash, event_hash, raised = fingerprint(argv[0])
    print(f"outputs {out_hash}")
    print(f"ledgers {ledger_hash}")
    print(f"events {event_hash}")
    print(f"raised {len(raised)}: {', '.join(raised)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
