"""Spans and counters around the library's layers, recorded from outside.

``instrumented(tracer)`` swaps public functions of each module (and the two
block-engine helpers the workloads hinge on) for wrappers that record a
span per call, and restores them on exit.  Nothing in ``src/`` changes: the
wrappers are installed on the module attributes the library itself looks up
at call time.

A span is (id, parent id, call id, name, start, end).  The call id is that
of the top-level benchmark call the span belongs to.  Spans stay in memory
until the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import gzip
import os
import time
from collections import defaultdict

from fastseries import block_engine, cli, fast_ops, fft_core, series_core
from fastseries.cost_ledger import CostLedger

# (module, attribute, span name) of every wrapped function.  Modules that
# imported a name with ``from ... import`` hold their own reference, so the
# same function can appear under several modules.
WRAPPED = [
    (fast_ops, "fast_exp", "fast_ops.fast_exp"),
    (fast_ops, "fast_pow", "fast_ops.fast_pow"),
    (fast_ops, "fast_inverse", "fast_ops.fast_inverse"),
    (fast_ops, "fast_log", "fast_ops.fast_log"),
    (fast_ops, "oracle_exp", "oracle.oracle_exp"),
    (fast_ops, "oracle_inverse", "oracle.oracle_inverse"),
    (fast_ops, "oracle_pow", "oracle.oracle_pow"),
    (block_engine.BlockCache, "ensure", "block_engine.ensure"),
    (block_engine.BlockCache, "ensure_2k", "block_engine.ensure_2k"),
    (block_engine, "_aligned_middle", "block_engine.aligned_middle"),
    (fast_ops, "_window_product_2k", "block_engine.window_product_2k"),
    (fft_core, "dft", "fft_core.dft"),
    (fft_core, "inverse_dft", "fft_core.inverse_dft"),
    (fft_core, "double_dft", "fft_core.double_dft"),
    (fft_core, "inverse_double_dft", "fft_core.inverse_double_dft"),
    (fft_core, "multiply", "fft_core.multiply"),
    (series_core, "mul_mod", "series_core.mul_mod"),
    (fast_ops, "mul_mod", "series_core.mul_mod"),
    (cli, "load_series", "series_core.load_series"),
    (cli, "dump_series", "series_core.dump_series"),
    (cli, "main", "cli.main"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next = 0
        self.call_id = -1
        self.call_ops: dict[int, str] = {}

    def begin_call(self, op: str):
        self._next += 1
        self.call_id = self._next
        self.call_ops[self.call_id] = op

    @contextlib.contextmanager
    def span(self, name: str):
        self._next += 1
        sid = self._next
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.call_id, name, t0, t1))

    def write(self, path: str):
        with gzip.open(path, "wt") as fp:
            fp.write("id\tparent\tcall\tname\tstart\tend\n")
            for s in self.spans:
                fp.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % s)

    def totals(self):
        """Per span name: calls, inclusive ms and self ms."""
        child = defaultdict(float)
        for sid, parent, _, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _, _, name, t0, t1 in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += (t1 - t0) * 1e3
            row[2] += (t1 - t0 - child[sid]) * 1e3
        return out

    def share_under(self, op: str, prefix: str, span_name: str) -> float:
        """Share of the time of ``span_name`` spans in calls of ``op`` that
        spans named ``prefix...`` cover."""
        whole = part = 0.0
        for _, _, call, name, t0, t1 in self.spans:
            if self.call_ops.get(call) != op:
                continue
            if name == span_name:
                whole += t1 - t0
            elif name.startswith(prefix):
                part += t1 - t0
        return part / whole if whole else 0.0


class TimingLedger(CostLedger):
    """A CostLedger whose stages also open a span ``stage.<tag>``."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    @contextlib.contextmanager
    def stage(self, tag: str):
        with self._tracer.span("stage." + tag), CostLedger.stage(self, tag) as led:
            yield led


def _wrap(tracer: Tracer, fn, name: str):
    counter = _COUNTERS.get(name)

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            if counter is None:
                return fn(*args, **kwargs)
            return counter(tracer.counts, fn, args, kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


# -- counters taken at the same boundaries ------------------------------------

def _count_oracle(counts, fn, args, kwargs):
    n = kwargs.get("n", args[-1])  # the order is the last argument of each
    counts["oracle.mac"] += n * (n - 1) / 2  # computed, not measured
    return fn(*args, **kwargs)


def _count_ensure(counts, fn, args, kwargs):
    cache, label = args[0], args[1]
    before = cache.high_water(label)
    fresh = fn(*args, **kwargs)
    grown = max(0, cache.high_water(label) - before)
    counts["ensure.transforms"] += fresh
    counts["ensure.retransforms"] += max(0, fresh - grown)
    return fresh


def _count_ensure_2k(counts, fn, args, kwargs):
    cache, label = args[0], args[1]
    lane = getattr(cache, "_lane2k", {}).get(label, [])
    before = list(lane)
    fresh = fn(*args, **kwargs)
    changed = sum(1 for i, slot in enumerate(lane)
                  if i >= len(before) or slot is not before[i])
    counts["ensure_2k.filled"] += changed
    counts["ensure_2k.reused"] += max(0, changed - fresh)
    return fresh


def _count_file(direction):
    def count(counts, fn, args, kwargs):
        if direction == "read":
            counts["bytes_read"] += os.path.getsize(args[0])
            return fn(*args, **kwargs)
        out = fn(*args, **kwargs)
        counts["bytes_written"] += os.path.getsize(args[1])
        return out
    return count


_COUNTERS = {
    "oracle.oracle_exp": _count_oracle,
    "oracle.oracle_inverse": _count_oracle,
    "oracle.oracle_pow": _count_oracle,
    "block_engine.ensure": _count_ensure,
    "block_engine.ensure_2k": _count_ensure_2k,
    "series_core.load_series": _count_file("read"),
    "series_core.dump_series": _count_file("write"),
}


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in WRAPPED]
    try:
        for owner, attr, name in WRAPPED:
            setattr(owner, attr, _wrap(tracer, owner.__dict__[attr], name))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
