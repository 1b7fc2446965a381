"""The measuring loop and the metrics it reports (see run.py for usage).

Imported only after run.import_library() has put this checkout's src/ on
the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from fastseries import cli
from fastseries.cost_ledger import CostLedger, main_term_units

import gate
import reference
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# A tail percentile is reported only with at least ten samples beyond it.
# A run ends on a whole pass over the pool, so every input weighs the same;
# one pass is POOL samples per op (on default-16k 2 * POOL for pow, inv
# and log), so the tail is p75.
TAIL = 75
SETUP_REPEATS = 3
REF_WARMUP = 3

STAGE_TAGS = (
    "bootstrap.E", "bootstrap.I", "bootstrap.P", "bootstrap.rho", "bootstrap.s",
    "exp.stage1", "exp.log", "exp.final",
    "pow.s.first", "pow.s.second", "pow.f", "pow.log", "pow.final",
    "inverse",
)
MAIN_TAGS = STAGE_TAGS[5:13]
FFT_FUNCS = ("dft", "inverse_dft", "double_dft", "inverse_double_dft", "multiply")
ORACLE_SPANS = ("oracle.oracle_exp", "oracle.oracle_inverse", "oracle.oracle_pow")


# -- set-up --------------------------------------------------------------------

def setup(name, seed, work_dir, shrink=1):
    """What a caller pays before the first timed call: inputs, input files,
    and one warm-up call of each op."""
    wl = workloads.build(name, seed, work_dir, shrink)
    wl.write_inputs()
    for call in wl.cycle(0):
        call.run(None)


def setup_in_fresh_dir(name, seed, shrink):
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        setup(name, seed, work, shrink)


def setup_seconds(name, seed, shrink):
    """Median set-up time over fresh processes, imports included."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
             "--workload", name, "--seed", str(seed), "--shrink", str(shrink)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def check_calls(wl, work_dir):
    """Cycle 0 once, untimed, each call with a fresh ledger.  Returns a
    digest of each op's first report (the CLI's ``--report`` file for the
    CLI) and the ledgers, whose counts are exact and repeat."""
    digests, ledgers = {}, []
    for call in wl.cycle(0):
        if call.op == "cli":
            path = os.path.join(work_dir, "cli.report")
            if cli.main(wl.cli_argv("inv", 0) + ["--report", path]) != 0:
                raise RuntimeError("CLI check call failed")
            with open(path, "rb") as fp:
                text = fp.read()
        else:
            led = CostLedger()
            call.run(led)
            ledgers.append((call.op, led, call.plan))
            text = workloads.ledger_digest_text(led, call.plan).encode()
        digests.setdefault(call.op, hashlib.sha256(text).hexdigest()[:16])
    return digests, ledgers


# -- the loop --------------------------------------------------------------------

@dataclass
class Tally:
    """Samples (ms) and counts of one run.

    ``refs`` holds the reference times (ms) of an untraced run in order:
    one before each call and one after the last.  Plain call ``i`` of op
    ``op`` took ``plain[op][i]`` ms and sits between ``refs[at[op][i]]``
    and ``refs[at[op][i] + 1]``."""

    plain: dict = field(default_factory=lambda: {op: [] for op in workloads.OPS})
    at: dict = field(default_factory=lambda: {op: [] for op in workloads.OPS})
    traced: dict = field(default_factory=lambda: {op: [] for op in workloads.OPS})
    baseline: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    worst: float = 0.0
    coeffs: int = 0      # output coefficients of the plain calls

    def add(self, call, seconds, residual, traced):
        self.worst = max(self.worst, residual)
        ms = seconds * 1e3
        if call.op == "baseline":
            self.baseline.append(ms)
        elif traced:
            self.traced[call.op].append(ms)
        else:
            self.plain[call.op].append(ms)
            self.at[call.op].append(len(self.refs) - 1)
            self.coeffs += call.order

    def time_reference(self):
        self.refs.append(reference.seconds() * 1e3)

    def relative(self):
        """Each plain call's time over the mean of the reference times just
        before and just after it."""
        return {op: [ms / (0.5 * (self.refs[i] + self.refs[i + 1]))
                     for ms, i in zip(self.plain[op], self.at[op])]
                for op in self.plain}


def _timed(call, tracer):
    """Run one call; returns (output, seconds).  With a tracer the call runs
    under the layer wrappers, with a timing ledger, in an ``op.<op>`` span."""
    if tracer is None:
        t0 = time.perf_counter()
        out = call.run(None)
        return out, time.perf_counter() - t0
    tracer.begin_call(call.op)
    led = spans.TimingLedger(tracer)
    with spans.instrumented(tracer), tracer.span("op." + call.op):
        t0 = time.perf_counter()
        out = call.run(led)
        dt = time.perf_counter() - t0
    return out, dt


def _baseline_call(wl, c):
    """The Newton exp baseline on cycle c's exp input."""
    h = wl.entry(c % workloads.POOL)[0][: wl.N]
    N = wl.N
    return workloads.Call("baseline", N, lambda led: workloads.newton_exp(h, N),
                          lambda f: gate.exp_residual(h, f))


def measure(name, seed, seconds, trace, shrink=1, corrupt=None):
    """Run one workload; returns (result dict, report lines).

    A run ends on a whole pass over the pool once ``seconds`` have passed.
    Untraced runs time every call.  Traced runs make each cycle twice, plain
    (also timing the Newton baseline) and then traced, so both see the same
    inputs.  ``corrupt``, when given, alters each output before its check;
    the self-test uses it to show that the gate catches a wrong
    coefficient."""
    os.makedirs(OUT, exist_ok=True)
    setup_s = None if trace else setup_seconds(name, seed, shrink)
    tally = Tally()
    tracer = spans.Tracer() if trace else None
    cycles = traced_cycles = 0
    per_entry = 2 if trace else 1
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        wl = workloads.build(name, seed, work, shrink)
        wl.write_inputs()
        digests, ledgers = check_calls(wl, work)  # also the warm-up
        for _ in range(REF_WARMUP):
            reference.seconds()
        start = time.perf_counter()
        while not (cycles and cycles % (per_entry * workloads.POOL) == 0
                   and time.perf_counter() - start >= seconds):
            is_traced = trace and cycles % 2 == 1
            c = cycles // per_entry
            calls = wl.cycle(c)
            if trace and not is_traced:
                calls.append(_baseline_call(wl, c))
            for call in calls:
                if not trace:
                    tally.time_reference()
                tally.attempted += 1
                try:
                    out, dt = _timed(call, tracer if is_traced else None)
                    if corrupt is not None:
                        out = corrupt(call.op, out)
                    res = call.check(out)
                except Exception:  # a failed call is counted, the run goes on
                    traceback.print_exc()
                    tally.failed += 1
                    continue
                if not res <= gate.GATE_TOL:
                    tally.failed += 1
                    continue
                tally.add(call, dt, res, is_traced)
            cycles += 1
            traced_cycles += is_traced
        if not trace:
            tally.time_reference()
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"{name}-seed{seed}-spans.tsv.gz"))

    lines = [_header(name, seed, seconds, trace)]
    lines += [f"digest {name} {op} {d}" for op, d in digests.items()]
    lines.append(f"cycles={cycles} traced_cycles={traced_cycles} attempted={tally.attempted} "
                 f"failed={tally.failed} worst_residual={tally.worst:.2e}")
    if trace:
        metrics = _per_layer(tracer, traced_cycles, ledgers, tally)
    else:
        metrics = _end_to_end(tally, setup_s)
        lines += _wall_lines(tally)
    for key, (value, unit) in metrics.items():
        samples = len(tally.plain.get(key.split("_rel.")[0], ())) if "_rel.p" in key else 0
        lines.append(f"{key} = {value:.6g} {unit}" + (f" (n={samples})" if samples else ""))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"header": lines[0], "digests": digests,
              "samples": {op: len(v) for op, v in tally.plain.items()}, "result": result}
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fp:
        json.dump(record, fp, indent=1)
    return result, lines


def _header(name, seed, seconds, trace):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fp
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = ",".join(f"{v}={os.environ[v]}" for v in sorted(os.environ)
                    if v.endswith("_NUM_THREADS"))
    return (f"run workload={name} seed={seed} seconds={seconds:g} trace={int(trace)} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"nproc={os.cpu_count()} cpu=\"{cpu}\" blas_threads={blas}")


# -- metrics ---------------------------------------------------------------------

def _tail(values):
    """The TAIL percentile, or None when fewer than ten samples lie beyond it."""
    if len(values) * (100 - TAIL) < 10 * 100:
        return None
    return statistics.quantiles(values, n=100)[TAIL - 1]


def _end_to_end(tally, setup_s):
    """Call times in units of the reference computation (reference.py)."""
    m = {}
    rel = tally.relative()
    for op, v in rel.items():
        if v:
            m[f"{op}_rel.p50"] = (statistics.median(v), "ref")
        tail = _tail(v)
        if tail is not None:
            m[f"{op}_rel.p{TAIL}"] = (tail, "ref")
    total = sum(sum(v) for v in rel.values())
    if total:
        m["coeffs_per_ref"] = (tally.coeffs / total, "coeff/ref")
    m["setup_s"] = (setup_s, "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def _wall_lines(tally):
    """The plain wall times behind the ratios, for reading; not metrics."""
    lines = [f"wall reference.ms.p50 = {statistics.median(tally.refs):.6g} ms "
             f"(n={len(tally.refs)})"] if tally.refs else []
    for op, v in tally.plain.items():
        if v:
            lines.append(f"wall {op}_ms.p50 = {statistics.median(v):.6g} ms (n={len(v)})")
    return lines


def _ratio(a, b):
    return a / b if b else 0.0


def _per_layer(tracer, traced_cycles, ledgers, tally):
    tot = tracer.totals()
    counts = tracer.counts
    nt = max(traced_cycles, 1)
    planned = [(op, led, plan) for op, led, plan in ledgers
               if plan is not None and not plan.fallback]
    m = {}

    def calls(span):
        return tot[span][0] / nt if span in tot else 0.0

    def incl(span):
        return tot[span][1] / nt if span in tot else 0.0

    def self_ms(span):
        return tot[span][2] / nt if span in tot else 0.0

    # fast_ops: stage time from the traced cycles; units and events from the
    # check calls
    for tag in STAGE_TAGS:
        m[f"stage.{tag}.ms"] = (incl("stage." + tag), "ms/cycle")
    for tag in STAGE_TAGS:
        m[f"stage.{tag}.events"] = (
            float(sum(led.event_count(stage=tag) for _, led, _ in ledgers)), "count/cycle")
    for tag in MAIN_TAGS:
        m[f"stage.{tag}.units"] = (
            float(sum(led.units_for(plan.k, stage=tag) for _, led, plan in planned)),
            "units/cycle")
    for op in ("exp", "pow"):
        per_mk = [float(main_term_units(led, plan.k) / Fraction(plan.m, plan.k))
                  for o, led, plan in planned if o == op]
        m[f"{op}_units_per_mk"] = (per_mk[0] if per_mk else 0.0, "units/mk")
    for op in ("exp", "pow"):
        m[f"share.bootstrap.{op}"] = (
            tracer.share_under(op, "stage.bootstrap.", "op." + op), "fraction")

    # oracle: the quadratic bootstrap
    m["oracle.calls"] = (sum(calls(s) for s in ORACLE_SPANS), "count/cycle")
    m["oracle.ms"] = (sum(incl(s) for s in ORACLE_SPANS), "ms/cycle")
    m["oracle.mac"] = (counts["oracle.mac"] / nt, "mac/cycle")

    # block_engine
    for short in ("ensure", "ensure_2k", "aligned_middle", "window_product_2k"):
        m[f"block_engine.{short}.calls"] = (calls("block_engine." + short), "count/cycle")
        m[f"block_engine.{short}.ms"] = (incl("block_engine." + short), "ms/cycle")
    m["block_engine.ensure.transforms"] = (counts["ensure.transforms"] / nt, "count/cycle")
    m["block_engine.ensure.retransform_ratio"] = (
        _ratio(counts["ensure.retransforms"], counts["ensure.transforms"]), "fraction")
    m["block_engine.ensure_2k.lane_reuse_ratio"] = (
        _ratio(counts["ensure_2k.reused"], counts["ensure_2k.filled"]), "fraction")

    # fft_core: self time of the transform leaf
    for fn in FFT_FUNCS:
        m[f"fft_core.{fn}.calls"] = (calls("fft_core." + fn), "count/cycle")
        m[f"fft_core.{fn}.ms"] = (self_ms("fft_core." + fn), "ms/cycle")

    # series_core
    m["series_core.mul_mod.calls"] = (calls("series_core.mul_mod"), "count/cycle")
    m["series_core.mul_mod.ms"] = (incl("series_core.mul_mod"), "ms/cycle")
    m["series_core.load_series.ms"] = (incl("series_core.load_series"), "ms/cycle")
    m["series_core.dump_series.ms"] = (incl("series_core.dump_series"), "ms/cycle")
    m["series_core.bytes_read"] = (counts["bytes_read"] / nt, "B/cycle")
    m["series_core.bytes_written"] = (counts["bytes_written"] / nt, "B/cycle")

    # cost_ledger and cli
    m["cost_ledger.events_per_call"] = (
        _ratio(sum(len(led.events) for _, led, _ in ledgers), len(ledgers)), "count/call")
    m["cli.main.self_ms"] = (self_ms("cli.main"), "ms/cycle")

    # the Newton baseline next to fast_exp, both untraced, on the same inputs
    fast = statistics.median(tally.plain["exp"]) if tally.plain["exp"] else 0.0
    newton = statistics.median(tally.baseline) if tally.baseline else 0.0
    m["baseline.newton_exp.ms"] = (newton, "ms")
    m["baseline.fast_exp.ms"] = (fast, "ms")
    m["baseline.fast_over_newton"] = (_ratio(fast, newton), "ratio")

    for op, plain in tally.plain.items():
        traced = tally.traced[op]
        m[f"trace.overhead_ms.{op}"] = (
            statistics.median(traced) - statistics.median(plain) if traced and plain else 0.0,
            "ms")
    m["failed_frac"] = (_ratio(tally.failed, tally.attempted), "fraction")
    m["gate.worst_residual"] = (tally.worst, "rel")
    return m
