"""The benchmark workloads: inputs, timed calls and their checks.

Every workload issues the same five kinds of call per cycle, one after the
other in a single thread (a closed loop with one caller):

    exp, pow, inv, log  direct library calls on pool entry c % POOL;
                        on default-16k pow, inv and log are called a
                        second time, on the power argument of entry
                        c % POOL + POOL
    cli                 in-process ``cli.main([...])``, file in, file out:
                        ``inv`` and ``log`` in turn, each on every file

What differs is which layer the exp and pow calls stress:

    default-16k    fast_exp / fast_pow at N=16384 with the default
                   ``choose_plan`` (k=2048, n=4096, m=8192): bound by the
                   quadratic bootstrap in ``oracle``, with four large blocks
                   in the block engine.  inv / log run at 2**16 and the CLI
                   on 2**14-coefficient files.
    pinned-k16-4k  fast_exp / fast_pow at N=4096 with the pinned plans of
                   ``fastseries bench`` (k=16, n=m/8 or m/4, m/k=128): bound
                   by the block engine's many tiny transforms, bootstrap
                   under 5%.  inv / log and the CLI run at 4096.

Each is the other's bypass: a faster bootstrap should move default-16k and
barely pinned-k16-4k; a faster block engine the reverse.

Pool entry j holds one ``cli.exp_input`` and one ``cli.pow_input`` drawn from
the generator seeded with (seed, j), and the power ``VERIFY_POWERS[j % 4]``.
fast_pow on the default plan takes 150 to 550 ms depending on the input,
almost all of it in the quadratic bootstrap (subnormal coefficients are the
likely cause), so a run visits POOL distinct entries before it repeats one:
the median then rests on forty inputs, not four.  On default-16k, where the
coefficients underflow in the bootstrap, fast_pow's time depends so much on
the input that its median over forty inputs still moves by about 10% from
one seed to the next; there pow therefore draws from 2 * POOL entries, two
per cycle.  So do inv and log, whose p75 over forty calls on default-16k
moved by as much, and which cost little next to pow.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from fastseries import cli, fast_ops, oracle, series_core
from fastseries.cost_ledger import CostLedger, report_kv

import gate

POOL = 40
CLI_FILES = 4  # pool entries written as CLI input files; also oracle-checked
# A pass over the pool gives every CLI (op, file) pair the same weight.
assert POOL % (2 * CLI_FILES) == 0
OPS = ("exp", "pow", "inv", "log", "cli")


def newton_exp(h, N: int, ledger=None) -> np.ndarray:
    """exp(h) mod x**N by Newton iteration f <- f*(1 + h - log f), built on
    the public fast_log and mul_mod.  f[0] is reset to exactly 1 after each
    step because fast_log rejects any other constant term."""
    h = np.asarray(h, dtype=np.complex128)
    f = np.ones(1, dtype=np.complex128)
    t = 1
    while t < N:
        t = min(2 * t, N)
        g = np.zeros(t, dtype=np.complex128)
        g[: f.size] = f
        corr = -fast_ops.fast_log(g, t, ledger=ledger).coeffs
        take = min(t, h.size)
        corr[:take] += h[:take]
        corr[0] += 1.0
        f = series_core.mul_mod(g, corr, t, ledger=ledger).coeffs
        f[0] = 1.0
    return f


@dataclass
class Call:
    """One timed call: ``run(ledger)`` returns the output coefficients (the
    exit code for the CLI); ``check(out)`` returns the gate residual, or
    infinity when the output is wrong in a way a residual does not measure."""

    op: str
    order: int
    run: Callable
    check: Callable
    plan: object = None  # block plan whose report_kv digests the ledger


@dataclass
class Workload:
    name: str
    N: int            # order of the exp and pow calls
    N_newton: int     # order of the direct inv and log calls
    N_cli: int
    pinned: bool = False        # exp/pow on the bench plans, not choose_plan
    oracle_check: bool = False  # also compare with oracle_* on the CLI entries
    power_args: int = 1  # power arguments that pow, inv and log take per cycle
    seed: int = 0
    work_dir: str = ""
    _entries: dict = field(default_factory=dict)
    _refs: dict = field(default_factory=dict)

    # -- inputs ----------------------------------------------------------------

    def entry(self, j: int):
        """Pool entry j: (exp argument, power argument); same seed, same
        inputs.  The CLI entries are kept, and of the others only the one
        asked for last."""
        if j not in self._entries:
            others = [k for k in self._entries if k >= CLI_FILES]
            for k in others[:-1]:
                del self._entries[k]
            rng = np.random.default_rng([self.seed, j])
            top = max(self.N, self.N_newton, self.N_cli)
            self._entries[j] = (cli.exp_input(rng, top), cli.pow_input(rng, top))
        return self._entries[j]

    def plan(self, op):
        """The block plan of a direct exp/pow call; None means choose_plan."""
        return cli.bench_plan(op, self.N) if self.pinned else None

    def write_inputs(self):
        for j in range(CLI_FILES):
            series_core.dump_series(self.entry(j)[1][: self.N_cli], self._in_path(j))

    def _in_path(self, j):
        return os.path.join(self.work_dir, f"{j}.in")

    def out_path(self):
        return os.path.join(self.work_dir, "cli.out")

    # -- calls -------------------------------------------------------------------

    def cycle(self, c: int) -> list[Call]:
        """The calls of cycle c, in the order they are issued."""
        j = c % POOL
        h = self.entry(j)[0]
        C = cli.VERIFY_POWERS[j % len(cli.VERIFY_POWERS)]
        calls = [self._exp_call(h[: self.N], j)]
        for jj in range(j, j + self.power_args * POOL, POOL):
            g = self.entry(jj)[1]
            calls += [
                self._pow_call(g[: self.N], C, jj),
                self._inv_call(g[: self.N_newton], jj),
                self._log_call(g[: self.N_newton], jj),
            ]
        calls.append(self._cli_call(("inv", "log")[c % 2], c // 2 % CLI_FILES))
        return calls

    def _exp_call(self, h, j):
        N = self.N
        plan = self.plan("exp")
        return Call("exp", N,
                    lambda led: fast_ops.fast_exp(h, N, plan=plan, ledger=led).coeffs,
                    self._with_oracle(("exp", j), lambda f: gate.exp_residual(h, f),
                                      lambda: oracle.oracle_exp(h, N).coeffs),
                    plan=plan or fast_ops.choose_plan(N))

    def _pow_call(self, g, C, j):
        N = self.N
        plan = self.plan("pow")
        return Call("pow", N,
                    lambda led: fast_ops.fast_pow(g, C, N, plan=plan, ledger=led).coeffs,
                    self._with_oracle(("pow", j), lambda f: gate.pow_residual(g, C, f),
                                      lambda: oracle.oracle_pow(g, C, N).coeffs),
                    plan=plan or fast_ops.choose_plan(N))

    def _inv_call(self, g, j):
        N = self.N_newton
        return Call("inv", N, lambda led: fast_ops.fast_inverse(g, N, ledger=led).coeffs,
                    self._with_oracle(("inv", j), lambda r: gate.inv_residual(g, r),
                                      lambda: oracle.oracle_inverse(g, N).coeffs))

    def _log_call(self, g, j):
        N = self.N_newton
        return Call("log", N, lambda led: fast_ops.fast_log(g, N, ledger=led).coeffs,
                    self._with_oracle(("log", j), lambda L: gate.log_residual(g, L),
                                      lambda: oracle.oracle_log(g, N).coeffs))

    def cli_argv(self, op, j):
        return [op, self._in_path(j), self.out_path(), "--n", str(self.N_cli)]

    def _cli_call(self, op, j):
        """The CLI transforms an input file; its output file must hold, byte
        for byte, the text of the direct call on the same input, and that
        text must read back as the direct call's output bit for bit."""
        N = self.N_cli
        argv = self.cli_argv(op, j)
        g = self.entry(j)[1][:N]
        if op == "inv":
            direct, residual = fast_ops.fast_inverse, gate.inv_residual
        else:
            direct, residual = fast_ops.fast_log, gate.log_residual

        def expected():
            want = direct(g, N).coeffs
            buf = io.StringIO()
            series_core.write_series(want, buf)
            back = series_core.read_series(io.StringIO(buf.getvalue())).coeffs
            res = residual(g, back) if back.tobytes() == want.tobytes() else float("inf")
            return buf.getvalue().encode(), res

        def check(code):
            if code != 0:
                return float("inf")
            with open(self.out_path(), "rb") as fp:
                got = fp.read()
            want, res = self._ref(("cli", op, j), expected)
            return res if got == want else float("inf")

        return Call("cli", N, lambda led: cli.main(argv), check)

    # -- reference values ----------------------------------------------------------

    def _ref(self, key, compute):
        """Reference outputs are computed once per pool entry, untimed."""
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def _with_oracle(self, key, residual, oracle_call):
        if not self.oracle_check or key[1] >= CLI_FILES:
            return residual

        def check(out):
            want = self._ref(("oracle",) + key, oracle_call)
            if not gate.oracle_distance(out, want) <= gate.ORACLE_TOL:
                return float("inf")
            return residual(out)

        return check


SPECS = {
    "default-16k": dict(N=16384, N_newton=65536, N_cli=16384, power_args=2),
    "pinned-k16-4k": dict(N=4096, N_newton=4096, N_cli=4096,
                          pinned=True, oracle_check=True),
}


def build(name: str, seed: int, work_dir: str, shrink: int = 1) -> Workload:
    """The named workload; ``shrink`` divides every order (the self-test
    uses it to stay short)."""
    spec = dict(SPECS[name])
    for key in ("N", "N_newton", "N_cli"):
        spec[key] //= shrink
    return Workload(name=name, seed=seed, work_dir=work_dir, **spec)


def ledger_digest_text(ledger: CostLedger, plan) -> str:
    """report_kv for plan-driven calls; for plan-free calls (inverse, log)
    the ledger's events and scalar counts in order."""
    if plan is not None and not plan.fallback:
        return report_kv(ledger, plan)
    lines = [f"{e.stage}|{e.label}|{e.order}" for e in ledger.events]
    lines += [f"scalar.{k}={v}" for k, v in sorted(ledger.scalar.items())]
    return "\n".join(lines) + "\n"
