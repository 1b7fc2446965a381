"""Fast inverse, exponential and constant-power of truncated series.

The exponential of h (h[0] = 0) up to order 2m runs in three stages over a
shared block cache:

  stage one    bootstrap a short prefix, then repeatedly extend the frontier
               fr by n through the update
                   f += f_n * J(x**fr * r_n * floor(dh * f / x**fr))
               where dh = x*h' and J divides coefficient i by i, with every
               block product done on cached spectra;
  log stage    extend x times the logarithmic derivative of the computed
               prefix to order 2m with the same middle-product machinery;
  final stage  one blockwise short product f * (h - log f) using the
               order-2k segments the cache already holds.

Every derivative-like series is stored times x (x*h', x*f'/f, x*C*h'/h),
so the Newton cut at frontier fr falls on a block boundary: each step is a
middle product at shift fr over whole blocks.  Powers h**C (h[0] = 1)
follow the same shape with an extra series s = x*C*h'/h computed first:
its lower half folds the linear C*x*h' term into the flooring pass (with
x*h' held in double-sized blocks), its upper half runs on plain order-2k
products.  All budgets are recorded per stage in the ledger; bootstrap
work is tagged separately and excluded from budget bands.

fast_exp and fast_pow are the entry points: each checks its input and plan
once, then runs the private steps (_s_iteration for powers, _first_half,
_log_extend, _final_stage) on one fresh cache.

The order-n bootstrap prefixes are exponentials and reciprocals.  A power
takes its prefix h**C mod x**n as the exponential of the integral of its
seed C*h'/h mod x**(n-1), so it never calls itself or the quadratic
power reference.  The prefixes come from oracle_exp up to ORACLE_MAX_ORDER
(oracle_inverse up to ORACLE_INVERSE_MAX_ORDER) and, above it, from fast_exp
(fast_inverse) on its default plan, whose own bootstrap order is about n/4;
the recursion reaches the references within a level or two (at N = 2**14,
16384 -> fast_exp at 4096 -> oracle_exp at 1024).  The reciprocal of an
exp prefix f_n = exp(g) whose inversion would cancel is taken as exp(-g)
instead (_exp_prefixes).  Those inner calls get no ledger, so the
bootstrap stages of the caller's report stay empty.

On the block path fast_exp and fast_pow read subnormal input parts as signed
zeros (_flush_subnormals), far below any block product's rounding; see README.
"""

from __future__ import annotations

import cmath

import numpy as np

from . import block_engine, fft_core
from .block_engine import BlockCache, BlockPlan, frontier, triple_middle_product
from .cost_ledger import in_stage, record_dfts, tally
from .errors import DomainError, PlanError
from .oracle import _inverse_loop, oracle_exp, oracle_inverse, oracle_pow
from .series_core import TruncatedSeries, finite_coeffs, mul_mod, padded

FAST_MIN_ORDER = 32
# Largest bootstrap orders computed by the quadratic references, against
# fast_exp on its default plan and fast_inverse on an exp prefix, and the
# order the Newton steps start from, as printed by
# ``python tools/crossover.py src``:
# Intel(R) Xeon(R) Processor, 2 usable CPUs, numpy 2.4.6, Python 3.11.7
# median ms of 15 interleaved pairs, reference / fast, and pairs the reference won
#   order   exp                        inverse
#     256     0.37 /   1.19  15/15     0.24 /   0.16   0/15
#     512     0.63 /   1.44  15/15     0.43 /   0.20   0/15
#     768     0.91 /   1.94  15/15     0.66 /   0.25   0/15
#    1024     1.46 /   1.76  15/15     0.93 /   0.30   0/15
#    1536     2.40 /   2.43   8/15     1.55 /   0.40   0/15
#    2048     3.32 /   2.65   0/15     2.33 /   0.48   0/15
#    3072     5.75 /   3.57   0/15     4.34 /   0.66   0/15
#    4096     8.70 /   3.82   0/15     6.74 /   0.81   0/15
# fast_inverse at order 256, median ms of 100 interleaved pairs, Newton from
# the recurrence's order-b prefix / from order 1, pairs the prefix won, median ratio
#   b =   8     0.15 /   0.18  90/100   0.808
#   b =  16     0.15 /   0.18  94/100   0.833
#   b =  32     0.17 /   0.18  53/100   0.897
#   b =  64     0.23 /   0.19  12/100   1.244
#   b = 128     0.33 /   0.18   0/100   1.877
# closed-form family at N = 4096, pinned plans, error of seeds 7/8/9/10,
# bootstrap inverses from oracle_inverse up to 512 / from fast_inverse
#   exp  3.8e-13/1.9e-13/6.6e-14/5.1e-13
#        3.0e-12/1.5e-12/2.9e-13/5.9e-13
#   pow  1.6e-12/6.8e-13/2.8e-13/7.2e-13
#        1.5e-11/6.3e-12/2.9e-13/1.4e-12
# ORACLE_MAX_ORDER and NEWTON_BASE_ORDER were the largest order the reference
# won and the base of least ratio when chosen; in this run 1024 is the former
# (the 1536 row is a coin flip, 8/15) and b = 8 the latter (0.808 against
# 0.833).  Both wait for end-to-end runs (ROADMAP item 11).  Power prefixes
# are exponentials (see fast_pow), so no bootstrap runs oracle_pow.
# ORACLE_INVERSE_MAX_ORDER stays at 512, where the reference no longer wins
# on time but keeps the family's error lower on every seed, up to 9x.
ORACLE_MAX_ORDER = 1536
ORACLE_INVERSE_MAX_ORDER = 512
NEWTON_BASE_ORDER = 16

# Largest max|f_n| * max|r_n| of a bootstrap reciprocal prefix r_n = 1/f_n
# taken from the inverse; above it r_n is exp(-g) for f_n = exp(g), see
# _exp_prefixes.  exp(a*x) passes it from about a = 9 on.
RECIPROCAL_GROWTH_MAX = 1e6


def _finite_result(c: np.ndarray) -> TruncatedSeries:
    """The result series over c, an array made for it, unless a coefficient
    overflowed complex128."""
    if not np.all(np.isfinite(c)):
        raise DomainError("result coefficients overflow complex128")
    return TruncatedSeries._adopt(c)


def _flush_subnormals(c: np.ndarray) -> None:
    """Zero, in place and keeping its sign, every real or imaginary part of
    the complex array c below the smallest normal float64 in magnitude, as
    hardware flush-to-zero does: block products on such parts are slow."""
    parts = c.view(np.float64)
    np.copysign(0.0, parts, out=parts, where=np.abs(parts) < np.finfo(np.float64).tiny)


def _prefix_exp(h, n: int) -> np.ndarray:
    """exp(h) mod x**n for a bootstrap prefix, without a ledger."""
    if n <= ORACLE_MAX_ORDER:
        return _finite_result(oracle_exp(h, n).coeffs).coeffs
    return fast_exp(h, n).coeffs


def _prefix_inverse(f, n: int) -> np.ndarray:
    """1/f mod x**n for a bootstrap prefix, without a ledger."""
    if n <= ORACLE_INVERSE_MAX_ORDER:
        return _finite_result(oracle_inverse(f, n).coeffs).coeffs
    return fast_inverse(f, n).coeffs


def _exp_prefixes(g, ledger, stage) -> tuple[np.ndarray, np.ndarray]:
    """The bootstrap prefix f_n = exp(g) mod x**n, n = len(g), made under
    stage, and its reciprocal r_n = 1/f_n mod x**n, made under bootstrap.I.

    r_n is _prefix_inverse(f_n), unless that overflows or its growth
    max|f_n| * max|r_n| passes RECIPROCAL_GROWTH_MAX: inverting f_n then
    cancels in every coefficient (on g = a*x both factors grow like e**|a|),
    and r_n comes from exp(-g) mod x**n, the same series, whose reference
    does not cancel."""
    with in_stage(ledger, stage):
        f_n = _prefix_exp(g, len(g))
    with in_stage(ledger, "bootstrap.I"):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                r_n = _prefix_inverse(f_n, len(g))
            if np.max(np.abs(f_n)) * np.max(np.abs(r_n)) <= RECIPROCAL_GROWTH_MAX:
                return f_n, r_n
        except DomainError:  # the inverse overflowed complex128
            pass
        return f_n, _prefix_exp(np.negative(g), len(g))


# -- plan selection -----------------------------------------------------------

def choose_plan(N: int) -> BlockPlan:
    """Block plan for a final order N.  The frontier m = frontier(N) is 2^a
    or 3*2^a: m = 2^a gives k = m/4 (m/8 once m > 2^16) and n = m/2, m = 3*2^a
    gives k = m/6 and n = m/3.  Below FAST_MIN_ORDER the plan flags the
    quadratic fallback path."""
    if N < 1:
        raise DomainError("order must be positive")
    if N < FAST_MIN_ORDER:
        return BlockPlan(k=0, n=0, m=0, fallback=True)
    m = frontier(N)
    if m & (m - 1):
        return BlockPlan(k=m // 6, n=m // 3, m=m)
    return BlockPlan(k=m // 8 if m > 1 << 16 else m // 4, n=m // 2, m=m)


def bench_plan(op: str, N: int, k: int | None = None, n: int | None = None) -> BlockPlan:
    """Pinned plan of op ("exp" or "pow") at final order N, with the block
    size k and the bootstrap order n overridden where given.  Valid means
    step*k | n and n | m, step being 1 for exp and 2 for pow.

    k is 16 by default, halved where no valid plan has it, and n the
    largest valid order up to m/8 for exp, m/4 for pow, so the measured
    stage constants decrease toward their limits as the ladder grows.  k =
    16 fits from m = 128 on; at m = 8 and 12, where no k does, the bound is
    raised to the order k = 2 needs.  A given n takes the first k that fits
    it."""
    if op not in ("exp", "pow"):
        raise PlanError(f"no bench plan for {op!r}: only exp and pow run block plans")
    if k is not None and k < 2:
        raise PlanError("block size must be at least 2")
    m = frontier(N)
    step = 1 if op == "exp" else 2
    sizes = [16, 8, 4, 2] if k is None else [k]
    if n is not None:
        fits = [kk for kk in sizes if n % (step * kk) == 0]
        if not fits:
            raise PlanError(f"no valid block size for n={n}, m={m}")
        return BlockPlan(k=fits[0], n=n, m=m)
    cap = max(m // 8 if op == "exp" else m // 4, 2 * step)  # <= m/2
    for kk in sizes:
        orders = [d for d in range(step * kk, cap + 1, step * kk) if m % d == 0]
        if orders:
            return BlockPlan(k=kk, n=max(orders), m=m)
    raise PlanError(f"no valid bootstrap order for k={kk}, m={m}")


# -- shared machinery --------------------------------------------------------

def _window_product_2k(cache, x_label, y, ledger, y_label, out_label):
    """Short product (x * y) mod x**len(y) where x is given by the order-2k
    segments of its cached blocks 0..len(y)/k-1 and y is a fresh coefficient
    window of whole blocks, transformed here in one batch."""
    k = cache.k
    y_blocks = np.asarray(y, dtype=np.complex128).reshape(-1, k)
    y_specs = fft_core.dft(y_blocks, 2 * k, ledger=ledger, label=y_label).values
    return block_engine.short_product_2k(cache.rows(x_label, len(y_blocks), ledger), y_specs, 0,
                                         len(y_blocks), ledger, out_label)


def _first_half(cache, f_n, r_n, b_label, plan, ledger, stage, b_stage=None) -> np.ndarray:
    """f mod x**m from its order-n prefix f_n and the reciprocal prefix r_n:
    the frontier grows by n per step through the update
    f += f_n * J(x**fr * r_n * floor(b * f / x**fr)), where b = x*f'/f is
    the cached series b_label, whose new blocks are transformed under
    b_stage (the current stage when None), and J divides coefficient i by
    i.  Registers f and r."""
    m, n, k = plan.m, plan.n, plan.k
    f_arr = padded(f_n, m)
    cache.register("f", f_arr, known=n)
    cache.register("r", r_n)
    with in_stage(ledger, stage):
        cache.ensure("r", n // k - 1, ledger=ledger)
        for fr in range(n, m, n):
            with in_stage(ledger, b_stage):
                cache.ensure(b_label, (fr + n) // k - 1, ledger=ledger)
            q = triple_middle_product(cache, "r", b_label, "f", fr, n, ledger=ledger)
            tail = q.coeffs / np.arange(fr, fr + n)
            tally(ledger, smul=n)
            f_arr[fr : fr + n] = _window_product_2k(
                cache, "f", tail, ledger, y_label="j-blocks", out_label="update-restore"
            )
            cache.extend_known("f", fr + n)
        cache.ensure("f", m // k - 1, ledger=ledger)
    return f_arr


def _final_stage(cache, f_arr, w_tail, ledger, stage) -> np.ndarray:
    """f + x**m * (f * w_tail mod x**m) for the order-m prefix f, m =
    len(w_tail), as one blockwise short product on the order-2k segments of
    f's cached blocks; w_tail is the correction's upper half over its powers."""
    m = len(w_tail)
    with in_stage(ledger, stage):
        tally(ledger, smul=m, cadd=m)
        upper = _window_product_2k(
            cache, "f", w_tail, ledger, y_label="w-blocks", out_label="final-restore"
        )
    return np.concatenate([f_arr, upper])


# -- inverse and logarithm ----------------------------------------------------

def _newton_orders(N: int) -> list[int]:
    """Orders of the Newton steps towards N, ascending: each is at most
    twice the one before, starting above 1."""
    orders = []
    while N > 1:
        orders.append(N)
        N = (N + 1) // 2
    return orders[::-1]


def _workspace(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three complex work arrays of length L for the Newton layer, the
    calling thread's held arrays (block_engine._held), so repeated calls
    allocate no transform-sized arrays; a thread keeps 3 * 16 * L bytes for
    the largest L it has used (3 MB at L = 2**16)."""
    return tuple(block_engine._held(("newton", i), L) for i in range(3))


def _wrap_step(q, a, f, h, t, work, ledger, label):
    """Extend q = a/f from order h to order t <= 2h in place: q[:h] is known
    and q[h:t] is written.  a and f hold the coefficients of the numerator
    (None for a = 1; a[h:t] is read before q[h:t] is written, so a may be q)
    and the denominator, and work = (r_spec, prod, spare) three arrays of
    one length L >= t.  One dft_pair takes the order-L values of f[:t] into
    prod and those of q[:h] into spare, or into r_spec when a is None: q[:h]
    is then r = 1/f mod x**h itself.  Otherwise r_spec must hold r's values.
    The step records its five transforms and two products under label.

    The cyclic product f[:t]*q of length L is exact on coefficients h..t-1,
    because its terms past L wrap onto indices below t+h-1-L < h.  Those give
    the residual e = (f*q - a)/x**h mod x**(t-h), and q[h:t] = -(r*e) mod
    x**(t-h): three transforms of order L after the pair."""
    r_spec, prod, spare = work
    q_spec = r_spec if a is None else spare
    L = r_spec.size
    fft_core.dft_pair(q[:h], f[:t], L, q_spec, prod)
    e = fft_core._backward(np.multiply(prod, q_spec, out=prod), prod)[h:t]
    if a is not None:
        e -= a[h:t]
    re = np.multiply(r_spec, fft_core._forward(e, L, spare), out=spare)
    np.negative(fft_core._backward(re, spare)[: t - h], out=q[h:t])
    record_dfts(ledger, (L,), 5, label)
    tally(ledger, cmul=2 * L)


def _newton_inverse(c: np.ndarray, N: int, ledger) -> np.ndarray:
    """1/f mod x**N for c[0] != 0, in a fresh array.  The coefficient
    recurrence makes r to b, the largest Newton order up to
    NEWTON_BASE_ORDER (1 when there is none), and Newton steps take it on
    from there.  They run in the thread's workspace, and r's spectrum serves
    both products of a step."""
    orders = _newton_orders(N)
    base = [t for t in orders if t <= NEWTON_BASE_ORDER]
    b = base[-1] if base else 1
    r = np.empty(N, dtype=np.complex128)
    r[:b] = _inverse_loop(c[:b], b)  # c is checked; oracle_inverse runs this up to 64
    # coefficient j of the recurrence is a dot product of min(j, d) terms
    d = min(c.size, b) - 1
    macs = d * (2 * b - d - 1) // 2
    tally(ledger, cmul=macs, cadd=macs)
    work = _workspace(fft_core.granted_length(N))
    h = b
    for t in orders[len(base) :]:
        L = fft_core.granted_length(t)
        _wrap_step(r, None, c, h, t, [w[:L] for w in work], ledger, "newton")
        h = t
    return r


def fast_inverse(f, N: int, ledger=None) -> TruncatedSeries:
    """1/f mod x**N by Newton doubling r <- r - r*(f*r - 1), with the
    residual read off a wrap-around product of length granted(t) and r's
    spectrum shared by both products of a step: 5 transforms per step.  The
    steps start from the coefficient recurrence's prefix of order up to
    NEWTON_BASE_ORDER, so up to that order the result is oracle_inverse's
    bit for bit, with no transform, and up to N = 2**16 there are 60
    transforms, all of order 2**j."""
    c = finite_coeffs(f)
    if N < 1:
        raise DomainError("order must be positive")
    if c.size == 0 or c[0] == 0:
        raise DomainError("series with zero constant term is not invertible")
    with in_stage(ledger, "inverse"):
        r = _newton_inverse(c, N, ledger)
    return _finite_result(r)


def fast_log(f, N: int, ledger=None) -> TruncatedSeries:
    """log(f) mod x**N for f[0] = 1, as the integral of q = f'/f.

    The reciprocal r is computed only to order h = ceil((N-1)/2), as
    fast_inverse does (by the recurrence alone when h <= NEWTON_BASE_ORDER);
    q comes from q = f'*r mod x**h and one _wrap_step with numerator f'
    (Karp-Markstein), which reuses r's spectrum: 8 transforms of order
    granted(N-1) next to the half-order inverse."""
    c = finite_coeffs(f)
    if N < 1:
        raise DomainError("order must be positive")
    if c.size == 0 or c[0] != 1:
        raise DomainError("log needs constant term 1")
    out = np.zeros(N, dtype=np.complex128)
    if N == 1:
        return TruncatedSeries(out)
    M, h = N - 1, N // 2
    L = fft_core.granted_length(M)
    spec, prod, _ = work = _workspace(L)
    # q = f'/f mod x**M is built in out[1:], which holds f' until the
    # wrap-around step has read it
    q, n, powers = out[1:], min(c.size, N), np.arange(1, N)
    np.multiply(powers[: n - 1], c[1:n], out=q[: n - 1])
    with in_stage(ledger, "inverse"):
        r = _newton_inverse(c, h, ledger)
    # r's spectrum stays in spec for both products
    fft_core.dft_pair(r, q[:h], L, spec, prod)
    q[:h] = fft_core._backward(np.multiply(prod, spec, out=prod), prod)[:h]
    record_dfts(ledger, (L,), 3, "log")
    tally(ledger, cmul=L)
    if M > h:
        _wrap_step(q, q, c, h, M, work, ledger, "log")
    q /= powers
    return _finite_result(out)


# -- exponential --------------------------------------------------------------

def _log_extend(cache, plan, ledger, stage, label, seed_label) -> np.ndarray:
    """x times the logarithmic derivative of the cached order-m prefix f,
    extended to order 2m as the series ``label``; coefficient i over i is
    that of log(f) up to order 2m.

    Seeded from the cached series ``seed_label``, equal to it below x**m,
    whose m/k block spectra are shared instead of recomputed; only blocks
    past the seed are transformed.  Reads f and r as _first_half left them.
    """
    m, n, k = plan.m, plan.n, plan.k
    s_arr = np.zeros(2 * m, dtype=np.complex128)
    s_arr[:m] = cache.series_array(seed_label)[:m]
    cache.register(label, s_arr, known=m)
    cache.alias(label, seed_label, m // k - 1)
    with in_stage(ledger, stage):
        for fr in range(m, 2 * m, n):
            q = triple_middle_product(cache, "r", label, "f", fr, n, ledger=ledger)
            s_arr[fr : fr + n] = -q.coeffs
            cache.extend_known(label, fr + n)
    return s_arr


def fast_exp(h, N: int, plan: BlockPlan | None = None, ledger=None) -> TruncatedSeries:
    """exp(h) mod x**N for h[0] = 0."""
    h_arr = finite_coeffs(h)
    if N < 1:
        raise DomainError("order must be positive")
    if h_arr.size and h_arr[0] != 0:
        raise DomainError("exp needs a zero constant term")
    if plan is None:
        plan = choose_plan(N)
    if plan.fallback:
        with in_stage(ledger, "bootstrap.E"):
            return _finite_result(oracle_exp(h_arr, N).coeffs)
    m, n = plan.m, plan.n
    if 2 * m < N:
        raise PlanError(f"plan reaches order {2 * m}, below {N}")
    h2 = padded(h_arr, 2 * m)
    _flush_subnormals(h2)

    f_n, r_n = _exp_prefixes(h2[:n], ledger, "bootstrap.E")
    with BlockCache(plan.k) as cache:
        cache.register("dh", np.arange(2 * m) * h2)
        f_arr = _first_half(cache, f_n, r_n, "dh", plan, ledger, "exp.stage1")
        s = _log_extend(cache, plan, ledger, "exp.log", "s", "dh")
        w_tail = h2[m:] - s[m:] / np.arange(m, 2 * m)
        f = _final_stage(cache, f_arr, w_tail, ledger, "exp.final")
    return _finite_result(f[:N])


# -- constant powers ----------------------------------------------------------

def _s_second_half(cache, C, plan, ledger):
    """Upper half of the cached s = x*C*h'/h: each extension is two plain
    order-2k short products (the s*h window and the reciprocal correction)."""
    m, n, k = plan.m, plan.n, plan.k
    s_arr, dh = cache.series_array("s"), cache.series_array("dh2")
    for fr in range(m, 2 * m, n):
        h_rows = cache.rows("h", (fr + n) // k, ledger)  # made before s's, in event order
        # block 0, below the cut, reaches past it: coefficients fr.. of s*h are u[k:]
        u = block_engine.short_product_2k(cache.rows("s", fr // k, ledger), h_rows,
                                          fr // k - 1, n // k + 1, ledger, "u2k-restore")
        G = C * dh[fr : fr + n] - u[k:]
        tally(ledger, cmul=n, cadd=2 * n)
        s_arr[fr : fr + n] = _window_product_2k(
            cache, "rho", G, ledger, y_label="g-blocks", out_label="s2-restore"
        )
        cache.extend_known("s", fr + n)


def _s_iteration(cache, plan, ledger, h2, dh, rho_n, seed, C) -> np.ndarray:
    """Extend s = x*C*h'/h from its seed, coefficients 1..n-1, to order 2m,
    for h2 = h mod x**(2m) and dh = x*h2'.

    The lower half uses the folded flooring pass on cached block spectra;
    the upper half switches to plain order-2k products.  Registers h, dh
    (double-sized blocks, as dh2), the reciprocal prefix rho_n and s.
    """
    m, n, k = plan.m, plan.n, plan.k
    cache.register("h", h2)
    cache.register("dh2", dh, block=2 * k)
    cache.register("rho", rho_n)
    s_arr = np.zeros(2 * m, dtype=np.complex128)
    s_arr[1:n] = seed
    cache.register("s", s_arr, known=n)

    with in_stage(ledger, "pow.s.first"):
        cache.ensure("rho", n // k - 1, ledger=ledger)
        for fr in range(n, m, n):
            q = triple_middle_product(cache, "rho", "s", "h", fr, n, ledger=ledger,
                                      linear=(C, "dh2"))
            s_arr[fr : fr + n] = q.coeffs
            cache.extend_known("s", fr + n)
    with in_stage(ledger, "pow.s.second"):
        _s_second_half(cache, C, plan, ledger)
    return s_arr


def fast_pow(h, C, N: int, plan: BlockPlan | None = None, ledger=None) -> TruncatedSeries:
    """h**C mod x**N for h[0] = 1 and a finite complex exponent."""
    Cc = complex(C)
    if not cmath.isfinite(Cc):
        raise DomainError("exponent must be finite")
    h_arr = finite_coeffs(h)
    if N < 1:
        raise DomainError("order must be positive")
    if h_arr.size == 0 or h_arr[0] != 1:
        raise DomainError("power runs need constant term 1")
    if Cc == 0:
        out = np.zeros(N, dtype=np.complex128)
        out[0] = 1.0
        return TruncatedSeries(out)
    if Cc == 1:
        return TruncatedSeries(padded(h_arr, N))
    if plan is None:
        plan = choose_plan(N)
    if plan.fallback:
        with in_stage(ledger, "bootstrap.P"):
            return _finite_result(oracle_pow(h_arr, Cc, N).coeffs)
    m, n, k = plan.m, plan.n, plan.k
    if n % (2 * k):
        raise PlanError("power runs need the extension order to span double blocks")
    if 2 * m < N:
        raise PlanError(f"plan reaches order {2 * m}, below {N}")
    h2 = padded(h_arr, 2 * m)
    _flush_subnormals(h2)

    with in_stage(ledger, "bootstrap.rho"):
        rho_n = _prefix_inverse(h2[:n], n)
    dh = np.arange(2 * m) * h2
    with in_stage(ledger, "bootstrap.s"):
        seed = Cc * mul_mod(dh[1:n], rho_n, n - 1).coeffs
    # the seed is C*log(h)' mod x**(n-1), so h**C mod x**n = exp(integral)
    g_n = np.concatenate([[0], seed / np.arange(1, n)])
    f_n, r_n = _exp_prefixes(g_n, ledger, "bootstrap.P")

    with BlockCache(k) as cache:
        s_arr = _s_iteration(cache, plan, ledger, h2, dh, rho_n, seed, Cc)
        # the blocks of s are charged to the stage that computed s
        f_arr = _first_half(cache, f_n, r_n, "s", plan, ledger, "pow.f", b_stage="pow.s.first")
        sf = _log_extend(cache, plan, ledger, "pow.log", "sf", "s")
        w_tail = (s_arr[m:] - sf[m:]) / np.arange(m, 2 * m)
        f = _final_stage(cache, f_arr, w_tail, ledger, "pow.final")
    return _finite_result(f[:N])
