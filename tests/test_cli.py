import contextlib
import hashlib
import io
from math import factorial

import numpy as np
import pytest

from fastseries import (
    BlockPlan, CostLedger, PlanError, choose_plan, fast_exp, fast_pow, load_series, oracle_pow,
)
from fastseries import cli
from fastseries.cli import bench_plan, exp_input, main, pow_input, run_bench, run_verify
from fastseries.cost_ledger import report_kv

from util import rel_err


def write_input(path, coeffs):
    with open(path, "w") as fp:
        fp.write(f"#order {len(coeffs)}\n")
        for i, c in enumerate(coeffs):
            z = complex(c)
            fp.write(f"{i}\t{z.real!r}\t{z.imag!r}\n")


def test_exp_command(tmp_path):
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    write_input(src, [0, 1] + [0] * 6)
    assert main(["exp", str(src), str(dst), "--n", "8"]) == 0
    out = load_series(dst).coeffs
    want = [1 / factorial(i) for i in range(8)]
    assert np.allclose(out, want)


def test_pow_command(tmp_path):
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    write_input(src, [1, 1, 0, 0])
    assert main(["pow", str(src), str(dst), "--n", "4", "--power-re", "2"]) == 0
    assert np.allclose(load_series(dst).coeffs, [1, 2, 1, 0])


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    """The parser is built once: an option one call gives does not carry
    over to the next, and a usage error leaves the next call working."""
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    write_input(src, [1, 1, 0, 0])
    args = ["pow", str(src), str(dst), "--n", "4", "--power-re", "2"]
    assert main(args + ["--power-im", "1"]) == 0
    assert rel_err(load_series(dst).coeffs, oracle_pow([1, 1], 2 + 1j, 4).coeffs) < 1e-12
    assert main(args) == 0
    assert np.allclose(load_series(dst).coeffs, [1, 2, 1, 0])
    with pytest.raises(SystemExit) as exc:
        main(args[:-2])
    assert exc.value.code == 2 and "--power-re" in capsys.readouterr().err
    assert main(["log", str(src), str(dst), "--n", "4"]) == 0
    assert np.allclose(load_series(dst).coeffs, [0, 1, -0.5, 1 / 3])
    assert cli._parser() is cli._parser()


def test_log_and_inv_commands(tmp_path):
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    write_input(src, [1, 1, 0, 0])
    assert main(["log", str(src), str(dst), "--n", "4"]) == 0
    assert np.allclose(load_series(dst).coeffs, [0, 1, -0.5, 1 / 3])
    assert main(["inv", str(src), str(dst), "--n", "4", "--algorithm", "oracle"]) == 0
    assert np.allclose(load_series(dst).coeffs, [1, -1, 1, -1])


def test_plan_overrides_and_report(tmp_path):
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    rep = tmp_path / "rep.txt"
    write_input(src, [0, 1] + [0] * 62)
    code = main([
        "exp", str(src), str(dst), "--n", "64",
        "--block-size", "4", "--bootstrap-order", "8",
        "--report", str(rep),
    ])
    assert code == 0
    text = rep.read_text()
    assert "plan.k=4" in text and "stage.exp.stage1.units=" in text


@pytest.mark.parametrize("cmd, N", [("exp", 256), ("exp", 3072), ("pow", 256), ("pow", 1024)])
def test_default_plan_report_is_the_plan_that_ran(tmp_path, cmd, N):
    """Without plan flags the CLI names the plan after the call; its report
    must be the one the library call on the same file makes on its default
    plan, so a change of the default route cannot leave a wrong report."""
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    rep = tmp_path / "rep.txt"
    rng = np.random.default_rng(N)
    write_input(src, exp_input(rng, N) if cmd == "exp" else pow_input(rng, N))
    extra = ["--power-re", "0.3", "--power-im", "0.7"] if cmd == "pow" else []
    assert main([cmd, str(src), str(dst), "--n", str(N), "--report", str(rep), *extra]) == 0
    series, led = load_series(src), CostLedger()
    if cmd == "exp":
        fast_exp(series, N, ledger=led)
    else:
        fast_pow(series, 0.3 + 0.7j, N, ledger=led)
    assert rep.read_text() == report_kv(led, choose_plan(N))


def test_bootstrap_order_alone_gives_a_power_plan(tmp_path):
    """n = 96 = 3 * 2**5 alone: the block size chosen for it leaves 2k | n,
    as power runs need."""
    src = tmp_path / "g.txt"
    dst = tmp_path / "o.txt"
    g = pow_input(np.random.default_rng(5), 384)
    write_input(src, g)
    args = ["pow", str(src), str(dst), "--n", "384", "--power-re", "0.5", "--bootstrap-order", "96"]
    assert main(args) == 0
    assert rel_err(load_series(dst).coeffs, oracle_pow(g, 0.5, 384).coeffs) < 1e-10


@pytest.mark.parametrize("cmd, extra", [
    ("exp", ["--algorithm", "oracle"]),
    ("pow", ["--algorithm", "oracle", "--power-re", "0.5"]),
    ("inv", []),
    ("log", []),
    ("inv", ["--algorithm", "oracle"]),
    ("log", ["--algorithm", "oracle"]),
])
def test_oracle_report_names_no_plan(tmp_path, cmd, extra):
    """A run without a block plan (any oracle run, and the fast inv and log,
    which run the Newton layer) writes the no-plan report, not a block plan
    that never ran."""
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    rep = tmp_path / "rep.txt"
    write_input(src, [0 if cmd == "exp" else 1, 0.5] + [0] * 254)
    args = [cmd, str(src), str(dst), "--n", "256", "--report", str(rep)]
    assert main(args + extra) == 0
    assert rep.read_text() == "plan.fallback=1\nplan.target=256\n"


def test_negative_order_exit_code(tmp_path):
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    for cmd in ("exp", "log", "inv", "pow"):
        write_input(src, [0 if cmd == "exp" else 1, 0.5])
        extra = ["--power-re", "0.5"] if cmd == "pow" else []
        for algorithm in ("fast", "oracle"):
            args = [cmd, str(src), str(dst), "--n", "-1", "--algorithm", algorithm, *extra]
            assert main(args) == 1, (cmd, algorithm)
            assert not dst.exists()


@pytest.mark.parametrize("cmd, flags", [
    ("exp", ["--block-size", "0"]),
    ("exp", ["--bootstrap-order", "0"]),
    ("pow", ["--block-size", "0", "--power-re", "0.5"]),
    ("exp", ["--block-size", "0", "--algorithm", "oracle"]),
    ("pow", ["--bootstrap-order", "6", "--power-re", "0.5", "--algorithm", "oracle"]),
    ("pow", ["--block-size", "16", "--bootstrap-order", "16", "--power-re", "0.5",
             "--algorithm", "oracle"]),
])
def test_zero_plan_flags_are_rejected(tmp_path, cmd, flags):
    """A zero plan flag is an override like any other: it must reach
    bench_plan and fail there, not fall through to the default plan, and an
    override no plan fits fails on the oracle engine too."""
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    write_input(src, [1 if cmd == "pow" else 0, 1] + [0] * 62)
    assert main([cmd, str(src), str(dst), "--n", "64", *flags]) == 1
    assert not dst.exists()


def test_negative_bootstrap_order_is_a_plan_error(tmp_path, capsys):
    """A negative bootstrap order fails as a plan error, before any
    bootstrap runs on it."""
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    write_input(src, [0, 1] + [0] * 1022)
    assert main(["exp", str(src), str(dst), "--n", "1024", "--bootstrap-order", "-4"]) == 1
    assert capsys.readouterr().err == "error: bootstrap order -4 must be positive\n"
    assert not dst.exists()


@pytest.mark.parametrize("cmd", ["inv", "log"])
def test_plan_flags_only_on_exp_and_pow(tmp_path, cmd, capsys):
    src = tmp_path / "h.txt"
    write_input(src, [1, 1, 0, 0])
    with pytest.raises(SystemExit) as exc:
        main([cmd, str(src), str(tmp_path / "f.txt"), "--n", "4", "--block-size", "4"])
    assert exc.value.code == 2
    assert "--block-size" in capsys.readouterr().err


def test_domain_error_exit_code(tmp_path):
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    write_input(src, [1, 1])  # nonzero constant term: not a valid exp input
    assert main(["exp", str(src), str(dst), "--n", "4"]) == 1


def test_non_finite_input_exit_code(tmp_path):
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    write_input(src, [1, 0.5, float("nan"), 0.25])
    assert main(["inv", str(src), str(dst), "--n", "4"]) == 1
    assert not dst.exists()


@pytest.mark.parametrize("cmd, coeffs, extra", [
    ("exp", [0, 0.5, float("nan"), 0.25], []),
    ("log", [1, float("nan"), 0, 0], []),
    ("inv", [1, 0.5, float("inf"), 0.25], []),
    ("pow", [1, 0.5, float("nan"), 0.25], ["--power-re", "0.5"]),
    ("pow", [1, 0.5, 0, 0], ["--power-re", "inf"]),
], ids=["exp", "log", "inv", "pow", "pow-exponent"])
def test_oracle_path_rejects_non_finite_input(tmp_path, cmd, coeffs, extra):
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    write_input(src, coeffs)
    args = [cmd, str(src), str(dst), "--n", "4", "--algorithm", "oracle", *extra]
    assert main(args) == 1
    assert not dst.exists()


def test_parse_error_exit_code(tmp_path):
    src = tmp_path / "h.txt"
    src.write_text("#order 2\n0\t1\t0\nbad\n")
    assert main(["exp", str(src), str(tmp_path / "f.txt"), "--n", "4"]) == 2
    src.write_text("#order 1000000000000\n0\t1\t0\n")
    assert main(["exp", str(src), str(tmp_path / "f.txt"), "--n", "4"]) == 2


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_bytes(b"\xff\xfe\x00\x01")
    assert main(["inv", str(src), str(tmp_path / "o.txt"), "--n", "4"]) == 2
    assert "line 1: byte 0 is not UTF-8 text" in capsys.readouterr().err
    src.write_bytes(b"#order 2\n0\t1\t0\r\n1\t0.5\xe9\t0\n")
    assert main(["inv", str(src), str(tmp_path / "o.txt"), "--n", "4"]) == 2
    assert "line 3: byte 21 is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


def test_unallocatable_order_exit_code(tmp_path, capsys):
    """An order numpy refuses at once (16 PB of coefficients) is an error
    message and exit code 1, not a MemoryError traceback."""
    src = tmp_path / "ok.txt"
    dst = tmp_path / "o.txt"
    write_input(src, [1, 0.5])
    assert main(["inv", str(src), str(dst), "--n", "1000000000000000"]) == 1
    assert "error: out of memory" in capsys.readouterr().err
    assert not dst.exists()


def test_missing_file_exit_code(tmp_path):
    assert main(["exp", str(tmp_path / "no.txt"), str(tmp_path / "f.txt"), "--n", "4"]) == 2


def test_file_format_roundtrip_via_cli(tmp_path):
    src = tmp_path / "h.txt"
    dst = tmp_path / "f.txt"
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    write_input(src, coeffs)
    assert main(["inv", str(src), str(dst), "--n", "16"]) == 0
    back = load_series(src).coeffs
    assert np.array_equal(back, coeffs)


def test_verify_passes():
    buf = io.StringIO()
    worst = run_verify([64, 128], seed=1, out=buf)
    assert worst <= 1e-8
    assert "verify result=ok" in buf.getvalue()
    assert "\nlog N=64 max_err=" in buf.getvalue()


def test_verify_cli_exit(tmp_path):
    rep = tmp_path / "verify.txt"
    assert main(["verify", "--sizes", "64", "--seed", "3", "--report", str(rep)]) == 0
    assert "exp N=64" in rep.read_text()


@pytest.mark.parametrize("cmd, sizes", [
    ("verify", "0"), ("verify", "-4"), ("verify", "abc"), ("verify", "64,"), ("bench", "x"),
])
def test_bad_sizes_are_a_usage_error(cmd, sizes, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--sizes", sizes])
    assert exc.value.code == 2
    assert "--sizes" in capsys.readouterr().err


def test_bench_reports_are_byte_identical(tmp_path):
    rep1 = tmp_path / "r1.txt"
    rep2 = tmp_path / "r2.txt"
    assert main(["bench", "--sizes", "256,512", "--seed", "7", "--report", str(rep1)]) == 0
    assert main(["bench", "--sizes", "256,512", "--seed", "7", "--report", str(rep2)]) == 0
    b1 = rep1.read_bytes()
    b2 = rep2.read_bytes()
    assert b1 == b2 and len(b1) > 0


# sha256 of the kv report of `bench --sizes 256,512,1024,2048,4096 --seed 11`:
# every transform event and scalar count of the pinned k=16 ladder, with every
# block transformed once, whole, and the block-pair sums on the block-axis path.
BENCH_KV_SHA256 = "a39b3cdba61c7a6f2b1a4afdf37986b456d797b3db2fc8fdebbca111757a1bfe"


def test_bench_report_matches_pinned_digest(tmp_path):
    rep = tmp_path / "r.txt"
    args = ["bench", "--sizes", "256,512,1024,2048,4096", "--seed", "11", "--report", str(rep)]
    assert main(args) == 0
    assert hashlib.sha256(rep.read_bytes()).hexdigest() == BENCH_KV_SHA256


def test_bench_stdout_contains_tables():
    buf = io.StringIO()
    run_bench([256], seed=1, out=buf)
    text = buf.getvalue()
    assert "== exp N=256 ==" in text and "== pow N=256 ==" in text
    assert "exp.stage1" in text and "pow.s.first" in text


@pytest.mark.parametrize("args, marker", [
    (["verify", "--sizes", "64"], "verify result=ok"),
    (["bench", "--sizes", "256"], "== pow N=256 =="),
])
def test_commands_write_to_the_stdout_of_the_call(args, marker):
    """verify and bench write where sys.stdout points when they run, so a
    redirect made after import takes their text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(args) == 0
    assert marker in buf.getvalue()


def test_bench_runs_at_small_sizes(tmp_path):
    """Frontiers below m = 128 have no order up to m/8 (exp) or m/4 (pow)
    that k = 16 divides; the bench plan halves k there instead of failing."""
    rep = tmp_path / "r.txt"
    sizes = "1,3,16,17,33,64,65,128,192,193,200,257,384"
    assert main(["bench", "--sizes", sizes, "--seed", "3", "--report", str(rep)]) == 0
    assert rep.read_text().count("plan.k=") == 2 * len(sizes.split(","))


def test_bench_bootstrap_order_alone_keeps_block_size_16(tmp_path):
    rep = tmp_path / "r.txt"
    assert main(["bench", "--bootstrap-order", "64", "--sizes", "1024", "--report", str(rep)]) == 0
    text = rep.read_text()
    assert text.count("plan.k=16\nplan.n=64\n") == 2


def test_bench_bootstrap_order_alone_halves_k_for_pow(tmp_path):
    """n = 16 alone: exp keeps k = 16, pow halves it to 8 so that 2k | n."""
    rep = tmp_path / "r.txt"
    assert main(["bench", "--bootstrap-order", "16", "--sizes", "1024", "--report", str(rep)]) == 0
    text = rep.read_text()
    assert "[exp N=1024]\nplan.k=16\nplan.n=16\n" in text
    assert "[pow N=1024]\nplan.k=8\nplan.n=16\n" in text


@pytest.mark.parametrize("cmd", ["exp", "pow"])
def test_block_size_override_runs_the_bench_plan(tmp_path, cmd):
    """--block-size means the same plan on exp and pow as on bench."""
    N = 4096
    src, dst = tmp_path / "h.txt", tmp_path / "f.txt"
    rep, bench_rep = tmp_path / "rep.txt", tmp_path / "bench.txt"
    rng = np.random.default_rng(N)
    write_input(src, exp_input(rng, N) if cmd == "exp" else pow_input(rng, N))
    extra = ["--power-re", "0.3", "--power-im", "0.7"] if cmd == "pow" else []
    assert main([cmd, str(src), str(dst), "--n", str(N), "--block-size", "16",
                 "--report", str(rep), *extra]) == 0
    assert main(["bench", "--sizes", str(N), "--block-size", "16", "--report", str(bench_rep)]) == 0
    plan_lines = [line for line in rep.read_text().splitlines() if line.startswith("plan.")]
    section = bench_rep.read_text().split(f"[{cmd} N={N}]\n")[1]
    assert plan_lines == section.splitlines()[: len(plan_lines)]
    assert plan_lines[:3] == ["plan.k=16", f"plan.n={256 if cmd == 'exp' else 512}", "plan.m=2048"]


@pytest.mark.parametrize("flags, message", [
    (["--block-size", "1"], "error: block size must be at least 2\n"),
    (["--sizes", "256", "--block-size", "1024"], "error: no valid bootstrap order for k=1024, m=128\n"),
])
def test_bench_block_size_without_a_plan_exits_1(flags, message, capsys):
    assert main(["bench", *flags]) == 1
    assert capsys.readouterr().err == message


def test_bench_timing_only_adds_a_stderr_line(tmp_path, capsys):
    runs = []
    for extra in ([], ["--timing"]):
        rep = tmp_path / f"r{len(runs)}.txt"
        assert main(["bench", "--sizes", "256", "--report", str(rep), *extra]) == 0
        out, err = capsys.readouterr()
        runs.append((out, rep.read_bytes(), err))
    assert runs[1][:2] == runs[0][:2] and runs[0][2] == ""
    lines = runs[1][2].splitlines()
    assert len(lines) == 1 and lines[0].startswith("bench wall clock: ")


def test_bench_plans_keep_k16_where_it_fits():
    for size in range(1, 1100):
        for op, step, cap in (("exp", 1, 8), ("pow", 2, 4)):
            plan = bench_plan(op, size)
            assert plan.n % (step * plan.k) == 0
            assert plan.k == 16 or plan.m < 128
            assert plan.n <= plan.m // cap or (plan.k, plan.m) in ((2, 8), (2, 12))
    assert bench_plan("exp", 4096) == BlockPlan(k=16, n=256, m=2048)
    assert bench_plan("pow", 4096) == BlockPlan(k=16, n=512, m=2048)
    assert bench_plan("pow", 200) == BlockPlan(k=16, n=32, m=128)
    assert bench_plan("exp", 300) == BlockPlan(k=16, n=16, m=192)


@pytest.mark.parametrize("op", ["inv", "log", "EXP", "Pow", "", "exp "])
def test_bench_plan_refuses_ops_without_block_plans(op):
    """Only exp and pow run block plans; any other op string, a case or
    spacing variant included, is refused rather than given pow's plan."""
    with pytest.raises(PlanError, match="no bench plan"):
        bench_plan(op, 4096)
    with pytest.raises(PlanError, match="no bench plan"):
        bench_plan(op, 4096, k=16, n=256)
