"""Command-line interface: outputs, exit codes, config, and determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bslib import cli
from bslib import interpolation as ip
from bslib import kernels as kr
from bslib.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestEval:
    def test_csv_default_format(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "W", "--x", "0.5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "x,value,err_est"
        x, value, _err = lines[1].split(",")
        assert float(x) == 0.5
        assert float(value) == pytest.approx(8.0 / math.pi**2, abs=1e-12)

    def test_json_format_key_set(self, capsys):
        code, payload, _ = run_json(capsys, "eval", "--fn", "K", "--x", "1.0", "--format", "json")
        assert code == EXIT_OK
        assert set(payload) == {
            "manifest", "checks", "bounds", "measurements", "verdicts", "runtime_ms",
        }
        assert float(payload["measurements"][0]["value"]) == pytest.approx(0.0, abs=1e-12)

    def test_kernel_alias(self, capsys):
        code, out1, _ = run(capsys, "eval", "--kernel", "Q", "--x", "0.0")
        code2, out2, _ = run(capsys, "eval", "--fn", "Q", "--x", "0.0")
        assert code == code2 == EXIT_OK
        assert out1 == out2

    def test_interval_kernel_uses_ell(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "S", "--x", "0.5", "--ell", "1.0")
        assert code == EXIT_OK
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(12.0 / math.pi**2, abs=1e-10)

    def test_unknown_function_rejected(self, capsys):
        code, _, _ = run(capsys, "eval", "--fn", "nope")
        assert code == EXIT_USAGE

    # the first lattice points past the sampled nodes (|k| = M + 1), where
    # a tail term's distance |x - k*h| is 0 but its sine factor is too
    @pytest.mark.parametrize("fn, x", [("cardinal", 200.5), ("cardinal", -200.5), ("vaaler", 401.0)])
    def test_unsampled_lattice_point_has_finite_err_est(self, capsys, fn, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "--fn", fn, f"--x={x!r}")
        assert code == EXIT_OK and err == ""
        _, value, err_est = (float(c) for c in out.strip().splitlines()[1].split(","))
        assert math.isfinite(err_est)
        assert err_est >= abs(value - kr.fejer_K(x))


class TestHugeArguments:
    # |x| >= 2^52 is an integer, where K = 0 and W = B = b = sign x; past
    # |x| ~ 5.7e307 pi x overflows, and sigma's ell - x overflows below
    @pytest.mark.parametrize(
        "argv, value",
        [
            (("--fn", "K", "--x=1e308"), 0.0),
            (("--fn", "K", "--x=-1.7976931348623157e308"), 0.0),
            (("--fn", "W", "--x=-1e308"), -1.0),
            (("--fn", "B", "--x=1e308"), 1.0),
            (("--fn", "B", "--x=-1e308"), -1.0),
            (("--fn", "b", "--x=1e308"), 1.0),
            (("--fn", "S", "--x=1e308"), 0.0),
            (("--fn", "S", "--x=-1e308", "--ell=1e308"), 0.0),
            (("--fn", "sigma", "--x=-1e308"), 0.0),
            (("--fn", "sigma", "--x=-1e308", "--ell=1e308"), 0.0),
            (("--fn", "sigma", "--x=1e308", "--ell=1.7e308"), 1.0),
        ],
    )
    def test_exact_limits(self, capsys, argv, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", *argv)
        assert code == EXIT_OK and err == ""
        assert float(out.strip().splitlines()[1].split(",")[1]) == value

    def test_library_limits_at_infinity(self):
        x = np.array([-math.inf, math.inf, math.nan])
        assert np.array_equal(kr.fejer_K(x), [0.0, 0.0, math.nan], equal_nan=True)
        assert np.array_equal(kr.W_eval(x), [-1.0, 1.0, math.nan], equal_nan=True)
        assert np.array_equal(kr.B_eval(x[:2]), [-1.0, 1.0])
        assert np.array_equal(kr.b_eval(x[:2]), [-1.0, 1.0])


class TestTable:
    def test_row_count_and_endpoints(self, capsys):
        code, out, _ = run(capsys, "table", "--fn", "B", "--from", "-3", "--to", "3", "--step", "0.5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 13
        first = lines[1].split(",")
        assert float(first[0]) == -3.0
        mid = lines[7].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == pytest.approx(1.0, abs=1e-12)

    def test_bad_range_rejected(self, capsys):
        code, _, _ = run(capsys, "table", "--fn", "K", "--from", "3", "--to", "1", "--step", "0.5")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "table", "--fn", "K", "--from", "0", "--to", "1", "--step", "-1")
        assert code == EXIT_USAGE

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "table", "--fn", "K", "--from", "0", "--to", "1", "--step", "0.5",
            "--out", str(dest),
        )
        assert code == EXIT_OK
        assert out == ""
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "x,value,err_est"
        assert len(lines) == 4


# the scalar kernels and sampling formulas called point by point, with the
# err_est each name reports: a fixed bound or estimate, or the formula's own;
# the sample sets are built node by node from scalar calls
def _reference_rows(name, xs, ell):
    f = lambda t: float(kr.fejer_K(t))
    if name in ("cardinal", "vaaler"):
        nodes = [k * (0.5 if name == "cardinal" else 1.0) for k in range(-400, 401)]
        fp = lambda t: (f(t + 1e-6) - f(t - 1e-6)) / 2e-6
        derivs = [fp(t) for t in nodes] if name == "vaaler" else None
        samples = ip.SampleSet(1.0, 400, [f(t) for t in nodes], derivs, decay_const=1.0,
                               decay_exponent=2.0)
        formula = ip.cardinal_series if name == "cardinal" else ip.vaaler_interpolation
        return [formula(samples, x) for x in xs]
    point = {
        "K": lambda x: (f(x), 1e-15),
        "W": lambda x: (kr.W_eval(x), 2e-15),
        "B": lambda x: (kr.B_eval(x), 4e-15),
        "b": lambda x: (kr.b_eval(x), 4e-15),
        "S": lambda x: (kr.S_eval(ell, x), 5e-15),
        "sigma": lambda x: (kr.sigma_eval(ell, x), 5e-15),
        "Q": lambda x: (kr.Q_eval(x), 1e-14),
        "lambda": lambda x: (kr.lambda_constant(), 5e-8),
    }[name]
    return [point(x) for x in xs]


def _hex_rows(rows):
    return [tuple(float(v).hex() for v in row) for row in rows]


class TestRegistry:
    POINTS = [0.0, 1.0, -1.0, 1.0 + 1e-13, 1.0 - 1e-13, 0.4 + 1e-12, 0.4 - 1e-12,
              -0.4 - 1e-12, -0.4 + 1e-12, -7.3, 12.5]

    def test_names(self):
        assert tuple(cli.KERNELS) == (
            "K", "W", "B", "b", "S", "sigma", "Q", "lambda", "cardinal", "vaaler",
        )

    @pytest.mark.parametrize("name", list(cli.KERNELS))
    def test_table_matches_pointwise_loop(self, name):
        values, errs = cli.KERNELS[name](self.POINTS, 2.0)
        expect = _reference_rows(name, self.POINTS, 2.0)
        assert _hex_rows(zip(values, errs)) == _hex_rows(expect)

    @pytest.mark.parametrize("name", list(cli.KERNELS))
    def test_cli_table_and_eval_rows(self, capsys, name):
        code, out, _ = run(capsys, "table", "--fn", name, "--from", "-1", "--to", "1",
                           "--step", "0.25", "--ell", "2.5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()[1:]
        rows = [tuple(float(v) for v in line.split(",")) for line in lines]
        xs = [x for x, _, _ in rows]
        assert len(xs) == 9
        # 17 significant digits round-trip a double exactly
        expect = [(x, *row) for x, row in zip(xs, _reference_rows(name, xs, 2.5))]
        assert _hex_rows(rows) == _hex_rows(expect)
        for x, line in zip(xs, lines):
            _, one, _ = run(capsys, "eval", "--fn", name, "--x", repr(x), "--ell", "2.5")
            assert one.strip().splitlines()[1] == line

    @pytest.mark.parametrize(
        "name, module, setup",
        [("cardinal", ip, "sample_function"), ("vaaler", ip, "sample_function"),
         ("lambda", kr, "lambda_constant")],
    )
    def test_setup_runs_once_per_table(self, capsys, monkeypatch, name, module, setup):
        calls = []
        inner = getattr(module, setup)

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, setup, counting)
        code, out, _ = run(capsys, "table", "--fn", name, "--from", "-0.5", "--to", "0.5",
                           "--step", "0.1")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 1 + 11
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["S", "sigma"])
    @pytest.mark.parametrize("ell", [0.0, -1.0, math.nan, math.inf])
    def test_interval_kernel_rejects_bad_ell(self, name, ell):
        with pytest.raises(ValueError, match="^--ell"):
            cli.KERNELS[name]([0.3], ell)


# (from, to, step, ell, rows): ranges through x = 0.0 and through the
# integers -3 .. 3, a step of one ULP at 1.0, and a step whose x cells need
# all 17 digits.  The names of the first two are labels only.
_PINNED_TABLES = {
    "tol-0.5": ("-3", "3", "0.25", "1.0", 25),
    "tol-1e-300": ("-1", "1", "0.125", "2.5", 17),
    "one-ulp-step": ("1.0", repr(1.0 + 2.0**-52), repr(2.0**-52), "7.5", 2),
    "step-0.07": ("-0.5", "0.5", "0.07", "1.0", 15),
}


def _per_cell_bytes(name, xs, ell, fmt, out):
    """The output as per-cell f"{v:.17g}" formatting prints it; a JSON
    reference takes the manifest and runtime_ms from the output."""
    values, errs = cli.KERNELS[name](xs, ell)
    cells = [(x, f"{v:.17g}", f"{e:.17g}") for x, v, e in zip(xs, values, errs)]
    if fmt == "csv":
        return "".join(["x,value,err_est\n", *(f"{x:.17g},{v},{e}\n" for x, v, e in cells)])
    payload = json.loads(out)
    ref = {
        "manifest": payload["manifest"], "checks": [], "bounds": [], "verdicts": [],
        "measurements": [{"name": name, "x": x, "value": v, "err_est": e} for x, v, e in cells],
        "runtime_ms": payload["runtime_ms"],
    }
    return json.dumps(ref, sort_keys=True, indent=2) + "\n"


class TestOutputBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", list(_PINNED_TABLES))
    @pytest.mark.parametrize("name", list(cli.KERNELS))
    def test_table_bytes(self, capsys, tmp_path, name, case, fmt):
        lo, hi, step, ell, rows = _PINNED_TABLES[case]
        argv = ["table", "--fn", name, "--from", lo, "--to", hi, "--step", step, "--ell", ell,
                "--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        xs = [float(x) for x in np.arange(float(lo), float(hi) + float(step) * 0.5, float(step))]
        assert len(xs) == rows
        assert out == _per_cell_bytes(name, xs, float(ell), fmt, out)
        dest = tmp_path / f"table.{fmt}"
        code, file_out, _ = run(capsys, *argv, "--out", str(dest))
        assert code == EXIT_OK and file_out == ""
        # the CSV is stdout's; the JSON manifest records the output path
        text = dest.read_text()
        assert text == _per_cell_bytes(name, xs, float(ell), fmt, text)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", list(cli.KERNELS))
    def test_eval_bytes(self, capsys, name, fmt):
        for x in ("0.0", "-0.0", "0.5", "-7.3", "1e-300", "3.0"):
            code, out, _ = run(capsys, "eval", "--fn", name, "--x", x, "--format", fmt)
            assert code == EXIT_OK
            assert out == _per_cell_bytes(name, [float(x)], 1.0, fmt, out)


class TestParserReuse:
    TABLE = ("table", "--fn", "W", "--from", "-2", "--to", "2", "--step", "0.125")

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_const_does_not_leak_into_later_calls(self, capsys):
        _, payload, _ = run_json(capsys, "demo", "--scenario", "esseen1d-binomial",
                                 "--const", "c1=0.5")
        assert payload["manifest"]["constant_overrides"] == {"c1": 0.5}
        _, payload, _ = run_json(capsys, "demo", "--scenario", "esseen1d-binomial")
        assert payload["manifest"]["constant_overrides"] == {}

    def test_usage_error_leaves_no_state(self, capsys):
        _, alone, _ = run(capsys, *self.TABLE)
        code, out, err = run(capsys, "table", "--fn", "W", "--from", "0", "--step", "x")
        assert code == EXIT_USAGE and out == "" and err
        code, after, _ = run(capsys, *self.TABLE)
        assert code == EXIT_OK and after == alone

    def test_many_calls_print_what_a_fresh_process_prints(self, capsys):
        mixed = [
            ("eval", "--fn", "K", "--x", "0.3"),
            ("eval", "--fn", "S", "--x", "0.5", "--ell", "2", "--format", "json"),
            ("table", "--fn", "B", "--from", "-1", "--to", "1", "--step", "0.5", "--format", "json"),
            ("eval", "--fn", "nope"),
            ("table", "--fn", "Q", "--from", "0", "--to", "1", "--step", "-1"),
            ("verify", "--suite", "kernels", "--seed", "4"),
            ("demo", "--scenario", "esseen1d-binomial", "--const", "c1=0.5", "--n", "30"),
            ("eval", "--kernel", "lambda", "--format", "json", "--out", "/dev/null"),
            ("table", "--fn", "cardinal", "--from", "0", "--to", "0.5", "--step", "0.25"),
            ("demo", "--scenario", "clt-haar", "--delta", "3"),
        ]
        for argv in mixed * 2:
            run(capsys, *argv)
        _, out, _ = run(capsys, *self.TABLE)
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        env.pop("BSLIB_CONFIG", None)
        fresh = subprocess.run([sys.executable, "-m", "bslib.cli", *self.TABLE],
                               capture_output=True, text=True, env=env, timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout == out


# Runs each argv of the JSON list in sys.argv[1] through cli.main, and
# prints the bslib modules loaded when each run's clock starts (its first
# cli.time.monotonic() call), then those loaded at the end.  verify and demo
# runs stop there, since the computation is not what is tested.
_IMPORT_PROBE = """
import json, sys, time, types
from bslib import cli

def loaded():
    return sorted(name for name in sys.modules if name.startswith("bslib."))

class ClockStarted(Exception):
    pass

at_clock = []
for argv in json.loads(sys.argv[1]):
    def monotonic():
        at_clock.append(loaded())
        if argv[0] in ("verify", "demo"):
            raise ClockStarted
        return time.monotonic()
    cli.time = types.SimpleNamespace(monotonic=monotonic)
    try:
        cli.main(argv)
    except ClockStarted:
        pass
print(json.dumps({"at_clock": at_clock, "at_end": loaded()}))
"""


def _imports_in_fresh_interpreter(*argvs):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("BSLIB_CONFIG", None)
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
                           capture_output=True, text=True, env=env, timeout=120)
    assert probe.returncode == 0, probe.stderr
    return json.loads(probe.stdout.splitlines()[-1])


class TestLazyImports:
    # a fresh interpreter each, since the other tests import every module
    BOUND_MODULES = {"bslib.esseen1d", "bslib.esseen_multi", "bslib.clt"}

    def test_eval_and_table_import_no_bound_module(self):
        loaded = _imports_in_fresh_interpreter(
            ["eval", "--fn", "W", "--x", "0.5"],
            ["table", "--fn", "cardinal", "--from", "-1", "--to", "1", "--step", "0.5"])
        assert not self.BOUND_MODULES & set(loaded["at_end"]), loaded["at_end"]

    @pytest.mark.parametrize(
        "argv, needs",
        [
            (("verify", "--suite", "esseen1d"), {"esseen1d"}),
            (("verify", "--suite", "esseen_k"), {"esseen_multi"}),
            (("verify", "--suite", "clt"), {"clt"}),
            (("verify", "--suite", "all"), {"kernels", "interpolation", "esseen1d", "esseen_multi", "clt"}),
            (("demo", "--scenario", "esseen1d-binomial"), {"esseen1d"}),
            (("demo", "--scenario", "esseen-k"), {"esseen_multi"}),
            (("demo", "--scenario", "clt-haar"), {"clt"}),
            (("demo", "--scenario", "clt-vector"), {"clt"}),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else "+".join(sorted(v)),
    )
    def test_module_loaded_before_the_clock_starts(self, argv, needs):
        # else runtime_ms would time the imports
        loaded = _imports_in_fresh_interpreter(list(argv))
        assert loaded["at_clock"], "the run never started its clock"
        missing = {f"bslib.{m}" for m in needs} - set(loaded["at_clock"][0])
        assert not missing, missing


class TestFlagTable:
    # the flags of verify and demo that pick the entry, the output or the constants
    NOT_READ_BY_ENTRIES = {"--suite", "--scenario", "--out", "--const", "--unsafe"}

    @pytest.mark.parametrize("command", ["verify", "demo"])
    def test_every_flag_has_a_reader_and_every_read_flag_is_a_flag(self, command):
        entries = cli._SUITES if command == "verify" else cli._SCENARIOS
        parser = cli.build_parser().commands[command]
        flags = {name for action in parser._actions if action.dest != "help"
                 for name in action.option_strings} - self.NOT_READ_BY_ENTRIES
        read = {"--" + flag for _, _, reads in entries.values() for flag in reads}
        assert flags - read == set(), "flags no suite or scenario reads"
        assert read - flags == set(), "flags read that the command does not take"
        unchecked = {flag for flag in read if cli._FLAGS[flag[2:]][1] is None}
        assert unchecked <= {"--samples", "--seed"}  # clt.MonteCarloConfig checks these


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("table", "--fn", "K", "--from", "0", "--to", "1", "--step", "0"), "--step"),
            (("table", "--fn", "K", "--from", "0", "--to", "1", "--step", "-0.5"), "--step"),
            (("table", "--fn", "K", "--from", "3", "--to", "1", "--step", "0.5"), "--to"),
            (("table", "--fn", "K", "--from", "nan", "--to", "1", "--step", "0.5"), "--from"),
            (("table", "--fn", "K", "--from", "0", "--to", "inf", "--step", "0.5"), "--to"),
            (("table", "--fn", "K", "--from", "0", "--to", "1", "--step", "nan"), "--step"),
            (("eval", "--fn", "W", "--x", "nan"), "--x"),
            (("eval", "--fn", "W", "--x=-inf"), "--x"),
            (("eval", "--fn", "S", "--ell", "-1"), "--ell"),
            (("eval", "--fn", "sigma", "--ell", "0"), "--ell"),
            (("table", "--fn", "S", "--from", "0", "--to", "1", "--step", "0.5",
              "--ell", "nan"), "--ell"),
            (("demo", "--scenario", "esseen-k", "--const", "c1=abc"), "--const"),
            (("demo", "--scenario", "esseen-k", "--const", "c1=nan"), "--const"),
            (("demo", "--scenario", "esseen-k", "--const", "c1"), "--const"),
            (("demo", "--scenario", "esseen-k", "--const", "zz=1"), "--const"),
            (("demo", "--scenario", "esseen-k", "--k", "7"), "--k"),
            # an explicit 0 is rejected, not replaced by the default
            (("demo", "--scenario", "esseen-k", "--k", "0"), "--k"),
            (("demo", "--scenario", "esseen-k", "--n", "0"), "--n"),
            (("demo", "--scenario", "esseen1d-binomial", "--n", "0"), "--n"),
            (("demo", "--scenario", "esseen1d-binomial", "--omega", "0"), "--omega"),
            (("demo", "--scenario", "esseen-k", "--omega", "nan"), "--omega"),
            (("demo", "--scenario", "esseen-k", "--omega", "inf"), "--omega"),
            (("demo", "--scenario", "esseen-k", "--delta", "1"), "--delta"),
            (("demo", "--scenario", "esseen-k", "--delta", "0"), "--delta"),
            (("demo", "--scenario", "clt-haar", "--N", "0"), "--N"),
            (("demo", "--scenario", "clt-vector", "--N", "-3"), "--N"),
            # the Monte Carlo sample count is checked by clt.MonteCarloConfig
            (("demo", "--scenario", "clt-haar", "--samples", "10"), "samples"),
            (("demo", "--scenario", "clt-vector", "--samples", "500"), "samples"),
            (("demo", "--scenario", "clt-haar", "--seed", "-1"), "seed"),
            # a flag the scenario does not read is rejected, not recorded
            (("demo", "--scenario", "clt-haar", "--delta", "3"), "--delta"),
            (("demo", "--scenario", "clt-haar", "--k", "5", "--n", "7"), "--k"),
            (("demo", "--scenario", "esseen-k", "--k", "1", "--delta", "5"), "--delta"),
            (("demo", "--scenario", "esseen1d-binomial", "--samples", "5000"), "--samples"),
            (("demo", "--scenario", "clt-vector", "--omega", "3"), "--omega"),
            # steps that cannot advance x, or that make more rows than a table holds
            (("table", "--fn", "K", "--from", "1e20", "--to", "1e20", "--step", "1"), "--step"),
            (("table", "--fn", "K", "--from", "1e16", "--to", "1.00000000000001e16", "--step", "1"),
             "--step"),
            (("table", "--fn", "K", "--from", "0", "--to", "1", "--step", "1e-300"), "--step"),
            (("table", "--fn", "W", "--from", "9007199254740980", "--to", "9007199254741000",
              "--step", "1"), "--step"),
            # a range whose width overflows a double
            (("table", "--fn", "K", "--from=-1e308", "--to=1e308", "--step=1e308"), "--from/--to"),
            (("table", "--fn", "K", "--from=1e308", "--to=1.7e308", "--step=1e308"), "--from/--to"),
            # sampling formulas whose sine phase overflows
            (("eval", "--fn", "cardinal", "--x=1e308"), "--x"),
            (("eval", "--fn", "vaaler", "--x=-1e308"), "--x"),
            (("table", "--fn", "cardinal", "--from=2.9e307", "--to=2.9e307", "--step=1e300"),
             "--from/--to"),
            # a flag that the suite or scenario does not read, and a bad --tol
            (("verify", "--suite", "esseen1d", "--tol", "0.5"), "--tol"),
            (("verify", "--suite", "kernels", "--tol", "nan"), "--tol"),
            (("demo", "--scenario", "esseen-k", "--seed", "3"), "--seed"),
            (("demo", "--scenario", "clt-haar", "--unsafe"), "--unsafe"),
            # the k-variable bounds need Omega > 1
            (("demo", "--scenario", "esseen-k", "--omega", "0.5"), "--omega"),
            # a flag the command does not take, and argparse's own errors
            (("eval", "--fn", "W", "--x", "0.5", "--tol", "1e-3"), "--tol"),
            (("verify", "--suite", "kernels", "--seed", "4"), "--seed"),
            (("verify", "--suite", "all", "--format", "csv"), "--format"),
            (("demo", "--scenario", "clt-haar", "--tol", "1"), "--tol"),
            (("table", "--fn", "K", "--from", "0", "--to", "1", "--step=1", "--seed=2"), "--seed"),
            (("eval", "--fn", "nope"), "--fn/--kernel:"),
            (("table", "--fn", "W", "--from", "0", "--to", "1", "--step", "x"), "--step:"),
            (("eval", "--fn", "W", "--x"), "--x:"),
            # inputs whose exact work would exhaust memory or time, named by the library
            (("demo", "--scenario", "esseen1d-binomial", "--n", "1000000000000"), "n"),
            (("demo", "--scenario", "esseen-k", "--n", "100001"), "n"),
            (("demo", "--scenario", "esseen1d-binomial", "--omega", "1e20"), "omega"),
            (("demo", "--scenario", "esseen-k", "--k", "1", "--omega", "8388609"), "omega"),
        ],
    )
    def test_message_names_the_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {flag} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--suite", "kernels", "--seed", "4"),
         "--seed is not a flag of verify (it takes --suite, --tol, --out)"),
        (("eval", "--fn", "W", "--x=0.5", "--seed=4"),
         "--seed is not a flag of eval (it takes --fn, --x, --ell, --format, --out)"),
        (("eval", "--fn", "W", "0.5"), "eval takes no argument '0.5' (it takes --fn, --x, --ell, --format, --out)"),
        (("--tol", "verify", "--suite", "kernels"),
         "--tol must follow the command verify (it takes --suite, --tol, --out)"),
        ((), "the following arguments are required: command"),
        (("eval",), "the following arguments are required: --fn/--kernel"),
        (("frob",), "command: invalid choice: 'frob' (choose from 'eval', 'table', 'verify', 'demo')"),
    ])
    def test_argparse_errors_are_one_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [("-h",), ("eval", "-h"), ("table", "--help"), ("verify", "-h"),
                                      ("demo", "-h")])
    def test_help_exits_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and out.startswith("usage: bslib") and err == ""


class TestStrictJson:
    def test_numpy_scalars_become_python(self, capsys):
        cli._emit({"pass": np.bool_(True), "value": np.float64(0.25), "n": np.int64(3)}, None)
        assert json.loads(capsys.readouterr().out) == {"pass": True, "value": 0.25, "n": 3}

    def test_other_objects_raise(self):
        with pytest.raises(TypeError):
            cli._emit({"x": object()}, None)


# every check of verify --suite all, in order: (suite, name, tol)
_VERIFY_CHECKS = [
    ("kernels", "lambda_constant", "4.9999999999999998e-08"),
    ("kernels", "W_half_closed_form", "1e-10"),
    ("kernels", "B_at_zero", "1e-10"),
    ("kernels", "b_at_zero", "1e-10"),
    ("kernels", "Q_at_zero", "1e-14"),
    ("kernels", "Q_reflection_sum", "9.9999999999999998e-13"),
    ("kernels", "W_fast_vs_oracle", "1e-10"),
    ("kernels", "majorant_sandwich_violations", "0"),
    ("kernels", "distance_le_2K", "9.9999999999999998e-13"),
    ("kernels", "fourier_side_W_half", "1e-08"),
    ("interpolation", "identity_csc", "1e-08"),
    ("interpolation", "identity_fejer", "1e-08"),
    ("interpolation", "identity_poisson", "9.9999999999999998e-13"),
    ("interpolation", "identity_parseval_sampling", "1e-08"),
    ("interpolation", "identity_sandwich", "condition"),
    ("interpolation", "identity_refined_sandwich", "condition"),
    ("interpolation", "identity_bernstein", "condition"),
    ("interpolation", "cardinal_reconstruction", "1e-10"),
    ("interpolation", "value_derivative_reconstruction", "9.9999999999999995e-07"),
    ("esseen1d", "binomial_25_bound_dominates", "condition"),
    ("esseen1d", "binomial_100_bound_dominates", "condition"),
    ("esseen1d", "fourier_representation_B", "9.9999999999999995e-08"),
    ("esseen1d", "fourier_representation_b", "9.9999999999999995e-08"),
    ("esseen1d", "mollified_median", "9.9999999999999998e-13"),
    ("esseen1d", "harness_bounds_decrease", "condition"),
    ("esseen_k", "ring_expansion_k2_monomials", "condition"),
    ("esseen_k", "ring_expansion_k3_multiplicity", "condition"),
    ("esseen_k", "operator_identities", "9.9999999999999998e-13"),
    ("esseen_k", "operator_resolution_of_identity", "9.9999999999999998e-13"),
    ("esseen_k", "factorization_mixed", "1e-08"),
    ("esseen_k", "factorization_delta", "1e-08"),
    ("esseen_k", "factorization_e_delta", "1e-08"),
    ("esseen_k", "difference_derivative_bound", "condition"),
    ("esseen_k", "k2_partition_bound_dominates", "condition"),
    ("esseen_k", "k2_truncated_bound_dominates", "condition"),
    ("clt", "inequality_5.1", "condition"),
    ("clt", "inequality_5.1bis", "condition"),
    ("clt", "inequality_5.2", "condition"),
    ("clt", "inequality_5.3", "condition"),
    ("clt", "inequality_5.4", "condition"),
    ("clt", "inequality_5.5", "condition"),
    ("clt", "inequality_5.15", "condition"),
    ("clt", "inequality_5.19", "condition"),
    ("clt", "inequality_5.20", "condition"),
    ("clt", "J0_first_zero", "1e-10"),
    ("clt", "gap_dominance_N400", "condition"),
    ("clt", "vector_normalization_residual", "9.9999999999999998e-13"),
    ("clt", "phase_invariance", "9.9999999999999998e-13"),
]


class TestVerify:
    def test_check_list_pinned(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "--suite", "all")
        assert code == EXIT_OK
        assert [(c["suite"], c["name"], c["tol"]) for c in payload["checks"]] == _VERIFY_CHECKS

    def test_all_suites_pass(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "--suite", "all")
        assert code == EXIT_OK
        assert len(payload["checks"]) >= 30
        assert all(c["pass"] is True for c in payload["checks"])
        assert payload["verdicts"][0]["pass"] is True
        suites = {c["suite"] for c in payload["checks"]}
        assert suites == {"kernels", "interpolation", "esseen1d", "esseen_k", "clt"}

    def test_single_suite(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "--suite", "kernels")
        assert code == EXIT_OK
        assert {c["suite"] for c in payload["checks"]} == {"kernels"}

    def test_impossible_tolerance_fails(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "--suite", "kernels", "--tol", "1e-300")
        assert code == EXIT_CHECK_FAILED
        assert any(not c["pass"] for c in payload["checks"])
        assert payload["verdicts"][0]["pass"] is False


class TestDemo:
    @pytest.mark.parametrize("scenario", ["esseen1d-binomial", "esseen-k", "clt-vector"])
    def test_scenarios_pass(self, capsys, scenario):
        code, payload, _ = run_json(capsys, "demo", "--scenario", scenario)
        assert code == EXIT_OK
        assert payload["bounds"]
        assert payload["measurements"]
        assert all(v["pass"] is True for v in payload["verdicts"])

    def test_huge_omega_at_k3_runs_without_warnings(self, capsys):
        # RuntimeWarnings are errors here: the normal target's cf must not overflow
        code, payload, _ = run_json(capsys, "demo", "--scenario", "esseen-k", "--k", "3", "--omega", "1e300")
        assert code == EXIT_OK and all(v["pass"] is True for v in payload["verdicts"])

    def test_manifest_records_resolved_flags(self, capsys):
        code, payload, _ = run_json(capsys, "demo", "--scenario", "clt-vector", "--samples", "1000")
        assert code == EXIT_OK
        assert payload["manifest"]["parameters"] == {"scenario": "clt-vector", "N": 400,
                                                     "samples": 1000}
        assert payload["manifest"]["seed"] == 11
        code, payload, _ = run_json(capsys, "demo", "--scenario", "esseen1d-binomial", "--n", "50")
        assert code == EXIT_OK
        assert payload["manifest"]["parameters"] == {"scenario": "esseen1d-binomial", "n": 50,
                                                     "omega": 20.0}
        assert payload["manifest"]["seed"] is None

    def test_k1_routes_to_scalar_pipeline(self, capsys):
        code, payload, _ = run_json(capsys, "demo", "--scenario", "esseen-k", "--k", "1")
        assert code == EXIT_OK
        assert payload["bounds"][0]["name"] == "smoothing_bound"

    def test_k1_applies_constant_overrides(self, capsys):
        def bound(*argv):
            code, payload, _ = run_json(capsys, "demo", "--scenario", *argv)
            assert code == EXIT_OK
            return payload["bounds"][0]["value"]

        one_d = bound("esseen1d-binomial", "--n", "64", "--omega", "12", "--const", "c1=0.5")
        assert bound("esseen-k", "--k", "1", "--const", "c1=0.5") == one_d
        assert bound("esseen-k", "--k", "1") != one_d

    def test_bad_k_rejected(self, capsys):
        code, _, _ = run(capsys, "demo", "--scenario", "esseen-k", "--k", "7")
        assert code == EXIT_USAGE

    def test_ks_verdict_widens_with_few_samples(self, capsys):
        # at 10^4 samples the DKW band (0.027) exceeds the fixed 0.01, and a
        # correct sampler draws KS 0.012 under this seed
        code, payload, _ = run_json(
            capsys, "demo", "--scenario", "clt-haar", "--samples", "10000", "--seed", "5"
        )
        assert code == EXIT_OK
        assert all(v["pass"] is True for v in payload["verdicts"])


class TestConstantOverrides:
    def test_override_recorded_in_manifest(self, capsys):
        code, payload, _ = run_json(
            capsys, "demo", "--scenario", "esseen1d-binomial", "--const", "c1=0.5"
        )
        assert code == EXIT_OK
        assert payload["manifest"]["constant_overrides"] == {"c1": 0.5}

    def test_larger_constant_inflates_bound(self, capsys):
        _, base, _ = run_json(capsys, "demo", "--scenario", "esseen1d-binomial")
        _, fat, _ = run_json(
            capsys, "demo", "--scenario", "esseen1d-binomial", "--const", "c1=0.5"
        )
        assert float(fat["bounds"][0]["value"]) > float(base["bounds"][0]["value"])

    def test_below_floor_rejected(self, capsys):
        code, _, err = run(capsys, "demo", "--scenario", "esseen1d-binomial", "--const", "c1=0.01")
        assert code == EXIT_USAGE
        assert "floor" in err

    def test_below_floor_allowed_with_unsafe(self, capsys):
        code, out, _ = run(
            capsys, "demo", "--scenario", "esseen1d-binomial", "--const", "c1=0.01", "--unsafe"
        )
        # the run proceeds; the weakened bound may or may not dominate
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        assert json.loads(out)["manifest"]["constant_overrides"] == {"c1": 0.01}

    def test_k_dependent_floor_enforced(self, capsys):
        code, _, err = run(
            capsys, "demo", "--scenario", "esseen-k", "--k", "2", "--const", "c5=1.0"
        )
        assert code == EXIT_USAGE
        assert "floor" in err

    def test_unknown_constant_rejected(self, capsys):
        code, _, _ = run(capsys, "demo", "--scenario", "esseen1d-binomial", "--const", "zz=1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, reads",
        [
            (("demo", "--scenario", "esseen1d-binomial", "--const", "c8=100"), "c1, c2"),
            (("demo", "--scenario", "esseen-k", "--k", "1", "--const", "c5=100"), "c1, c2"),
            (("demo", "--scenario", "esseen-k", "--const", "c9=100", "--const", "c_hat1=50"),
             "c1, c2, c5, c6"),
            (("demo", "--scenario", "clt-haar", "--const", "c1=1"), "none"),
            (("demo", "--scenario", "clt-vector", "--const", "c1=0.3"), "none"),
        ],
    )
    def test_constant_not_read_rejected(self, capsys, argv, reads):
        # an override that no computation reads would only sit in the manifest
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: --const ")
        assert err.rstrip().endswith(f"(it reads {reads})")

    @pytest.mark.parametrize("k", [2, 3])
    def test_floors_are_the_bound_module_defaults(self, k):
        from bslib import esseen1d as e1
        from bslib import esseen_multi as em

        def floors(scenario, k=None):
            return cli._constant_floors(types.SimpleNamespace(command="demo", scenario=scenario, k=k))

        default = em.BoundConstants.for_k(k)
        assert floors("esseen-k", k) == {"c1": default.c1, "c2": default.c2, "c5": default.c5,
                                         "c6": default.c6}
        assert floors("esseen-k", 1) == floors("esseen1d-binomial") == {
            "c1": e1.C1_DEFAULT, "c2": e1.C2_DEFAULT}

    def test_k2_override_read_by_the_bound(self, capsys):
        def truncated(*const):
            code, payload, _ = run_json(capsys, "demo", "--scenario", "esseen-k", *const)
            assert code == EXIT_OK
            return payload

        fat = truncated("--const", "c6=4")
        assert fat["manifest"]["constant_overrides"] == {"c6": 4.0}
        assert float(fat["bounds"][1]["value"]) > float(truncated()["bounds"][1]["value"])


class TestConfigAndDeterminism:
    # each key applies where it is read, and is ignored (never recorded) elsewhere
    CLT = ("demo", "--scenario", "clt-haar", "--samples", "1000", "--N", "50")

    def test_config_file_defaults(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json", "seed": 99, "tol": 1}))
        monkeypatch.setenv("BSLIB_CONFIG", str(cfg))
        code, payload, _ = run_json(capsys, "eval", "--fn", "K", "--x", "0.0")
        assert code == EXIT_OK
        assert payload["manifest"]["format"] == "json"
        assert payload["manifest"]["seed"] is None and payload["manifest"]["tolerances"] == {}
        _, payload, _ = run_json(capsys, *self.CLT)
        assert payload["manifest"]["seed"] == 99 and payload["manifest"]["tolerances"] == {}
        _, payload, _ = run_json(capsys, "verify", "--suite", "kernels")
        assert payload["manifest"]["tolerances"] == {"tol": 1.0}
        assert payload["manifest"]["seed"] is None
        _, payload, _ = run_json(capsys, "demo", "--scenario", "esseen-k")
        assert payload["manifest"]["seed"] is None and payload["manifest"]["tolerances"] == {}

    def test_flags_override_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json", "seed": 99, "tol": 1}))
        monkeypatch.setenv("BSLIB_CONFIG", str(cfg))
        code, payload, _ = run_json(capsys, *self.CLT, "--seed", "5")
        assert code == EXIT_OK
        assert payload["manifest"]["seed"] == 5
        _, payload, _ = run_json(capsys, "verify", "--suite", "kernels", "--tol", "1e-3")
        assert payload["manifest"]["tolerances"] == {"tol": 1e-3}
        code, out, _ = run(capsys, "eval", "--fn", "K", "--x", "0.0", "--format", "csv")
        assert code == EXIT_OK and out.startswith("x,value,err_est\n")

    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
    def test_bad_config_file_is_a_usage_error(self, capsys, tmp_path, monkeypatch, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        monkeypatch.setenv("BSLIB_CONFIG", str(cfg))
        code, out, err = run(capsys, "eval", "--fn", "K", "--x", "0.0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: BSLIB_CONFIG ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "config, flags, named",
        [
            ({"seed": [1]}, (), "seed"),
            ({"tol": "x"}, (), "tol"),
            ({"format": "xml"}, (), "format"),
            ({"seed": 1.7}, (), "seed"),
            ({"tol": -1}, (), "tol"),
            (None, ("--tol", "nan"), "--tol"),
            (None, ("--tol", "0"), "--tol"),
        ],
    )
    def test_bad_config_value_or_tol_is_a_usage_error(
        self, capsys, tmp_path, monkeypatch, config, flags, named
    ):
        # every config key is checked, also by eval, which reads tol and seed nowhere
        monkeypatch.delenv("BSLIB_CONFIG", raising=False)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            monkeypatch.setenv("BSLIB_CONFIG", str(cfg))
            named = f"BSLIB_CONFIG {cfg}: {named}"
        argv = ("verify", "--suite", "kernels", *flags) if flags else ("eval", "--fn", "K", "--x", "0.0")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {named} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("eval", "--x", "0.5"),
                                      ("table", "--from", "0", "--to", "1", "--step", "0.5")])
    def test_eval_and_table_measure_runtime(self, capsys, monkeypatch, argv):
        ticks = iter([10.0, 10.25])
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
        code, payload, _ = run_json(capsys, argv[0], "--fn", "W", *argv[1:], "--format", "json")
        assert code == EXIT_OK
        assert payload["runtime_ms"] == 250

    def test_demo_deterministic_modulo_runtime(self, capsys):
        _, a, _ = run_json(capsys, "demo", "--scenario", "clt-haar", "--samples", "5000", "--N", "50")
        _, b, _ = run_json(capsys, "demo", "--scenario", "clt-haar", "--samples", "5000", "--N", "50")
        a.pop("runtime_ms")
        b.pop("runtime_ms")
        assert a == b

    def test_seed_changes_measurements(self, capsys):
        _, a, _ = run_json(
            capsys, "demo", "--scenario", "clt-haar", "--samples", "5000", "--N", "50", "--seed", "1"
        )
        _, b, _ = run_json(
            capsys, "demo", "--scenario", "clt-haar", "--samples", "5000", "--N", "50", "--seed", "2"
        )
        assert a["measurements"] != b["measurements"]


# ---------------------------------------------------------------------------
# which flags each command takes, and what its manifest records


# a value for every flag of the CLI that the commands reading it accept
_FLAG_VALUES = {
    "--x": "0.5", "--ell": "2.5", "--format": "json", "--tol": "0.001", "--seed": "3",
    "--n": "30", "--N": "50", "--k": "2", "--omega": "10.0", "--delta": "5.0", "--samples": "1000",
    "--const": "c1=0.5", "--unsafe": None,
}

_CLT_SMALL = ("--N", "50", "--samples", "1000")  # clt scenarios sample little

# (argv that picks the command, suite or scenario; the flags it reads).
# --ell is the one flag taken and not always read: every --fn takes it, S
# and sigma read it.
_READERS = {
    "eval": (("eval", "--fn", "W"), {"--x", "--ell", "--format"}),
    "table": (("table", "--fn", "K", "--from", "0", "--to", "1", "--step", "0.5"),
              {"--ell", "--format"}),
    **{f"verify-{suite}": (("verify", "--suite", suite), {"--tol"})
       for suite in ("kernels", "interpolation", "all")},
    **{f"verify-{suite}": (("verify", "--suite", suite), set())
       for suite in ("esseen1d", "esseen_k", "clt")},
    "esseen1d-binomial": (("demo", "--scenario", "esseen1d-binomial"),
                          {"--n", "--omega", "--const", "--unsafe"}),
    "esseen-k": (("demo", "--scenario", "esseen-k"),
                 {"--k", "--n", "--omega", "--delta", "--const", "--unsafe"}),
    "esseen-k-1": (("demo", "--scenario", "esseen-k", "--k", "1"),
                   {"--n", "--omega", "--const", "--unsafe"}),
    **{clt: (("demo", "--scenario", clt, *_CLT_SMALL), {"--seed"}) for clt in ("clt-haar", "clt-vector")},
}

# argv with every flag it reads, and the manifest fields that differ from
# the manifest of a run that reads no flag
_READ_CASES = {
    "eval": (("eval", "--fn", "W", "--x", "0.5", "--ell", "2.5", "--format", "json"),
             {"parameters": {"fn": "W", "x": 0.5}}),
    "eval-S": (("eval", "--fn", "S", "--x", "0.5", "--ell", "2.5", "--format", "json"),
               {"parameters": {"fn": "S", "x": 0.5, "ell": 2.5}}),
    "table": (("table", "--fn", "sigma", "--from", "0", "--to", "1", "--step", "0.5", "--ell", "2.5",
               "--format", "json"),
              {"parameters": {"fn": "sigma", "frm": 0.0, "to": 1.0, "step": 0.5, "ell": 2.5}}),
    "verify-kernels": (("verify", "--suite", "kernels", "--tol", "0.001"),
                       {"parameters": {"suite": "kernels"}, "tolerances": {"tol": 0.001}}),
    "verify-interpolation": (("verify", "--suite", "interpolation", "--tol", "0.001"),
                             {"parameters": {"suite": "interpolation"}, "tolerances": {"tol": 0.001}}),
    "verify-esseen_k": (("verify", "--suite", "esseen_k"), {"parameters": {"suite": "esseen_k"}}),
    "esseen1d-binomial": (
        ("demo", "--scenario", "esseen1d-binomial", "--n", "30", "--omega", "10.0", "--const", "c1=0.5",
         "--unsafe"),
        {"parameters": {"scenario": "esseen1d-binomial", "n": 30, "omega": 10.0},
         "constant_overrides": {"c1": 0.5}}),
    "esseen-k": (
        ("demo", "--scenario", "esseen-k", "--k", "2", "--n", "30", "--omega", "10.0", "--delta", "5.0",
         "--const", "c1=1.5"),
        {"parameters": {"scenario": "esseen-k", "k": 2, "n": 30, "omega": 10.0, "delta": 5.0},
         "constant_overrides": {"c1": 1.5}}),
    "esseen-k-1": (("demo", "--scenario", "esseen-k", "--k", "1", "--n", "30", "--omega", "10.0"),
                   {"parameters": {"scenario": "esseen-k", "k": 1, "n": 30, "omega": 10.0}}),
    "clt-haar": (("demo", "--scenario", "clt-haar", *_CLT_SMALL, "--seed", "3"),
                 {"parameters": {"scenario": "clt-haar", "N": 50, "samples": 1000}, "seed": 3}),
    "clt-vector": (("demo", "--scenario", "clt-vector", *_CLT_SMALL, "--seed", "3"),
                   {"parameters": {"scenario": "clt-vector", "N": 50, "samples": 1000}, "seed": 3}),
}


def _manifest(command, **fields):
    return {"command": command, "seed": None, "tolerances": {}, "constant_overrides": {},
            "output": None, "format": "json", **fields}


class TestFlagsRead:
    @pytest.mark.parametrize("target", list(_READERS))
    def test_flag_not_read_exits_2_and_names_it(self, capsys, monkeypatch, target):
        monkeypatch.delenv("BSLIB_CONFIG", raising=False)
        argv, reads = _READERS[target]
        for flag, value in _FLAG_VALUES.items():
            if flag in reads or flag in argv:
                continue
            code, out, err = run(capsys, *argv, flag, *([] if value is None else [value]))
            assert code == EXIT_USAGE and out == "", flag
            assert flag in err and "Traceback" not in err, (flag, err)

    @pytest.mark.parametrize("case", list(_READ_CASES))
    def test_manifest_records_what_was_read(self, capsys, monkeypatch, case):
        monkeypatch.delenv("BSLIB_CONFIG", raising=False)
        argv, fields = _READ_CASES[case]
        code, payload, _ = run_json(capsys, *argv)
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        assert payload["manifest"] == _manifest(argv[0], **fields)


# ---------------------------------------------------------------------------
# err_est of every kernel with a fixed one against mpmath


def _w_mp(x):
    """W(x) = (sin pi x / pi)^2 (psi_1(1 - x) - psi_1(1 + x) + 2/x), odd, with
    psi_1(1 - a) = pi^2 / sin^2(pi a) - psi_1(a): mpmath's psi_1 is slow at
    large negative arguments, and takes seconds at 1 - 1e6."""
    x = mpmath.mpf(x)
    if x == mpmath.nint(x):
        return mpmath.sign(x)  # W is 0 at 0 and sign x at the other integers
    a = abs(x)
    s = mpmath.sin(mpmath.pi * a) / mpmath.pi
    return mpmath.sign(x) * (1 - s * s * (mpmath.psi(1, a) + mpmath.psi(1, a + 1) - 2 / a))


def _k_mp(x):
    x = mpmath.mpf(x)
    return mpmath.mpf(1) if x == 0 else (mpmath.sin(mpmath.pi * x) / (mpmath.pi * x)) ** 2


# a seeded grid on [-40, 40], 1e-6 and 1e-12 from integers, the 0.4
# crossover, [40, 5000], and a few points up to 3e7
def _err_sweep():
    rng = np.random.default_rng(23)
    ints = np.array([-37.0, -9.0, -2.0, -1.0, 1.0, 2.0, 3.0, 8.0, 17.0, 40.0])
    near = np.concatenate([ints + d for d in (1e-6, -1e-6, 1e-12, -1e-12)])
    cross = np.array([0.4, -0.4, 0.4 + 1e-12, 0.4 - 1e-12, np.nextafter(0.4, 1.0), -np.nextafter(0.4, 0.0)])
    far = np.geomspace(40.0, 5000.0, 12) + rng.uniform(0.0, 1.0, 12)
    return np.concatenate([rng.uniform(-40.0, 40.0, 40), near, cross, far, -far,
                           [0.0, 1e-300, 0.3, 1e6 + 0.3, -3e7 - 0.7]])


class TestErrEst:
    XS = _err_sweep()

    @pytest.fixture(scope="class")
    def exact(self):
        with mpmath.workdps(50):
            return {float(x): (_w_mp(x), _k_mp(x)) for x in self.XS}

    @pytest.mark.parametrize("name, sign", [("W", 0), ("B", 1), ("b", -1)])
    def test_dominates_the_error(self, exact, name, sign):
        values, errs = cli.KERNELS[name](self.XS, 1.0)
        assert np.unique(errs).size == 1  # one constant per kernel
        with mpmath.workdps(50):
            gaps = [abs(float(v) - (exact[float(x)][0] + sign * exact[float(x)][1]))
                    for x, v in zip(self.XS, values)]
        assert float(max(gaps)) <= errs[0]

    def test_dominates_the_error_of_k(self, exact):
        values, errs = cli.KERNELS["K"](self.XS, 1.0)
        assert np.unique(errs).size == 1
        with mpmath.workdps(50):
            gaps = [abs(float(v) - exact[float(x)][1]) for x, v in zip(self.XS, values)]
        assert float(max(gaps)) <= errs[0]

    def test_dominates_the_error_of_q(self):
        # every branch of Q, its edges 1e-4 from 0 and from 1 (either side), and +-1
        edges = np.array([1e-4, 1.0 - 1e-4, 0.5])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        vs = np.concatenate([np.linspace(-1.2, 1.2, 241), near, -near, [1e-12, 1.0 - 1e-12, 1.0, -1.0]])
        values, errs = cli.KERNELS["Q"](vs, 1.0)
        assert np.unique(errs).size == 1
        with mpmath.workdps(50):
            for v, q in zip(vs, values):
                a = abs(mpmath.mpf(float(v)))
                exact = 0 if a >= 1 else 1 / mpmath.pi if a == 0 else \
                    a / mpmath.pi + (1 - a) * a * mpmath.cot(mpmath.pi * a)
                assert abs(q - exact) <= errs[0], v

    def test_lambda_against_mpmath_maximum(self):
        # the maximiser of hypot(Q, xi (1 - xi)) on [0, 1], from the zero of
        # its derivative near the grid's best point
        (lam,), (err,) = cli.KERNELS["lambda"](np.zeros(1), 1.0)
        with mpmath.workdps(40):
            def f(xi):
                q = xi / mpmath.pi + (1 - xi) * xi * mpmath.cot(mpmath.pi * xi)
                return mpmath.sqrt(q * q + (xi * (1 - xi)) ** 2)

            xs = np.linspace(0.0, 1.0, 1001)[1:-1]
            start = xs[np.argmax([float(f(mpmath.mpf(x))) for x in xs])]
            top = f(mpmath.findroot(lambda xi: mpmath.diff(f, xi), start))
            assert abs(lam - top) <= err
            assert lam <= top + 1e-15  # a grid value, so at most the sup

    @pytest.mark.parametrize("ell", [1.0, 2.0, 7.5, 1000.0])
    def test_dominates_the_error_of_s_and_sigma(self, ell):
        xs = self.XS[::4]
        (s, err_s), (g, err_g) = cli.KERNELS["S"](xs, ell), cli.KERNELS["sigma"](xs, ell)
        assert np.unique(err_s).size == np.unique(err_g).size == 1
        with mpmath.workdps(50):
            for x, vs, vg in zip(xs, s, g):
                y = mpmath.mpf(ell) - mpmath.mpf(float(x))
                w, k, wy, ky = _w_mp(float(x)), _k_mp(float(x)), _w_mp(y), _k_mp(y)
                assert abs(vs - float((w + k + wy + ky) / 2)) <= err_s[0], (ell, x)
                assert abs(vg - float((w - k + wy - ky) / 2)) <= err_g[0], (ell, x)


# ---------------------------------------------------------------------------
# argv fuzzing


_EDGE = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 0.5, -7.3, 2.0**52,
         -(2.0**53) - 2.0, 1e16, 2.9e307, -5.7e307, 1e308, -1e308, 1.7976931348623157e308,
         -1.7976931348623157e308)
_REALS = st.one_of(st.sampled_from(_EDGE), st.floats(-60.0, 60.0),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _untaken(draw, flags):
    """Now and then one flag the command does not take, as (flag, argv)."""
    if draw(st.integers(0, 4)):
        return None, []
    flag = draw(st.sampled_from(flags))
    value = _FLAG_VALUES[flag]
    return flag, [flag] if value is None else [f"{flag}={value}"]


@st.composite
def _tabulate_flags(draw):
    argv = []
    if draw(st.booleans()):
        argv.append(f"--ell={draw(_REALS)!r}")
    fmt = draw(st.sampled_from([None, "csv", "json"]))
    if fmt is not None:
        argv += ["--format", fmt]
    flag, extra = draw(_untaken(["--tol", "--seed", "--const", "--unsafe", "--N"]))
    return argv + extra, flag


@st.composite
def _eval_argv(draw):
    fn = draw(st.sampled_from(list(cli.KERNELS)))
    flags, untaken = draw(_tabulate_flags())
    return ["eval", "--fn", fn, f"--x={draw(_REALS)!r}", *flags], untaken


@st.composite
def _table_argv(draw):
    fn = draw(st.sampled_from(list(cli.KERNELS)))
    lo = draw(_REALS)
    if draw(st.booleans()):
        # at most about 3 n rows, n <= 40, however the range rounds
        step = draw(st.one_of(st.sampled_from([5e-324, 1e-300, 0.04, 1.0, 1e300, 1e308]),
                              st.floats(1e-3, 10.0), st.floats(5e-324, 1.7e308)))
        hi = lo + draw(st.integers(0, 40)) * step
    else:
        # 10^20 to 10^300 rows, rejected before any row is made
        span = draw(st.floats(1e-3, 1e3))
        hi, step = lo + span, span / 10.0 ** draw(st.integers(20, 300))
    flags, untaken = draw(_tabulate_flags())
    return ["table", "--fn", fn, f"--from={lo!r}", f"--to={hi!r}", f"--step={step!r}", *flags], untaken


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_fuzzed(argv, untaken):
    code, out, err = _run_quietly(argv)
    assert code in (EXIT_OK, EXIT_USAGE), (argv, code, err)
    assert "Traceback" not in err
    if untaken is not None:
        assert code == EXIT_USAGE and untaken in err, (argv, err)
    if code != EXIT_OK:
        assert out == "" and "error: " in err
        return
    if "json" in argv:
        cells = [(m["value"], m["err_est"]) for m in json.loads(out)["measurements"]]
    else:
        cells = [line.split(",")[1:] for line in out.splitlines()[1:]]
    assert cells, argv
    for value, err_est in cells:
        assert math.isfinite(float(value)) and math.isfinite(float(err_est)), (argv, value, err_est)


# verify and demo argv, with the manifest a run must record, or None where
# the argv must exit 2.  The model follows the README: each suite and
# scenario reads the flags listed there, with those defaults and limits.
_TOL_SUITES = ("kernels", "interpolation", "all")
_DEMO_DEFAULTS = {
    "esseen1d-binomial": {"n": 100, "omega": 20.0},
    "esseen-k": {"k": 2, "n": 64, "omega": 12.0, "delta": 8.0},
    "clt-haar": {"N": 400, "samples": 10**5, "seed": 7},
    "clt-vector": {"N": 400, "samples": 2 * 10**4, "seed": 11},
}
_DEMO_VALID = {
    "k": lambda v: 1 <= v <= 3, "n": lambda v: v >= 1, "N": lambda v: v >= 1,
    "omega": lambda v: 0.0 < v < math.inf, "delta": lambda v: 1.0 < v < math.inf,
    "samples": lambda v: v >= 1000, "seed": lambda v: v >= 0,
}
_READS_CONSTANTS = {"esseen1d-binomial": ("c1", "c2"), "esseen-k": ("c1", "c2", "c5", "c6")}


@st.composite
def _verify_argv(draw):
    suite = draw(st.sampled_from(["kernels", "interpolation", "esseen1d", "esseen_k", "clt", "all"]))
    argv = ["verify", "--suite", suite]
    tol = draw(st.one_of(st.none(), st.sampled_from(["1e-10", "0.5", "1e300", "1e-300", "1", "0", "-1",
                                                     "nan", "inf"])))
    if tol is not None:
        argv.append(f"--tol={tol}")
    untaken, extra = draw(_untaken(["--seed", "--format", "--const", "--unsafe", "--N", "--x"]))
    argv += extra
    expect = None
    if untaken is None and (tol is None or suite in _TOL_SUITES and 0.0 < float(tol) < math.inf):
        read = {"tol": float(tol or 1e-10)} if suite in _TOL_SUITES else {}
        expect = _manifest("verify", parameters={"suite": suite}, tolerances=read)
    return argv, expect


@st.composite
def _demo_argv(draw):
    scenario = draw(st.sampled_from(list(_DEMO_DEFAULTS)))
    # mostly valid values, the last one or two of each list not; k = 3 costs
    # 150 ms a run, and clt scenarios sample little (--N <= 50, --samples
    # <= 2000), so that a run costs at most about 20 ms
    values = {
        "k": [1, 2, 2, 2, 0, 4], "n": [1, 2, 17, 64, 300, 0], "N": [1, 2, 20, 50, 50, 0],
        "omega": [0.5, 7.0, 12.0, 60.0, 0.0, math.nan], "delta": [1.5, 8.0, 20.0, 1.0],
        "samples": [1000, 1500, 2000, 999], "seed": [0, 5, 2**64, -1],
    }
    flags = list(_DEMO_DEFAULTS[scenario])
    if scenario.startswith("clt"):
        flags = ["N", "samples"] + [f for f in flags if draw(st.booleans()) and f not in ("N", "samples")]
    else:
        flags = [f for f in flags if draw(st.booleans())]
    if draw(st.integers(0, 5)) == 0:  # a flag that another scenario reads
        flags.append(draw(st.sampled_from([f for f in values if f not in flags])))
    given = {f: draw(st.sampled_from(values[f])) for f in flags}
    const = None
    if draw(st.integers(0, 2)) == 0:  # every validity floor lies between 0.001 and 100
        const = draw(st.tuples(st.sampled_from(["c1", "c2", "c5", "c6", "zz"]),
                               st.sampled_from(["100", "100", "0.001", "abc"])))
    unsafe = draw(st.integers(0, 4)) == 0
    argv = ["demo", "--scenario", scenario, *(f"--{f}={v!r}" for f, v in given.items())]
    argv += [] if const is None else [f"--const={const[0]}={const[1]}"]
    argv += ["--unsafe"] if unsafe else []
    untaken, extra = draw(_untaken(["--tol", "--format", "--ell", "--x"]))
    argv += extra

    reads = dict(_DEMO_DEFAULTS[scenario])
    constants = _READS_CONSTANTS.get(scenario, ())
    k_variable = scenario == "esseen-k" and given.get("k") != 1
    if scenario == "esseen-k" and not k_variable:  # the one-variable bound
        del reads["delta"]
        constants = ("c1", "c2")
    ok = (untaken is None and set(given) <= set(reads)
          and all(_DEMO_VALID[f](v) for f, v in given.items())
          and (not k_variable or given.get("omega", 12.0) > 1.0)  # the k-variable bounds need it
          and (not unsafe or constants))
    if const is not None:
        name, text = const
        ok = ok and name in constants and text != "abc" and (unsafe or text == "100")
    if not ok:
        return argv, None
    resolved = {**reads, **given}
    seed = resolved.pop("seed", None)
    overrides = {} if const is None else {const[0]: float(const[1])}
    return argv, _manifest("demo", parameters={"scenario": scenario, **resolved}, seed=seed,
                           constant_overrides=overrides)


def _check_fuzzed_json(argv, expect):
    code, out, err = _run_quietly(argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE), (argv, code, err)
    assert "Traceback" not in err
    if expect is None:
        assert code == EXIT_USAGE and out == "", (argv, code, err)
        return
    assert code != EXIT_USAGE, (argv, err)
    assert json.loads(out)["manifest"] == expect, argv


class TestArgvFuzz:
    @given(_eval_argv())
    @settings(max_examples=150, deadline=None)
    def test_eval(self, case):
        _check_fuzzed(*case)

    @given(_table_argv())
    @settings(max_examples=100, deadline=None)
    def test_table(self, case):
        _check_fuzzed(*case)

    @given(_verify_argv())
    @settings(max_examples=25, deadline=None)
    def test_verify(self, case):
        _check_fuzzed_json(*case)

    @given(_demo_argv())
    @settings(max_examples=50, deadline=None)
    def test_demo(self, case):
        _check_fuzzed_json(*case)
