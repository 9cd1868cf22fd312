"""Command-line interface: outputs, exit codes, config, and determinism."""

import json
import math
import types
import warnings

import numpy as np
import pytest

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
# err_est each name reports: a fixed estimate, the formula's own, or --tol;
# the sample sets are built node by node from scalar calls
def _reference_rows(name, xs, ell, tol):
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
        "W": lambda x: (kr.W_eval(x), tol),
        "B": lambda x: (kr.B_eval(x), tol),
        "b": lambda x: (kr.b_eval(x), tol),
        "S": lambda x: (kr.S_eval(ell, x), tol),
        "sigma": lambda x: (kr.sigma_eval(ell, x), tol),
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
        values, errs = cli.KERNELS[name](self.POINTS, 2.0, 1e-9)
        expect = _reference_rows(name, self.POINTS, 2.0, 1e-9)
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
        expect = [(x, *row) for x, row in zip(xs, _reference_rows(name, xs, 2.5, 1e-10))]
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
            cli.KERNELS[name]([0.3], ell, 1e-10)


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
            (("eval", "--fn", "K", "--const", "c1=abc"), "--const"),
            (("eval", "--fn", "K", "--const", "c1=nan"), "--const"),
            (("eval", "--fn", "K", "--const", "c1"), "--const"),
            (("eval", "--fn", "K", "--const", "zz=1"), "--const"),
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
        ],
    )
    def test_message_names_the_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {flag} ")
        assert err.count("\n") == 1


class TestStrictJson:
    def test_numpy_scalars_become_python(self, capsys):
        cli._emit({"pass": np.bool_(True), "value": np.float64(0.25), "n": np.int64(3)}, None)
        assert json.loads(capsys.readouterr().out) == {"pass": True, "value": 0.25, "n": 3}

    def test_other_objects_raise(self):
        with pytest.raises(TypeError):
            cli._emit({"x": object()}, None)


class TestVerify:
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
            (("eval", "--fn", "W", "--const", "c1=0.3"), "none"),
            (("table", "--fn", "K", "--from", "0", "--to", "1", "--step", "0.5", "--const", "c2=4"),
             "none"),
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
    def test_config_file_defaults(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json", "seed": 99}))
        monkeypatch.setenv("BSLIB_CONFIG", str(cfg))
        code, payload, _ = run_json(capsys, "eval", "--fn", "K", "--x", "0.0")
        assert code == EXIT_OK
        assert payload["manifest"]["seed"] == 99
        assert payload["manifest"]["format"] == "json"

    def test_flags_override_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 99}))
        monkeypatch.setenv("BSLIB_CONFIG", str(cfg))
        code, payload, _ = run_json(
            capsys, "eval", "--fn", "K", "--x", "0.0", "--seed", "5", "--format", "json"
        )
        assert code == EXIT_OK
        assert payload["manifest"]["seed"] == 5

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
        monkeypatch.delenv("BSLIB_CONFIG", raising=False)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            monkeypatch.setenv("BSLIB_CONFIG", str(cfg))
            named = f"BSLIB_CONFIG {cfg}: {named}"
        code, out, err = run(capsys, "eval", "--fn", "K", "--x", "0.0", *flags)
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
