"""Tests for the command-line front end: exit codes, output formats, config."""

import csv
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qespair
from qespair.cli import main
from qespair.families import FAMILIES, PolyWplusParams, poly_wplus_model
from qespair.verify import Tolerances, auto_grid, verify_model


CAP_NOTICE = ("warning: decay target 1e-12 not reached inside L = 50 scale hints; "
              "using the capped box")


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_summary_line(self, capsys):
        code, out, _ = run(["build", "--family", "poly-wplus", "--a", "2", "--b", "1"],
                           capsys)
        assert code == 0
        assert out.strip() == "family=poly-wplus a=2 b=1 epsilon=1 x0=0 E0=0 E1=1"

    def test_defaults_fill_missing_parameters(self, capsys):
        code, out, _ = run(["build", "--family", "poly-wplus"], capsys)
        assert code == 0
        assert "a=2 b=1" in out

    def test_custom_expression(self, capsys):
        code, out, _ = run(["build", "--family", "custom", "--expr", "2*x + x^3"], capsys)
        assert code == 0
        assert "epsilon=1" in out and "x0=0" in out

    def test_custom_expression_with_gap_uses_the_shape_route(self, capsys):
        code, out, _ = run(["build", "--family", "custom", "--expr", "x + x^3/3",
                            "--epsilon", "2"], capsys)
        assert code == 0
        assert "epsilon=2" in out

    def test_emitted_table_round_trips_bit_for_bit(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(["build", "--family", "poly-wplus", "--a", "2", "--b", "1",
                          "--grid-l", "4", "--grid-n", "201", "--emit", str(out_path)],
                         capsys)
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 201
        assert list(rows[0]) == ["x", "v_minus", "v_plus", "w", "w1", "psi0", "psi1"]
        model = poly_wplus_model(PolyWplusParams(2.0, 1.0))
        xs = np.array([float(r["x"]) for r in rows])
        for column, fn in [("v_minus", model.potentials.v_minus),
                           ("w", model.W.w),
                           ("psi1", model.psi1.psi)]:
            emitted = [r[column] for r in rows]
            again = [format(float(v), ".17g") for v in np.asarray(fn(xs), dtype=float)]
            assert emitted == again

    def test_far_box_emits_without_recursion(self, tmp_path, capsys):
        # a 130-wide box puts the table 1040 panels from the node
        out_path = tmp_path / "far.csv"
        code, out, _ = run(["build", "--family", "poly-wplus", "--grid-l", "130",
                            "--grid-n", "5", "--emit", str(out_path)], capsys)
        assert code == 0
        assert out.startswith("family=poly-wplus")
        assert len(out_path.read_text().splitlines()) == 6

    def test_sweep_prints_sorted_summaries(self, capsys):
        code, out, _ = run(["build", "--family", "poly-wplus", "--a", "2",
                            "--sweep", "b=2:0.5:4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        values = [float(line.split("b=")[1].split()[0]) for line in lines]
        assert values == sorted(values)


class TestValidation:
    def test_nonpositive_parameter(self, capsys):
        code, _, err = run(["build", "--family", "poly-wplus", "--a", "2", "--b", "-1"],
                           capsys)
        assert code == 2
        assert "b must be > 0" in err

    def test_unknown_family(self, capsys):
        code, _, _ = run(["build", "--family", "does-not-exist"], capsys)
        assert code == 2

    def test_custom_without_expression(self, capsys):
        code, _, err = run(["build", "--family", "custom"], capsys)
        assert code == 2
        assert "requires --expr" in err

    def test_parameter_not_used_by_family(self, capsys):
        code, _, err = run(["build", "--family", "poly-wplus", "--A", "1"], capsys)
        assert code == 2
        assert "not used by family" in err

    def test_custom_family_takes_only_epsilon(self, capsys):
        code, _, err = run(["build", "--family", "custom", "--expr", "2*x + x^3",
                            "--a", "5"], capsys)
        assert code == 2
        assert "not used by family" in err

    @pytest.mark.parametrize("args,key", [
        (["--expr", "x"], "'expr'"),
        (["--scale-hint", "3"], "'scale_hint'"),
        (["--config", {"expr": "x"}], "'expr'"),
        (["--config", {"scale_hint": 0.5}], "'scale_hint'"),
    ], ids=["expr-flag", "scale-hint-flag", "expr-key", "scale-hint-key"])
    def test_custom_only_setting_is_refused_for_a_built_in_family(self, args, key, tmp_path,
                                                                   capsys):
        if args[0] == "--config":
            cfg = tmp_path / "model.json"
            cfg.write_text(json.dumps(args[1]))
            args = ["--config", str(cfg)]
        code, out, err = run(["build", "--family", "poly-wplus"] + args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and key in err and "poly-wplus" in err

    def test_crosscheck_validates_parameters(self, capsys):
        code, _, err = run(["crosscheck", "--family", "poly-phi", "--A", "1"], capsys)
        assert code == 2
        assert "not used by family" in err

    @pytest.mark.parametrize("args,setting", [
        (["verify", "--family", "poly-wplus", "--grid-n", "4000"], "--grid-n"),
        (["verify", "--family", "poly-wplus", "--grid-l", "-1"], "--grid-l"),
        (["verify", "--family", "poly-wplus", "--grid-n", "13"], "--grid-n"),
        (["spectrum", "--family", "poly-wplus", "--n-max", "8", "--grid-n", "31"],
         "--grid-n"),
    ], ids=["even-n", "negative-l", "n-too-small-for-verify", "n-too-small-for-spectrum"])
    def test_bad_grid_is_a_usage_error(self, args, setting, capsys):
        code, _, err = run(args, capsys)
        assert code == 2
        assert err.startswith("error:") and setting in err

    @pytest.mark.parametrize("args,message", [
        (["verify", "--family", "poly-wplus", "--grid-l", "1e60"], "not finite on the grid"),
        (["build", "--family", "poly-wplus", "--grid-l", "1e20", "--grid-n", "5"],
         "query points must be finite and within"),
        (["build", "--family", "custom", "--expr", "x", "--scale-hint", "-1"], "scale_hint"),
        (["verify", "--family", "sinh-wplus", "--grid-l", "1e60"], "not finite on the grid"),
        (["build", "--family", "sinh-wplus", "--grid-l", "400", "--grid-n", "5"],
         "v_minus is not finite on the grid"),
        (["build", "--family", "custom", "--expr", "1/x"],
         "1/x is not finite everywhere on the scan grid"),
        (["build", "--family", "custom", "--expr", "x + 1e308*x^3"],
         "is not finite everywhere on the scan grid"),
        (["build", "--family", "custom", "--expr", "1/x", "--epsilon", "1"],
         "1/x is not monotonically increasing"),
        (["verify", "--family", "poly-wplus", "--tol-e", "-1"], "tolerances.energy"),
    ], ids=["potential-overflows", "box-beyond-the-panel-range", "negative-scale-hint",
            "sinh-potential-overflows", "table-overflows", "seed-pole-on-the-scan",
            "seed-overflows-on-the-scan", "phi-slope-pole", "negative-tolerance"])
    def test_out_of_range_input_is_a_usage_error(self, args, message, tmp_path, capsys):
        table = tmp_path / "table.csv"
        code, out, err = run(args + ["--emit", str(table)] if args[0] == "build" else args,
                             capsys)
        assert code == 2
        assert err.startswith("error:") and message in err
        assert out == ""
        assert not table.exists()

    @pytest.mark.parametrize("args", [
        ["--family", "custom", "--expr", "x*1e-300"],
        ["--family", "poly-wplus", "--grid-l", "1e-300"],
        ["--family", "poly-phi", "--epsilon", "1e300"],
        ["--family", "sinh-wplus", "--alpha", "1e300"],
    ], ids=["underflowing-seed", "subnormal-box", "eigensolver-diverges", "overflowing-alpha"])
    def test_badly_scaled_number_is_one_error_line(self, args, capsys):
        code, out, err = run(["verify"] + args, capsys)
        assert code == 2
        assert out == ""
        *notices, error = err.splitlines()  # a seed too flat to decay also hits the box cap
        assert error.startswith("error:") and set(notices) <= {CAP_NOTICE}
        assert "Traceback" not in err

    @pytest.mark.parametrize("slope", ["1e-300", "3e-310"], ids=["normal", "subnormal"])
    def test_tiny_seed_slope_is_refused_by_the_potential_sampling(self, slope, capsys):
        code, out, err = run(["verify", "--family", "custom", "--expr", f"x*{slope}"], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [CAP_NOTICE,
                                    "error: potential is not finite on the grid [-50.0, 50.0]"]

    def test_overflowing_state_leaks_no_runtime_warning(self, capsys):
        # psi1 overflows on auto_grid's peak scan, which names it and the span
        code, out, err = run(["verify", "--family", "custom", "--expr", "x*(x - 2.01)^2"],
                             capsys)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "error: psi1 is not finite on auto_grid's span [-10.0, 10.0]"
        assert not [line for line in err.splitlines() if "RuntimeWarning" in line]

    @pytest.mark.parametrize("args,where", [
        (["verify", "--expr", "1e150*x"], "auto_grid's span [-10.0, 10.0]"),
        (["verify", "--expr", "x*1e100"], "auto_grid's span [-10.0, 10.0]"),
        (["verify", "--expr", "1e150*x", "--grid-l", "10"], "the grid [-10.0, 10.0]"),
        (["verify", "--expr", "x", "--epsilon", "1e10"], "auto_grid's span [-10.0, 10.0]"),
        (["crosscheck", "--expr", "x", "--epsilon", "1e10"], "the probe grid [-8.0, 8.0]"),
    ], ids=["steep-seed", "steep-seed-right-factor", "steep-seed-on-the-grid", "wide-gap",
            "wide-gap-crosscheck"])
    def test_state_zero_on_every_point_is_refused(self, args, where, capsys):
        # psi1 is narrower than one sample step, so no norm or peak can scale it
        code, out, err = run([args[0], "--family", "custom", *args[1:]], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: psi1 is zero on every point of {where}"]

    def test_underflowing_phi_slope_prints_only_its_error(self, capsys):
        # phi'^3 underflows to 0 in the W+ seed's second derivative
        code, out, err = run(["crosscheck", "--family", "custom", "--expr", "x*1e-150",
                              "--epsilon", "1"], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: v_minus is not finite on the probe grid [-8.0, 8.0]"]

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_state_overflowing_the_box_is_refused_by_every_command(self, command, tmp_path,
                                                                   capsys):
        args = [command, "--family", "custom", "--expr", "x-0.001*x^3", "--grid-l", "60"]
        table = tmp_path / "t.csv"
        code, out, err = run(args + (["--emit", str(table)] if command == "build" else []),
                             capsys)
        assert code == 2 and out == "" and not table.exists()
        assert err.splitlines()[-1] == "error: psi0 is not finite on the grid [-60.0, 60.0]"

    def test_state_growing_to_the_wall_gives_a_finite_report(self, capsys):
        # the states peak near 1e190 at the wall: finite, but their squares are not
        code, out, _ = run(["verify", "--family", "custom", "--expr", "x-0.001*x^3",
                            "--grid-l", "56"], capsys)
        assert code == 1
        report = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
        assert report["boundary_amplitudes"] == {"psi0": 1.0, "psi1": 1.0}
        assert all(0.0 < n < 1e-150 for n in report["normalization_constants"])

    @pytest.mark.parametrize("args", [
        ["build", "--family", "poly-wplus", "--emit", "{dir}"],
        ["verify", "--family", "poly-wplus", "--out", "{dir}/missing/r.json"],
    ], ids=["build-into-a-directory", "verify-into-a-missing-directory"])
    def test_unwritable_output_path_is_a_usage_error(self, args, tmp_path, capsys):
        path = args[-1].format(dir=tmp_path)
        code, out, err = run(args[:-1] + [path], capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()  # one error line, with the OS's reason, no traceback
        assert line.startswith(f"error: cannot write {path}: ")

    def test_inadmissible_expression(self, capsys):
        code, _, err = run(["build", "--family", "custom", "--expr", "sin(x)"], capsys)
        assert code == 2
        assert "multiple zeros" in err

    def test_malformed_sweep(self, capsys):
        code, _, err = run(["build", "--family", "poly-wplus", "--sweep", "b=1:2"],
                           capsys)
        assert code == 2
        assert "KEY=START:STOP:STEPS" in err

    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run([], capsys)
        assert code == 2
        assert "build" in out and "verify" in out


class TestVerify:
    def test_passing_report_and_exit_zero(self, capsys):
        code, out, _ = run(["verify", "--family", "poly-wplus", "--a", "2", "--b", "1"],
                           capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["config"]["family"] == "poly-wplus"
        assert report["config"]["params"] == {"a": 2.0, "b": 1.0}
        assert set(report["checks"]).issuperset({"energy_levels", "riccati_identity"})

    def test_unreachable_tolerance_exits_one(self, capsys):
        code, out, _ = run(["verify", "--family", "poly-wplus", "--a", "2", "--b", "1",
                            "--tol-e", "1e-9"], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["config"]["tolerances"]["energy"] == 1e-9

    def test_report_written_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, stdout, _ = run(["verify", "--family", "poly-wplus", "--a", "2",
                               "--b", "1", "--out", str(out_path)], capsys)
        assert code == 0
        assert stdout == ""
        assert json.loads(out_path.read_text())["passed"] is True

    def test_sweep_aggregates_reports(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        code, _, _ = run(["verify", "--family", "poly-wplus", "--a", "2",
                          "--sweep", "b=0.5:1.25:4", "--out", str(out_path)], capsys)
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert [r["config"]["params"]["b"] for r in rows] == [0.5, 0.75, 1.0, 1.25]
        assert all(r["passed"] for r in rows)


class TestConfigFile:
    def test_config_drives_the_run(self, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({
            "family": "poly-phi",
            "params": {"a": 1.0, "b": 1.0, "epsilon": 1.0},
            "tolerances": {"energy": 1e-5},
        }))
        code, out, _ = run(["verify", "--config", str(cfg)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["family"] == "poly-phi"
        assert report["passed"] is True

    def test_flags_override_the_config(self, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"family": "poly-phi",
                                   "params": {"a": 1.0, "b": 1.0, "epsilon": 1.0}}))
        code, out, _ = run(["verify", "--config", str(cfg), "--epsilon", "1.5"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["params"]["epsilon"] == 1.5

    def test_boundary_decay_sizes_the_auto_box_as_the_library_does(self, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"family": "poly-phi",
                                   "tolerances": {"boundary_decay": 1e-3}}))
        spec = FAMILIES["poly-phi"]
        model = spec.build(dict(spec.defaults))
        library = verify_model(model, tolerances=Tolerances(boundary_decay=1e-3)).grid
        assert library.L < auto_grid(model).L
        code, out, _ = run(["verify", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["grid"] == {"L": library.L, "N": library.N}
        table = tmp_path / "table.csv"
        code, _, _ = run(["build", "--config", str(cfg), "--emit", str(table)], capsys)
        assert code == 0
        with open(table, newline="") as fh:
            assert float(list(csv.DictReader(fh))[-1]["x"]) == library.L

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"famly": "poly-phi"}))
        code, _, err = run(["build", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key" in err

    @pytest.mark.parametrize("config,key", [
        ({"grid": {"n": 8001}}, "'grid.n'"),
        ({"output": {"pth": "r.json"}}, "'output.pth'"),
        ({"tolerances": {"energies": 1e-3}}, "'tolerances.energies'"),
    ], ids=["grid", "output", "tolerances"])
    def test_unknown_section_key_is_refused(self, config, key, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: unknown config key {key} (expected one of [")

    def test_unreadable_config(self, capsys):
        code, _, err = run(["build", "--config", "/nonexistent/path.json"], capsys)
        assert code == 2
        assert "cannot read config file" in err

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text("{not json")
        code, _, err = run(["build", "--config", str(cfg)], capsys)
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("config,key", [
        ({"grid": {"N": "abc"}}, "grid.N"),
        ({"grid": {"L": "wide"}}, "grid.L"),
        ({"tolerances": {"energy": "tight"}}, "tolerances.energy"),
        ({"family": "custom", "expr": "x", "scale_hint": "big"}, "scale_hint"),
        ({"params": {"a": "x"}}, "params.a"),
        ({"grid": 5}, "'grid'"),
        ({"params": [1]}, "'params'"),
        ({"family": "custom", "expr": 5}, "--expr"),
        ({"output": {"path": 5}}, "output.path"),
        ({"grid": {"N": 4001.9}}, "grid.N"),
        ({"family": ["x"]}, "family"),
        ({"params": {"a": True}}, "params.a"),
        ({"grid": {"N": True}}, "grid.N"),
        ({"tolerances": {"energy": "nan"}}, "tolerances.energy"),
        ({"tolerances": {"energy": 0}}, "tolerances.energy"),
    ], ids=["grid-n", "grid-l", "tolerance", "scale-hint", "param", "grid-section",
            "params-section", "expr", "output-path", "fractional-grid-n", "family-list",
            "boolean-param", "boolean-grid-n", "nan-tolerance", "zero-tolerance"])
    def test_mistyped_value_is_a_usage_error(self, config, key, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error:") and key in err


    def test_integral_float_grid_size_is_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"grid": {"N": 5.0, "L": 3.0}}))
        table = tmp_path / "table.csv"
        code, _, _ = run(["build", "--config", str(cfg), "--emit", str(table)], capsys)
        assert code == 0
        assert len(table.read_text().splitlines()) == 1 + 5


class TestSpectrum:
    def test_ladder_table(self, capsys):
        code, out, _ = run(["spectrum", "--family", "poly-phi-ces", "--a", "1",
                            "--b", "1", "--n-max", "5", "--grid-n", "12001"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,E_analytic,E_numeric,abs_delta"
        assert len(lines) == 7
        ladder = [0.0, 1.5, 2.0, 2.5, 3.0, 3.5]
        for line, expected in zip(lines[1:], ladder):
            n, analytic, numeric, delta = line.split(",")
            assert float(analytic) == expected
            assert abs(float(numeric) - expected) < 1e-5
            assert float(delta) < 1e-5

    def test_levels_beyond_the_known_pair_print_placeholders(self, capsys):
        code, out, _ = run(["spectrum", "--family", "poly-wplus", "--a", "2",
                            "--b", "1", "--n-max", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[3].split(",")[1] == "-"

    def test_depth_cap(self, capsys):
        code, _, err = run(["spectrum", "--family", "poly-wplus", "--n-max", "9"], capsys)
        assert code == 2
        assert "exceeds the supported excited-state depth" in err

    def test_sweep_is_not_supported(self, capsys):
        code, _, err = run(["spectrum", "--family", "poly-wplus",
                            "--sweep", "b=1:2:2"], capsys)
        assert code == 2
        assert "unrecognized arguments: --sweep" in err


class TestCrosscheck:
    def test_agreement_for_the_shape_route_family(self, capsys):
        code, out, _ = run(["crosscheck", "--family", "poly-phi", "--a", "1",
                            "--b", "1", "--epsilon", "1"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_constrained_family_and_custom_shape(self, capsys):
        code, out, _ = run(["crosscheck", "--family", "poly-phi-ces", "--a", "1",
                            "--b", "1"], capsys)
        assert code == 0 and "PASS" in out
        code, out, _ = run(["crosscheck", "--family", "custom", "--expr", "x + x^3/3",
                            "--epsilon", "2"], capsys)
        assert code == 0 and "PASS" in out

    def test_sum_route_families_are_refused(self, capsys):
        code, _, err = run(["crosscheck", "--family", "poly-wplus"], capsys)
        assert code == 2
        assert "phi-based" in err


ENTRY_ARGS = ["build", "--family", "poly-wplus", "--a", "2", "--b", "1"]

# What pip's generated console-script wrapper does with a "module:function" target.
WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
func = EntryPoint("qes", sys.argv[1], "console_scripts").load()
sys.argv = ["qes"] + sys.argv[2:]
sys.exit(func())
"""


def declared_script(name):
    """The ``module:function`` target of a ``[project.scripts]`` entry."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def assert_summary_run(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("family=poly-wplus"), proc.stderr


def source_env():
    """The environment with the imported qespair's directory first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(qespair.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_entry_point():
    """The ``qes`` script declared in pyproject.toml runs ``build``, installed or not."""
    proc = subprocess.run([sys.executable, "-c", WRAPPER, declared_script("qes"),
                           *ENTRY_ARGS],
                          capture_output=True, text=True, env=source_env(), timeout=120)
    assert_summary_run(proc)


def test_import_loads_no_test_only_package():
    """``import qespair`` leaves the test-only heavyweights unloaded."""
    code = ("import sys, qespair; "
            "print(sorted({'sympy', 'mpmath', 'hypothesis'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=source_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_scipy_optimize_or_integrate():
    """``import qespair.cli`` loads neither scipy.optimize nor scipy.integrate."""
    code = ("import sys, qespair.cli; "
            "print(sorted({'scipy.optimize', 'scipy.integrate'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=source_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestWarnings:
    # W and W1 jump at the Taylor window's edges, so the filled integrals of
    # both miss the quadrature tolerance at the same two places
    ARGS = ["verify", "--family", "poly-wplus", "--a", "0.05", "--b", "20"]

    def test_each_distinct_warning_is_printed_once_with_a_prefix(self, capsys):
        _, _, err = run(self.ARGS, capsys)
        lines = err.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("warning: cumulative integral:") for line in lines)

    def test_auto_grid_cap_notice_is_printed(self, capsys):
        code, out, err = run(["verify", "--family", "custom", "--expr", "0.01*x"], capsys)
        assert code in (0, 1)
        assert json.loads(out)["grid"]["L"] == 50.0
        assert err.splitlines() == [CAP_NOTICE]

    def test_capped_box_is_named_in_the_report(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        code, _, _ = run(["verify", "--family", "custom", "--expr", "0.01*x",
                          "--out", str(path)], capsys)
        assert code in (0, 1)
        report = json.loads(path.read_text())
        assert report["grid"]["L"] == 50.0
        assert [d for d in report["diagnostics"] if "cap" in d] == [
            "box L = 50 is auto_grid's cap of 50 scale hints of 1, where it stops whether or "
            "not the states have decayed"]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_default_families_do_not_reach_the_cap(self, family, capsys):
        code, out, _ = run(["verify", "--family", family], capsys)
        assert code == 0
        assert not [d for d in json.loads(out)["diagnostics"] if "cap" in d]

    def test_chosen_box_at_the_cap_width_is_not_named_as_the_cap(self, capsys):
        code, out, _ = run(["verify", "--family", "sinh-wplus", "--grid-l", "50"], capsys)
        report = json.loads(out)
        assert code in (0, 1) and report["grid"]["L"] == 50.0
        assert set(report["boundary_amplitudes"].values()) == {0.0}
        assert not [d for d in report["diagnostics"] if "cap" in d]

    def test_repeated_calls_neither_stack_handlers_nor_share_dedup_state(self, capsys):
        handlers = list(logging.getLogger("qespair").handlers)
        first = run(self.ARGS, capsys)[2]
        second = run(self.ARGS, capsys)[2]
        assert second == first
        assert logging.getLogger("qespair").handlers == handlers


@pytest.mark.skipif(shutil.which("qes") is None, reason="qes console script not installed")
def test_installed_console_script():
    proc = subprocess.run(["qes", *ENTRY_ARGS], capture_output=True, text=True,
                          timeout=120)
    assert_summary_run(proc)
