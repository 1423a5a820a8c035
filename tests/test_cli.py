"""Tests for the command-line front end: exit codes, output formats, config."""

import csv
import json
import logging
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qespair
from qespair.cli import build_parser, main
from qespair.construct import build_from_wplus
from qespair.expressions import parse_generator
from qespair.families import FAMILIES, FamilySpec, PolyWplusParams, poly_wplus_model
from qespair.verify import Tolerances, auto_grid, verify_model


CAP_NOTICE = ("warning: decay target 1e-12 not reached inside L = 50 scale hints; "
              "using the capped box")


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_strict(args, capsys):
    """run, with any warning an exception: one that would print fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(args, capsys)


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
        # a 130-wide box puts the table 130 panels from the node
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


SETTING_COMMANDS = {
    "build": ["build", "--family", "poly-wplus"],
    "build-emit": ["build", "--family", "poly-wplus", "--emit", "{table}"],
    "verify": ["verify", "--family", "poly-wplus"],
    "spectrum": ["spectrum", "--family", "poly-wplus"],
    "crosscheck": ["crosscheck", "--family", "poly-phi"],
}
TOLERANCE_ERROR = "config value tolerances.energy must be positive and finite (got -1.0)"
SETTING_ERRORS = {
    "tol-e": (["--tol-e", "-1"], TOLERANCE_ERROR),
    "grid-n": (["--grid-n", "4"], "grid N (--grid-n) must be an odd integer >= 3 (got 4)"),
    "grid-l": (["--grid-l", "-3"],
               "grid L (--grid-l) = -3.0 is refused: L must be positive and finite"),
    "tol-e-with-grid-l": (["--tol-e", "-1", "--grid-l", "8"], TOLERANCE_ERROR),
}


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
        (["verify", "--grid-n", "99999999999999999999"], "--grid-n"),
    ], ids=["even-n", "negative-l", "n-too-small-for-verify", "n-too-small-for-spectrum",
            "n-numpy-cannot-address"])
    def test_bad_grid_is_a_usage_error(self, args, setting, capsys):
        code, _, err = run(args, capsys)
        assert code == 2
        assert err.startswith("error:") and setting in err

    @pytest.mark.parametrize("command,setting", [
        *((command, setting) for setting in ("tol-e", "grid-n", "grid-l")
          for command in SETTING_COMMANDS),
        ("build-emit", "tol-e-with-grid-l"),
        ("spectrum", "tol-e-with-grid-l"),
    ])
    def test_invalid_setting_is_refused_alike_by_every_command(self, command, setting,
                                                                tmp_path, capsys):
        # each setting is checked before the model, whatever else the command reads
        table = tmp_path / "table.csv"
        args, message = SETTING_ERRORS[setting]
        command_args = [a.format(table=table) for a in SETTING_COMMANDS[command]]
        code, out, err = run(command_args + args, capsys)
        assert code == 2 and out == "" and not table.exists()
        assert err.splitlines() == [f"error: {message}"]

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
         "1/x's derivative is not finite at x=0.0"),
        (["verify", "--family", "poly-wplus", "--tol-e", "-1"], "tolerances.energy"),
        (["build", "--family", "poly-wplus", "--sweep", "a=1:2:0"],
         "sweep needs at least one step"),
        (["spectrum", "--n-max", "-1"], "n-max must be >= 0"),
        (["build", "--family", "sinh-wplus", "--x0", "inf"], "x0 must be finite"),
        (["build", "--family", "sinh-wplus", "--x0", "nan"], "x0 must be finite"),
    ], ids=["potential-overflows", "box-beyond-the-panel-range", "negative-scale-hint",
            "sinh-potential-overflows", "table-overflows", "seed-pole-on-the-scan",
            "seed-overflows-on-the-scan", "phi-slope-pole", "negative-tolerance",
            "sweep-without-steps", "negative-n-max", "infinite-x0", "nan-x0"])
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

    @pytest.mark.parametrize("args,hint", [
        (["--family", "custom", "--expr", "x", "--scale-hint", "1e308"], "1e+308"),
        (["--family", "sinh-wplus", "--alpha", "1e-308"], "1e+308"),
        (["--family", "custom", "--expr", "x", "--scale-hint", "1e307"], "1e+307"),
    ], ids=["scan-grid-overflows", "sinh-hint-overflows", "sign-probes-overflow"])
    def test_scale_hint_whose_lengths_overflow_is_refused(self, args, hint, capsys):
        code, out, err = run_strict(["verify"] + args, capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: scale_hint {hint} is too large: "
                                    f"100 scale hints overflow"]

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

    @pytest.mark.parametrize("args,error", [
        (["--family", "custom", "--expr", "x*0"],
         "x*0 is zero on every point of the scan grid [-8.0, 8.0]"),
        (["--family", "poly-phi-ces", "--a", "1e-300", "--b", "1"],
         "a*x+b*x^3/3 (a=1e-300, b=1.0) is zero on every point of the scan grid "
         "[-1.1313708498984762e-149, 1.1313708498984762e-149]"),
    ], ids=["zero-seed", "underflowing-phi"])
    def test_seed_zero_on_every_scan_point_is_named(self, args, error, capsys):
        # not a list of all 401 scan points as zeros
        code, out, err = run(["verify"] + args, capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {error}"]

    def test_underflowing_phi_slope_prints_only_its_error(self, capsys):
        # phi'^3 underflows to 0 in the W+ seed's second derivative
        code, out, err = run(["crosscheck", "--family", "custom", "--expr", "x*1e-150",
                              "--epsilon", "1"], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: 2*eps*phi/phi''s second derivative is not finite at x0=0.0"]

    def test_overflowing_third_derivative_at_the_node_is_named(self, capsys):
        # 6*1.7e308 overflows in W+'''(0); W+ and its first two derivatives stay finite
        code, out, err = run(["verify", "--family", "custom", "--expr", "x + 1.7e308*x^3",
                              "--scale-hint", "1e-50"], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: x + 1.7e308*x^3's third derivative is not finite at x0=0.0"]

    @pytest.mark.parametrize("args,probes", [
        (["verify", "--family", "sinh-wplus", "--A", "1e300"], "[-20.0, 20.0]"),
        (["crosscheck", "--family", "poly-phi", "--b", "1e300"],
         "[-34.64101615137754, 34.64101615137754]"),
    ], ids=["overflowing-sinh-amplitude", "overflowing-phi-curvature"])
    def test_superpotential_not_finite_on_the_sign_probes_is_one_error_line(self, args, probes,
                                                                            capsys):
        code, out, err = run(args, capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: W is not finite on the sign-condition probes {probes}"]

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

    @pytest.mark.parametrize("route,cause", [
        ([], "non-transversal or wrongly oriented zero: W+'(x0)="),
        (["--epsilon", "1.5"], "increasing"),
    ], ids=["wplus", "phi"])
    @pytest.mark.parametrize("expr", ["x^3", "(x - 0.013)^3", "(x - 0.013)^5"])
    def test_multiple_zero_is_refused_on_both_routes(self, expr, route, cause, capsys):
        # off the scan points the polished node's slope is tiny but positive
        code, out, err = run_strict(["build", "--family", "custom", "--expr", expr, *route],
                                    capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith("error: ") and cause in line

    @pytest.mark.parametrize("route", [[], ["--epsilon", "1.5"]], ids=["wplus", "phi"])
    @pytest.mark.parametrize("expr", ["x^3 + 1e-13*x", "(x - 0.013)^3 + 1e-30*x"])
    def test_flat_simple_zero_is_built(self, expr, route, capsys):
        code, out, err = run(["build", "--family", "custom", "--expr", expr, *route], capsys)
        assert code == 0 and err == ""
        assert out.startswith(f"family=custom expr='{expr}'")

    DEEP = "x" + "+0.001*x" * 980  # evaluating it recursed past the interpreter's limit

    @pytest.mark.parametrize("args", [
        ["verify"], ["verify", "--epsilon", "1"], ["crosscheck", "--epsilon", "1"]],
        ids=["verify", "verify-phi", "crosscheck"])
    @pytest.mark.parametrize("expr,message", [
        (DEEP, "error: expression nests deeper than the cap of 200 levels"),
        ("x" + "+x" * 3000, "maximum recursion depth exceeded during ast construction"),
    ], ids=["deeper-than-the-cap", "deeper-than-the-parser"])
    def test_too_deeply_nested_expression_is_one_error_line(self, args, expr, message, capsys):
        code, out, err = run_strict([*args[:1], "--family", "custom", "--expr", expr, *args[1:]],
                                    capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith("error: ") and line.endswith(message)

    def test_long_expression_error_line_quotes_part_of_it(self, capsys):
        expr = "x" + "+x" * 3000
        code, out, err = run_strict(["verify", "--family", "custom", "--expr", expr], capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith("error: could not parse expression '" + expr[:76] + "...: ")
        assert len(line.encode()) <= 200

    def test_expression_one_level_under_the_nesting_cap_is_built(self, capsys):
        expr = "x" + "+0.001*x" * 198  # 200 levels: the last term's x is one level deeper
        for route in ([], ["--epsilon", "1"]):
            code, out, err = run(["build", "--family", "custom", "--expr", expr, *route], capsys)
            assert code == 0 and err == ""

    # sizes of at least 1e15 only: numpy refuses them at once, where a size that
    # fits in virtual memory could be overcommitted
    @pytest.mark.parametrize("args", [
        ["verify", "--family", "poly-wplus", "--grid-n", "1000000000000001", "--out", "{out}"],
        ["verify", "--family", "poly-wplus", "--config", "{config}", "--out", "{out}"],
        ["spectrum", "--family", "poly-phi-ces", "--grid-l", "5", "--grid-n", "1000000000000001"],
        ["build", "--family", "poly-wplus", "--sweep", "a=1:2:1000000000000000", "--emit",
         "{out}"],
    ], ids=["verify-grid-n", "config-grid-n", "spectrum-grid-n", "build-sweep"])
    def test_failed_allocation_is_one_error_line(self, args, tmp_path, capsys):
        config, table = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps({"grid": {"N": 1000000000000001}}))
        code, out, err = run([a.format(config=config, out=table) for a in args], capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()  # numpy's own words, which vary by version
        assert line.startswith("error: ")
        assert not table.exists()

    @pytest.mark.parametrize("sweep", ["b=1:2", "b=1:inf:2", "b=-inf:1:2", "b=nan:1:1",
                                       "b=1:inf:1", "b=-1e308:1e308:3"],
                             ids=["two-fields", "infinite-stop", "infinite-start", "nan-start",
                                  "infinite-unused-stop", "overflowing-span"])
    def test_malformed_sweep(self, sweep, capsys):
        code, out, err = run_strict(["build", "--family", "poly-wplus", "--sweep", sweep],
                                    capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: bad --sweep {sweep!r}: expected KEY=START:STOP:STEPS"]

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

    @pytest.mark.parametrize("args", [
        ["--family", "poly-phi", "--a", "1e300", "--b", "1e-300", "--epsilon", "1"],
        ["--family", "poly-phi-ces", "--a", "1e160", "--b", "1"],
    ], ids=["poly-phi", "poly-phi-ces"])
    def test_huge_cubic_seed_parameter_gives_a_report(self, args, capsys):
        # a^3 overflows a float; the model never forms it
        code, out, _ = run(["verify"] + args, capsys)
        assert code in (0, 1)
        assert json.loads(out)["passed"] is (code == 0)

    def test_tiny_scale_linear_seed_reports_its_capped_box(self, capsys):
        # x0 = 0 exactly: a node 0.02 scale hints off it put x = 0 outside the
        # Taylor window, where the quotient is 0/0 (exit 2, "potential is not
        # finite").  The box is capped, so V_plus's certificate falls back to
        # bisection, and the golden corpus, whose commands all certify, skips it.
        code, out, err = run(["verify", "--family", "custom", "--expr", "x",
                              "--scale-hint", "1e-16"], capsys)
        assert (code, err.splitlines()) == (1, [CAP_NOTICE])
        report = json.loads(out)
        assert report["grid"]["L"] == 5e-15
        assert report["diagnostics"][-1].startswith("box L = 5e-15 is auto_grid's cap")

    def test_report_on_the_auto_box_is_the_report_on_that_box_given(self, capsys):
        # auto_grid's walk fills the primitives further than a run given its box;
        # a grid point on a panel edge must read the same either way
        draw = ["verify", "--family", "poly-wplus", "--a", "3.1701233239567874",
                "--b", "0.32081809922974414"]
        auto = json.loads(run(draw, capsys)[1])
        assert auto["grid"]["L"] == 4.765716124224083
        given = json.loads(run(draw + ["--grid-l", "4.765716124224083"], capsys)[1])
        assert auto["config"].pop("grid") == {}
        assert given["config"].pop("grid") == {"L": 4.765716124224083}
        assert given == auto

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


def _first_taker(name):
    return next(family for family, spec in FAMILIES.items() if name in spec.defaults)


# (flags, config key as a path into the echoed config, value read back); an
# empty --out still prints the report, and the echo records the flag as given
FLAG_KEYS = [
    (["--family", "poly-phi"], ["family"], "poly-phi"),
    *[(["--family", _first_taker(name), f"--{name}", "0.25"], ["params", name], 0.25)
      for name in dict.fromkeys(k for spec in FAMILIES.values() for k in spec.defaults)],
    (["--family", "custom", "--expr", "x + x^3"], ["expr"], "x + x^3"),
    (["--family", "custom", "--expr", "x + x^3", "--scale-hint", "1.5"], ["scale_hint"], 1.5),
    (["--grid-l", "12"], ["grid", "L"], 12.0),
    (["--grid-n", "1001"], ["grid", "N"], 1001),
    (["--tol-e", "1e-5"], ["tolerances", "energy"], 1e-5),
    (["--out", "{report}"], ["output", "path"], "{report}"),
    (["--out", ""], ["output", "path"], ""),
]


@pytest.mark.parametrize("flags,key,value", FLAG_KEYS, ids=[
    " ".join(f[-2:]) if f[-1] else "--out-empty" for f, _, _ in FLAG_KEYS])
def test_each_verify_flag_reaches_its_config_key(flags, key, value, tmp_path, capsys):
    report = str(tmp_path / "r.json")
    code, out, err = run(["verify", *(f.format(report=report) for f in flags)], capsys)
    assert code in (0, 1), err
    config = json.loads(Path(report).read_text() if value == "{report}" else out)["config"]
    for part in key:
        config = config[part]
    assert config == (report if value == "{report}" else value)


def test_every_verify_flag_has_a_config_key_case():
    dests = set(vars(build_parser().parse_args(["verify"])))
    covered = {f[-2].lstrip("-").replace("-", "_") for f, _, _ in FLAG_KEYS}
    assert dests - covered == {"command", "func", "config", "sweep"}


def test_build_emit_writes_its_table_at_the_given_path(tmp_path, capsys):
    table = tmp_path / "sub" / "table.csv"
    table.parent.mkdir()
    code, out, _ = run(["build", "--family", "poly-phi", "--emit", str(table)], capsys)
    assert code == 0 and out.startswith("family=poly-phi ")
    assert table.read_text().splitlines()[0] == "x,v_minus,v_plus,w,w1,psi0,psi1"


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
        ({"family": "nope"}, "unknown family 'nope'"),
        ([1, 2], "must contain a JSON object"),
    ], ids=["grid-n", "grid-l", "tolerance", "scale-hint", "param", "grid-section",
            "params-section", "expr", "output-path", "fractional-grid-n", "family-list",
            "boolean-param", "boolean-grid-n", "nan-tolerance", "zero-tolerance",
            "unknown-family", "not-an-object"])
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

    @pytest.mark.parametrize("args", [["--family", "poly-wplus"],
                                      ["--family", "custom", "--expr", "2*x + x^3"]],
                             ids=["sum-route-family", "custom-seed-without-gap"])
    def test_sum_route_models_are_refused(self, args, capsys):
        code, out, err = run(["crosscheck", *args], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: crosscheck requires a phi-based family (poly-phi, "
                                    "poly-phi-ces, or custom --expr with --epsilon)"]


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


class TestRegistry:
    @pytest.fixture
    def cubic(self, monkeypatch):
        """A family registered at run time: W+ = c*x + x^3, one parameter c."""
        build_parser.cache_clear()  # the next parser is built from the patched registry
        monkeypatch.setitem(FAMILIES, "cubic-c", FamilySpec(
            {"c": 2.0}, lambda p: build_from_wplus(parse_generator(f"{p['c']!r}*x + x^3"))))
        yield "cubic-c"
        build_parser.cache_clear()

    def test_parameter_flags_come_from_the_registry(self, cubic, capsys):
        code, out, err = run(["build", "--family", cubic, "--c", "3"], capsys)
        assert (code, err) == (0, "")
        assert out == f"family={cubic} c=3 epsilon=1.5 x0=0 E0=0 E1=1.5\n"
        code, _, err = run(["build", "--family", cubic, "--a", "1"], capsys)
        assert code == 2
        assert err.startswith(f"error: parameter 'a' is not used by family '{cubic}'")
        code, out, _ = run(["spectrum", "--family", cubic, "--c", "3", "--n-max", "1"], capsys)
        assert code == 0
        assert [row.split(",")[1] for row in out.splitlines()] == ["E_analytic", "0", "1.5"]

    def test_flag_help_names_the_families_that_take_it(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")  # one line per flag
        code, out, _ = run(["build", "--help"], capsys)
        assert code == 0
        helps = {words[0]: " ".join(words[2:]) for words in map(str.split, out.splitlines())
                 if words and words[0] in ("--a", "--x0", "--epsilon")}
        assert helps == {"--a": "parameter of poly-wplus, poly-phi, poly-phi-ces",
                         "--x0": "parameter of sinh-wplus",
                         "--epsilon": "parameter of poly-phi; with custom --expr selects "
                                      "the phi route"}


class TestParser:
    def test_main_calls_share_one_parser(self):
        assert build_parser() is build_parser()

    def test_a_flag_does_not_carry_over_to_the_next_call(self, tmp_path, capsys):
        run(["spectrum", "--n-max", "2"], capsys)
        code, out, _ = run(["spectrum"], capsys)
        assert code == 0 and len(out.splitlines()) == 1 + 5  # header, levels 0..4
        path = tmp_path / "r.json"
        run(["verify", "--out", str(path)], capsys)
        code, out, _ = run(["verify"], capsys)
        assert code == 0 and json.loads(out)["passed"] and path.exists()

    @pytest.mark.parametrize("x0", ["-7.255050515242445e-06", "-1E-5", "-.5"])
    def test_negative_number_in_any_float_form_is_a_value(self, x0, capsys):
        code, out, err = run(["build", "--family", "sinh-wplus", "--x0", x0], capsys)
        assert (code, err) == (0, "")
        assert f" x0={float(x0):.17g} " in out
