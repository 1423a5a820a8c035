"""The benchmark's traced run patches library names; keep them patchable.

``perfbench/tracing.py`` wraps module-level names of ``qespair`` (and
rebuilds some dataclasses with ``dataclasses.replace``) to count work per
layer.  A refactor that drops or renames one of those names should fail
here rather than silently break ``perfbench/run.py --trace 1``.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from qespair import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked in
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    from tracing import Tracer

    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_traced_verify_and_crosscheck_count_work(tracer):
    assert quiet_main(["verify", "--family", "poly-wplus"]) == 0
    assert tracer.counts["functions.integrand_points"] > 0
    assert quiet_main(["crosscheck", "--family", "custom", "--expr", "x + x^3/3",
                       "--epsilon", "2"]) == 0
    assert tracer.counts["expressions.jet_calls"] > 0
    assert tracer.counts["expressions.jet_points"] > 0


@pytest.mark.parametrize("args", [
    ["--family", "poly-phi"],
    ["--family", "custom", "--expr", "x + x^3/3", "--epsilon", "2"],
], ids=["phi-family", "phi-custom-seed"])
def test_traced_crosscheck_times_the_build_and_both_routes(tracer, args):
    # crosscheck builds its phi model through make_model, then the W+ route
    assert quiet_main(["crosscheck", *args]) == 0
    spans = ("cli.make_model", "construct.build", "construct.crosscheck")
    assert [name for name in spans if not tracer.name_incl_ns[name]] == []


@pytest.mark.parametrize("args", [
    ["--family", "poly-wplus"],
    ["--family", "custom", "--expr", "x + x^3/3", "--epsilon", "2"],
], ids=["wplus-family", "phi-custom-seed"])
def test_traced_verify_reaches_every_patched_boundary(tracer, args):
    # a call that goes around a patched name would leave its counter at zero
    assert quiet_main(["verify", *args]) == 0
    counters = ("verify.auto_grid_psi_calls", "susy.potential_points",
                "functions.cumint_calls", "verify.eigensolve_points")
    assert [key for key in counters if not tracer.counts[key]] == []


@pytest.mark.parametrize("command", [
    ["build", "--family", "poly-phi", "--emit", "{table}"],
    ["spectrum", "--family", "poly-phi-ces", "--n-max", "2"],
], ids=["build-emit", "spectrum"])
def test_traced_build_and_spectrum_take_the_patched_auto_grid(tracer, command, tmp_path):
    # a grid function that bound auto_grid at import would leave this at zero
    table = str(tmp_path / "t.csv")
    assert quiet_main([arg.format(table=table) for arg in command]) == 0
    assert tracer.counts["verify.auto_grid_psi_calls"] > 0


def test_traced_grid_ladder_counts_each_public_eigensolve_once(tracer):
    # the library calls of the grid-refine workload: verify_model solves V_minus
    # through eigensolve and its partner V_plus from those levels, then one 9-level
    from qespair import families, verify

    model = families.poly_phi_ces_model(1.0, 1.0)
    grid = verify.Grid(verify.auto_grid(model).L, 16001)
    assert verify.verify_model(model, grid).passed
    levels, _ = verify.eigensolve(model.potentials.v_minus, grid, 9)
    assert len(levels) == 9
    assert tracer.counts["verify.eigensolve_points"] == 2 * 16001
