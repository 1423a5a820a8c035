"""The whole command on any seed: a report, or one named refusal.

Seeds come from the full expression grammar with no regard for each
function's domain, so they include poles, removable singularities such as
g/x^-1, constants that overflow to inf, and x + c*g(x) forms that are often
admissible.  Each seed runs ``verify`` on the W+ route, ``verify --epsilon 1``
and ``crosscheck --epsilon 1`` through ``cli.main`` with every warning an
exception.  A run either exits 0 or 1 with a report whose values are all
finite, or exits 2 with nothing on stdout and exactly one ``error:`` line.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st

from qespair.cli import main

FUNCTIONS = ("sin", "cos", "sinh", "cosh", "tanh", "exp", "ln")


def seeds():
    leaves = st.sampled_from(["x", "(x - 1)", "(x - pi)", "0.5", "3", "1e3", "x^-1"])

    def grow(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(sub, st.sampled_from(["-2", "-1", "2", "3", "0.5"])).map(
                lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(FUNCTIONS), sub).map(lambda t: f"{t[0]}({t[1]})"),
        )

    tree = st.recursive(leaves, grow, max_leaves=4)
    shifted = st.tuples(st.sampled_from(["0.01", "0.3", "1"]), tree).map(
        lambda t: f"x + {t[0]}*{t[1]}")
    return st.one_of(tree, shifted)


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _report(command, stdout):
    """The parsed report: verify's JSON, or crosscheck's key=value fields."""
    if command == "verify":
        return json.loads(stdout, parse_constant=lambda c: math.nan)
    *fields, verdict = stdout.split()
    assert verdict in ("PASS", "FAIL"), stdout
    return {key: float(value) for key, value in (f.split("=") for f in fields)}


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seeds())
@example("x + 0.01*(((x - 1) * (x - pi)) / x^-1)")  # NaN jets at the scan point x = 0
@example("x + 0.3*(cosh(1e3) + cosh(x))^-1")  # a constant that overflows to inf
@example("x + 0.3*((1e3 - 1e3))^-2")  # a constant divisor of zero
@example("x" + "+0.001*x" * 980)  # nested past the cap; evaluating it recursed too deep
def test_every_seed_gives_a_finite_report_or_one_error_line(expr):
    for tail in ([], ["--epsilon", "1"]):
        for command in (["verify"] + (["crosscheck"] if tail else [])):
            argv = [command, "--family", "custom", "--expr", expr, *tail]
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(argv)
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            if code == 2:
                assert out.getvalue() == "" and len(errors) == 1, (argv, err.getvalue())
            else:
                assert code in (0, 1) and errors == [], (argv, code, err.getvalue())
                assert _finite(_report(command, out.getvalue())), (argv, out.getvalue())
