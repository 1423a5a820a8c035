"""Tests for the expression grammar and its forward-mode derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qespair.errors import ExpressionError
from qespair.expressions import Jet, parse_generator

coeff = st.floats(-3.0, 3.0)


def test_polynomial_derivatives_are_exact():
    g = parse_generator("2*x + x^3")
    xs = np.linspace(-2.5, 2.5, 11)
    assert np.array_equal(g.eval(xs), 2 * xs + xs ** 3)
    assert np.array_equal(g.deriv1(xs), 2 + 3 * xs ** 2)
    assert np.array_equal(g.deriv2(xs), 6 * xs)
    assert np.max(np.abs(g.deriv3(xs) - 6.0)) == 0.0


@settings(max_examples=60, deadline=None)
@given(coeff, coeff, coeff, coeff, st.floats(-2.0, 2.0))
def test_cubic_jets_match_hand_derivatives(c0, c1, c2, c3, x):
    g = parse_generator(f"{c0} + {c1}*x + {c2}*x^2 + {c3}*x^3")
    assert g.eval(x) == pytest.approx(c0 + c1 * x + c2 * x * x + c3 * x ** 3,
                                      rel=1e-12, abs=1e-12)
    assert g.deriv1(x) == pytest.approx(c1 + 2 * c2 * x + 3 * c3 * x * x,
                                        rel=1e-12, abs=1e-12)
    assert g.deriv2(x) == pytest.approx(2 * c2 + 6 * c3 * x, rel=1e-12, abs=1e-12)
    assert g.deriv3(x) == pytest.approx(6 * c3, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("text,f,d1,d2,d3", [
    ("sin(x)", np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
    ("cosh(x)", np.cosh, np.sinh, np.cosh, np.sinh),
    ("exp(-x^2/2)",
     lambda x: np.exp(-x * x / 2),
     lambda x: -x * np.exp(-x * x / 2),
     lambda x: (x * x - 1) * np.exp(-x * x / 2),
     lambda x: x * (3 - x * x) * np.exp(-x * x / 2)),
    ("tanh(x)",
     np.tanh,
     lambda x: 1 / np.cosh(x) ** 2,
     lambda x: -2 * np.tanh(x) / np.cosh(x) ** 2,
     lambda x: (4 * np.tanh(x) ** 2 - 2 / np.cosh(x) ** 2) / np.cosh(x) ** 2),
])
def test_transcendental_chains(text, f, d1, d2, d3):
    g = parse_generator(text)
    xs = np.linspace(-1.8, 1.8, 13)
    for got, want in ((g.eval, f), (g.deriv1, d1), (g.deriv2, d2), (g.deriv3, d3)):
        assert np.max(np.abs(got(xs) - want(xs))) < 1e-13


def test_quotients_and_constants():
    g = parse_generator("pi * x / (1 + x^2) + e")
    x = 0.7
    assert g.eval(x) == pytest.approx(math.pi * x / (1 + x * x) + math.e, rel=1e-15)
    d1 = math.pi * (1 - x * x) / (1 + x * x) ** 2
    assert g.deriv1(x) == pytest.approx(d1, rel=1e-13)


def test_ln_and_fractional_power():
    g = parse_generator("ln(1 + x^2)")
    assert g.deriv1(2.0) == pytest.approx(4.0 / 5.0, rel=1e-14)
    h = parse_generator("x^0.5")
    assert h.eval(4.0) == pytest.approx(2.0, rel=1e-15)
    assert h.deriv1(4.0) == pytest.approx(0.25, rel=1e-13)
    with pytest.raises(ExpressionError, match="non-positive base"):
        h.eval(-1.0)


def test_expression_exponent_uses_exp_ln():
    g = parse_generator("x^x")
    assert g.eval(2.0) == pytest.approx(4.0, rel=1e-13)
    assert g.deriv1(2.0) == pytest.approx(4.0 * (math.log(2.0) + 1.0), rel=1e-12)
    # the base is evaluated before the exponent, so the base's domain error surfaces
    with pytest.raises(ExpressionError, match="fractional power of a non-positive base"):
        parse_generator("((x - 5)^0.5)^ln(x - 7)").eval(4.0)


def test_negative_integer_power():
    g = parse_generator("x^-2")
    assert g.eval(2.0) == pytest.approx(0.25, rel=1e-15)
    assert g.deriv1(2.0) == pytest.approx(-0.25, rel=1e-13)


def test_caret_and_double_star_are_equivalent():
    a = parse_generator("x^3 + 1")
    b = parse_generator("x**3 + 1")
    xs = np.linspace(-2, 2, 7)
    assert np.array_equal(a.eval(xs), b.eval(xs))
    # a unary plus keeps a literal exponent literal: x^+2 is x^2, not exp(2 ln x)
    plus, bare = parse_generator("x^+2"), parse_generator("x^2")
    for order in ("eval", "deriv1", "deriv2", "deriv3"):
        assert np.array_equal(getattr(plus, order)(xs), getattr(bare, order)(xs))


def test_scale_hint_and_label_pass_through():
    g = parse_generator("x", scale_hint=2.5)
    assert g.scale_hint == 2.5
    assert g.label == "x"


def test_scalar_in_scalar_out():
    g = parse_generator("x^2")
    out = g.eval(1.5)
    assert np.ndim(out) == 0
    assert float(out) == 2.25


@pytest.mark.parametrize("bad,fragment", [
    ("y + 1", "unknown symbol"),
    ("__import__('os')", "unknown"),
    ("sin(x, 2)", "exactly one argument"),
    ("x @ x", "unsupported"),
    ("x +", "could not parse"),
    ("x^65", "exceeds the cap"),
    ("[1, 2]", "unsupported"),
    ("'abc'", "unsupported literal"),
    ("x + True", "unsupported literal"),
    ("x^False", "unsupported literal"),
    ("x % 2", r"unsupported syntax \(BinOp\)"),
    ("x // 2", r"unsupported syntax \(BinOp\)"),
    ("~x", r"unsupported syntax \(UnaryOp\)"),
    ("x < 1", r"unsupported syntax \(Compare\)"),
    ("x if x else 1", r"unsupported syntax \(IfExp\)"),
    ("x[0]", r"unsupported syntax \(Subscript\)"),
    ("sin.real", r"unsupported syntax \(Attribute\)"),
    ("(lambda: x)()", "unknown function"),
    ("y^65", "exceeds the cap"),  # the cap is checked before the operands
    ("x^+65", "exceeds the cap"),
    ("ln(y)", "unknown symbol"),
])
def test_rejected_expressions(bad, fragment):
    with pytest.raises(ExpressionError, match=fragment):
        parse_generator(bad)


def test_domain_errors_surface_at_evaluation():
    g = parse_generator("ln(x)")
    assert g.eval(math.e) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ExpressionError, match="non-positive"):
        g.eval(-1.0)


class TestJetAlgebra:
    def test_division_inverts_multiplication(self):
        x = Jet.variable(0.7, 3)
        num = x * x + Jet([1.0])
        back = (num * x) / x
        assert len(back.c) == len(num.c) == 4
        for a, b in zip(back.c, num.c):
            assert a == pytest.approx(b, rel=1e-13, abs=1e-13)

    def test_int_power_matches_repeated_product(self):
        x = Jet.variable(1.3, 3)
        cube = x.int_power(3)
        manual = x * x * x
        assert [float(v) for v in cube.c] == [float(v) for v in manual.c]

    def test_zeroth_power_is_one(self):
        x = Jet.variable(2.0, 3)
        unit = x.int_power(0)
        # An order-zero jet: every coefficient after the value reads as zero.
        assert [float(v) for v in unit.c] == [1.0]
        assert [float(v) for v in (unit * x).c] == [float(v) for v in x.c]
        assert float(parse_generator("x^0").deriv1(2.0)) == 0.0


EVERY_FUNCTION = ("sin(x) + cos(x)*sinh(x/2) - cosh(x)/(2 + tanh(x)) + exp(-x^2)"
                  " + ln(1 + x^2) + (2 + sin(x))^0.5 + (1 + x^2)^x + x^-2")


def test_each_field_walks_only_to_its_own_order(monkeypatch):
    lengths = []
    init = Jet.__init__

    def recording(self, c):
        lengths.append(len(c))
        init(self, c)

    monkeypatch.setattr(Jet, "__init__", recording)
    g = parse_generator(EVERY_FUNCTION)
    longest = []
    for field in (g.eval, g.deriv1, g.deriv2, g.deriv3):
        lengths.clear()
        assert np.all(np.isfinite(field(np.linspace(0.2, 1.4, 5))))
        longest.append(max(lengths))
    assert longest == [1, 2, 3, 4]


def random_trees():
    """Expression strings over the whole grammar, kept inside every domain.

    ln and fractional or negative powers see arguments >= 1, divisors are
    2 + cos(...), and general exponents are tanh(...).
    """
    def grow(sub):
        pair = st.tuples(sub, sub)
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            pair.map(lambda t: f"({t[0]})/(2 + cos({t[1]}))"),
            st.tuples(sub, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(sub, st.sampled_from(["-3", "-1", "0.5", "-0.5", "1.5"])).map(
                lambda t: f"(2 + sin({t[0]}))^{t[1]}"),
            pair.map(lambda t: f"(1 + ({t[0]})^2)^tanh({t[1]})"),
            sub.map(lambda a: f"ln(1 + ({a})^2)"),
            *(sub.map(lambda a, name=name: f"{name}({a})")
              for name in ("sin", "cos", "sinh", "cosh", "tanh", "exp")),
        )
    return st.recursive(st.sampled_from(["x", "(x - 0.5)", "1.25*x", "pi"]), grow,
                        max_leaves=3)


ORACLE_POINTS = np.array([-1.5, -0.4, 0.7, 1.5])


@settings(max_examples=50, deadline=None)
@given(random_trees())
def test_every_order_matches_symbolic_derivatives(text):
    """Each field agrees with sympy.diff of the same string, evaluated at 30 digits."""
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    x = sympy.Symbol("x")
    tower = [sympy.sympify(text.replace("^", "**"), locals={"x": x}, rational=True)]
    for _ in range(3):
        tower.append(sympy.diff(tower[-1], x))
    reference = sympy.lambdify(x, tower, "mpmath")
    with mpmath.workdps(30):
        want = np.array([[float(v) for v in reference(mpmath.mpf(float(p)))]
                         for p in ORACLE_POINTS]).T
    g = parse_generator(text)
    for k, field in enumerate((g.eval, g.deriv1, g.deriv2, g.deriv3)):
        err = np.abs(field(ORACLE_POINTS) - want[k])
        assert np.all(err <= 1e-9 * np.maximum(1.0, np.abs(want[k]))), (k, text)
