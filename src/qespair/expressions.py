"""Inline expression grammar for custom generators.

The grammar is a small arithmetic language over the variable ``x``:
numbers, ``pi``/``e``, the operators ``+ - * / ^``, parentheses, and the
functions sin, cos, sinh, cosh, tanh, exp, ln.  ``^`` is power.  Parsing
rides on the stdlib ``ast`` module (the grammar is a strict subset of Python
once ``^`` is rewritten to ``**``); every node is whitelisted, so nothing
outside the grammar evaluates.

Differentiation is forward-mode: expressions evaluate over truncated Taylor
jets (value and first three derivatives), so the resulting
GeneratorFunction carries analytic derivatives of the whole tree.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import ExpressionError
from .functions import GeneratorFunction

__all__ = ["Jet", "parse_generator"]

_MAX_INT_POWER = 64


class Jet:
    """Value and first three derivatives of a scalar function at a point.

    Components may be floats or numpy arrays; arithmetic follows the Leibniz
    and Faa di Bruno rules truncated at order three.
    """

    __slots__ = ("f0", "f1", "f2", "f3")

    def __init__(self, f0, f1=0.0, f2=0.0, f3=0.0):
        self.f0, self.f1, self.f2, self.f3 = f0, f1, f2, f3

    @classmethod
    def variable(cls, x):
        x = np.asarray(x, dtype=float)
        return cls(x, np.ones_like(x), np.zeros_like(x), np.zeros_like(x))

    @classmethod
    def constant(cls, c):
        return cls(float(c))

    # -- ring operations ----------------------------------------------------

    def __add__(self, g):
        return Jet(self.f0 + g.f0, self.f1 + g.f1, self.f2 + g.f2, self.f3 + g.f3)

    def __sub__(self, g):
        return Jet(self.f0 - g.f0, self.f1 - g.f1, self.f2 - g.f2, self.f3 - g.f3)

    def __neg__(self):
        return Jet(-self.f0, -self.f1, -self.f2, -self.f3)

    def __mul__(self, g):
        f = self
        return Jet(
            f.f0 * g.f0,
            f.f1 * g.f0 + f.f0 * g.f1,
            f.f2 * g.f0 + 2.0 * f.f1 * g.f1 + f.f0 * g.f2,
            f.f3 * g.f0 + 3.0 * f.f2 * g.f1 + 3.0 * f.f1 * g.f2 + f.f0 * g.f3,
        )

    def __truediv__(self, g):
        # Solve f = q*g order by order.
        q0 = self.f0 / g.f0
        q1 = (self.f1 - q0 * g.f1) / g.f0
        q2 = (self.f2 - 2.0 * q1 * g.f1 - q0 * g.f2) / g.f0
        q3 = (self.f3 - 3.0 * q2 * g.f1 - 3.0 * q1 * g.f2 - q0 * g.f3) / g.f0
        return Jet(q0, q1, q2, q3)

    # -- composition --------------------------------------------------------

    def chain(self, u0, u1, u2, u3):
        """Compose with an outer function given its derivatives at f0."""
        g1, g2, g3 = self.f1, self.f2, self.f3
        return Jet(
            u0,
            u1 * g1,
            u2 * g1 * g1 + u1 * g2,
            u3 * g1 ** 3 + 3.0 * u2 * g1 * g2 + u1 * g3,
        )

    def int_power(self, n: int):
        if n == 0:
            return Jet(np.ones_like(np.asarray(self.f0, dtype=float)))
        if n < 0:
            return Jet.constant(1.0) / self.int_power(-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def float_power(self, c: float):
        base = np.asarray(self.f0, dtype=float)
        if np.any(base <= 0):
            raise ExpressionError("fractional power of a non-positive base")
        return self.chain(base ** c, c * base ** (c - 1.0),
                          c * (c - 1.0) * base ** (c - 2.0),
                          c * (c - 1.0) * (c - 2.0) * base ** (c - 3.0))


def _fn_sin(g):
    s, c = np.sin(g.f0), np.cos(g.f0)
    return g.chain(s, c, -s, -c)


def _fn_cos(g):
    s, c = np.sin(g.f0), np.cos(g.f0)
    return g.chain(c, -s, -c, s)


def _fn_sinh(g):
    s, c = np.sinh(g.f0), np.cosh(g.f0)
    return g.chain(s, c, s, c)


def _fn_cosh(g):
    s, c = np.sinh(g.f0), np.cosh(g.f0)
    return g.chain(c, s, c, s)


def _fn_tanh(g):
    t = np.tanh(g.f0)
    u1 = 1.0 - t * t
    u2 = -2.0 * t * u1
    u3 = (6.0 * t * t - 2.0) * u1
    return g.chain(t, u1, u2, u3)


def _fn_exp(g):
    e = np.exp(g.f0)
    return g.chain(e, e, e, e)


def _fn_ln(g):
    v = np.asarray(g.f0, dtype=float)
    if np.any(v <= 0):
        raise ExpressionError("ln of a non-positive argument")
    return g.chain(np.log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)


_FUNCTIONS = {
    "sin": _fn_sin,
    "cos": _fn_cos,
    "sinh": _fn_sinh,
    "cosh": _fn_cosh,
    "tanh": _fn_tanh,
    "exp": _fn_exp,
    "ln": _fn_ln,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


def _literal_number(node):
    """Float value of a Constant or negated Constant node, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)):
        inner = _literal_number(node.operand)
        return None if inner is None else -inner
    return None


def _compile(text: str) -> ast.expr:
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"could not parse expression {text!r}: {exc.msg}") from exc
    _check(tree.body, text)
    return tree.body


def _check(node: ast.expr, text: str):
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"unsupported literal {node.value!r} in {text!r}")
        return
    if isinstance(node, ast.Name):
        if node.id != "x" and node.id not in _CONSTANTS:
            raise ExpressionError(f"unknown symbol {node.id!r} in {text!r}")
        return
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _check(node.operand, text)
        return
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult,
                                                            ast.Div, ast.Pow)):
        if isinstance(node.op, ast.Pow):
            exponent = _literal_number(node.right)
            if (exponent is not None and float(exponent).is_integer()
                    and abs(exponent) > _MAX_INT_POWER):
                raise ExpressionError(
                    f"integer exponent {int(exponent)} exceeds the cap of {_MAX_INT_POWER}")
        _check(node.left, text)
        _check(node.right, text)
        return
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError(f"unknown function in {text!r}")
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError(f"functions take exactly one argument in {text!r}")
        _check(node.args[0], text)
        return
    raise ExpressionError(f"unsupported syntax ({type(node).__name__}) in {text!r}")


def _eval_node(node: ast.expr, var: Jet) -> Jet:
    if isinstance(node, ast.Constant):
        return Jet.constant(node.value)
    if isinstance(node, ast.Name):
        return var if node.id == "x" else Jet.constant(_CONSTANTS[node.id])
    if isinstance(node, ast.UnaryOp):
        inner = _eval_node(node.operand, var)
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Call):
        return _FUNCTIONS[node.func.id](_eval_node(node.args[0], var))
    # BinOp is all that remains after _check.
    left = _eval_node(node.left, var)
    if isinstance(node.op, ast.Pow):
        exponent = _literal_number(node.right)
        if exponent is not None:
            if float(exponent).is_integer():
                return left.int_power(int(exponent))
            return left.float_power(exponent)
        right = _eval_node(node.right, var)
        return _fn_exp(right * _fn_ln(left))
    right = _eval_node(node.right, var)
    if isinstance(node.op, ast.Add):
        return left + right
    if isinstance(node.op, ast.Sub):
        return left - right
    if isinstance(node.op, ast.Mult):
        return left * right
    return left / right


def parse_generator(text: str, scale_hint: float = 1.0, label: str = "") -> GeneratorFunction:
    """Compile an expression in x into a GeneratorFunction.

    Derivatives up to order three come from evaluating the tree over jets,
    so they are exact (to roundoff) wherever the expression is defined.
    """
    tree = _compile(text)

    def jet_at(x) -> Jet:
        return _eval_node(tree, Jet.variable(x))

    def broadcast(component):
        def call(x):
            x = np.asarray(x, dtype=float)
            out = component(jet_at(x))
            return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy() \
                if np.ndim(out) == 0 and x.ndim > 0 else out
        return call

    return GeneratorFunction(
        broadcast(lambda j: j.f0),
        broadcast(lambda j: j.f1),
        broadcast(lambda j: j.f2),
        broadcast(lambda j: j.f3),
        float(scale_hint),
        label or text,
    )
