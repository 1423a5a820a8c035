"""Inline expression grammar for custom generators.

The grammar is a small arithmetic language over the variable ``x``:
numbers, ``pi``/``e``, the operators ``+ - * / ^``, parentheses, and the
functions sin, cos, sinh, cosh, tanh, exp, ln.  ``^`` is power.  Parsing
rides on the stdlib ``ast`` module (the grammar is a strict subset of Python
once ``^`` is rewritten to ``**``); every node is whitelisted, so nothing
outside the grammar evaluates.

Differentiation is forward-mode over truncated Taylor series: a jet holds
the coefficients c[k] = f^(k)(x)/k!, and every operation fills them in one
order at a time by a recurrence (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13).  An elementary function is given only by
its value and its first-derivative rule.  Each field of the resulting
GeneratorFunction walks the tree to its own order: ``eval`` over plain
values, ``deriv1`` over first-order jets, and so on up to ``deriv3``.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import ExpressionError
from .functions import GeneratorFunction

__all__ = ["Jet", "parse_generator"]

_MAX_INT_POWER = 64


def _conv(a, b, k):
    """Coefficient k of the product of two coefficient lists (missing ones are zero)."""
    lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
    out = a[lo] * b[k - lo]
    for j in range(lo + 1, hi + 1):
        out = out + a[j] * b[k - j]
    return out


def _quotient(num, q, den):
    """Next coefficient of q = n/den, from coefficient len(q) of n and q's earlier ones."""
    m = len(q)
    for j in range(max(0, m - len(den) + 1), m):
        num = num - q[j] * den[m - j]
    return num / den[0]


def _step(u, r, k):
    """Coefficient k >= 1 of v where v' = r u': k v_k = sum_{j=1..k} j u_j r_{k-j}."""
    out = u[1] * r[k - 1]
    for j in range(2, k + 1):
        out = out + j * u[j] * r[k - j]
    return out if k == 1 else out / k


class Jet:
    """Taylor coefficients c[k] = f^(k)(x)/k! of a scalar function at x.

    Coefficients may be floats or numpy arrays.  A constant is a jet of
    order zero: operations read the coefficients a jet lacks as zero.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    @classmethod
    def variable(cls, x, order: int):
        return cls(([np.asarray(x, dtype=float), 1.0] + [0.0] * order)[:order + 1])

    def __add__(self, g):
        a, b = self.c, g.c
        n = min(len(a), len(b))
        return Jet([p + q for p, q in zip(a, b)] + a[n:] + b[n:])

    def __sub__(self, g):
        a, b = self.c, g.c
        n = min(len(a), len(b))
        return Jet([p - q for p, q in zip(a, b)] + a[n:] + [-q for q in b[n:]])

    def __neg__(self):
        return Jet([-p for p in self.c])

    def __mul__(self, g):
        return Jet([_conv(self.c, g.c, k) for k in range(max(len(self.c), len(g.c)))])

    def __truediv__(self, g):
        # Solve self = q * g one order at a time.
        a, q = self.c, []
        for k in range(max(len(a), len(g.c))):
            q.append(_quotient(a[k] if k < len(a) else 0.0, q, g.c))
        return Jet(q)

    def compose(self, value, rate):
        """f(self) from its value f(c[0]) and its first-derivative rule.

        Matching coefficients of v' = f'(u) u' gives each v_k from the
        coefficients r_0..r_{k-1} of f'(u); rate(u, v, r) returns the next
        one, r_m with m = len(r), from v_0..v_m and r_0..r_{m-1}.
        """
        u, v, r = self.c, [value], []
        for k in range(1, len(u)):
            r.append(rate(u, v, r))
            v.append(_step(u, r, k))
        return Jet(v)

    def int_power(self, n: int):
        if n == 0:
            return Jet([np.ones_like(np.asarray(self.c[0], dtype=float))])
        if n < 0:
            return Jet([1.0]) / self.int_power(-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def float_power(self, p: float):
        # (u^p)' = p u^p u'/u, so r = f'(u) solves r u = p v.
        base = np.asarray(self.c[0], dtype=float)
        if np.any(base <= 0):
            raise ExpressionError("fractional power of a non-positive base")
        return self.compose(base ** p, lambda u, v, r: _quotient(p * v[len(r)], r, u))


def _log(u0):
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 <= 0):
        raise ExpressionError("ln of a non-positive argument")
    return np.log(u0)


def _swing(slope, sign):
    """Rate of f with f' = g and g' = sign*f (sin/cos, sinh/cosh): r_0 = g(u_0)."""
    return lambda u, v, r: sign * _step(u, v, len(r)) if r else slope(u[0])


# name -> (value, first-derivative rule as a Jet.compose rate)
_FUNCTIONS = {
    "sin": (np.sin, _swing(np.cos, -1.0)),
    "cos": (np.cos, _swing(lambda t: -np.sin(t), -1.0)),
    "sinh": (np.sinh, _swing(np.cosh, 1.0)),
    "cosh": (np.cosh, _swing(np.sinh, 1.0)),
    "tanh": (np.tanh, lambda u, v, r: (0.0 if r else 1.0) - _conv(v, v, len(r))),
    "exp": (np.exp, lambda u, v, r: v[len(r)]),
    "ln": (_log, lambda u, v, r: _quotient(0.0 if r else 1.0, r, u)),
}


def _apply(name: str, g: Jet) -> Jet:
    value, rate = _FUNCTIONS[name]
    return g.compose(value(g.c[0]), rate)


_CONSTANTS = {"pi": math.pi, "e": math.e}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _literal_number(node):
    """Float value of a Constant or negated Constant node, else None."""
    if isinstance(node, ast.Constant) and _is_number(node.value):
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
        if not _is_number(node.value):
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
        return Jet([float(node.value)])
    if isinstance(node, ast.Name):
        return var if node.id == "x" else Jet([_CONSTANTS[node.id]])
    if isinstance(node, ast.UnaryOp):
        inner = _eval_node(node.operand, var)
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Call):
        return _apply(node.func.id, _eval_node(node.args[0], var))
    # BinOp is all that remains after _check.
    left = _eval_node(node.left, var)
    if isinstance(node.op, ast.Pow):
        exponent = _literal_number(node.right)
        if exponent is not None:
            if float(exponent).is_integer():
                return left.int_power(int(exponent))
            return left.float_power(exponent)
        right = _eval_node(node.right, var)
        return _apply("exp", right * _apply("ln", left))
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

    Derivative k comes from walking the tree over jets of order k, so it is
    exact (to roundoff) wherever the expression is defined.
    """
    tree = _compile(text)

    def order(k: int):
        def field(x):
            x = np.asarray(x, dtype=float)
            c = _eval_node(tree, Jet.variable(x, k)).c
            out = c[k] if k < len(c) else 0.0
            out = out * math.factorial(k) if k > 1 else out
            return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy() \
                if np.ndim(out) == 0 and x.ndim > 0 else out
        return field

    return GeneratorFunction(order(0), order(1), order(2), order(3),
                             float(scale_hint), label or text)
