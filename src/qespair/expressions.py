"""Inline expression grammar for custom generators.

The grammar is a small arithmetic language over the variable ``x``:
numbers, ``pi``/``e``, the operators ``+ - * / ^``, parentheses, and the
functions sin, cos, sinh, cosh, tanh, exp, ln.  ``^`` is power.  Parsing
rides on the stdlib ``ast`` module (the grammar is a strict subset of Python
once ``^`` is rewritten to ``**``).  The tree is then checked and lowered
once, in one recursive pass: a node outside the grammar is refused, and
every other node becomes a closure from the variable's jet to its own.

Differentiation is forward-mode over truncated Taylor series: a jet holds
the coefficients c[k] = f^(k)(x)/k!, and every operation fills them in one
order at a time by a recurrence (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13).  An elementary function is given only by
its value and its first-derivative rule.  Each field of the resulting
GeneratorFunction calls that one evaluator on a jet of its own order:
``eval`` on order 0, ``deriv1`` on order 1, and so on up to ``deriv3``.
"""

from __future__ import annotations

import ast
import math
import operator

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


def _elementary(name: str):
    """The Jet -> Jet map of a function in _FUNCTIONS."""
    value, rate = _FUNCTIONS[name]
    return lambda g: g.compose(value(g.c[0]), rate)


_EXP, _LN = _elementary("exp"), _elementary("ln")
_CONSTANTS = {"pi": math.pi, "e": math.e}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _literal_number(node):
    """Float value of a Constant node under any unary signs, else None."""
    if isinstance(node, ast.Constant) and _is_number(node.value):
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _literal_number(node.operand)
        return inner if inner is None or isinstance(node.op, ast.UAdd) else -inner
    return None


# A power whose exponent is not a literal number is exp(p ln(base)).
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: lambda base, p: _EXP(p * _LN(base))}


def _lower(node: ast.expr, text: str):
    """The evaluator of node, a map from the variable's jet to the node's jet.

    Refuses, with an ExpressionError, any node outside the grammar; the
    checks run in tree order, and a power's exponent cap before its operands.
    """
    if isinstance(node, ast.Constant) and not _is_number(node.value):
        raise ExpressionError(f"unsupported literal {node.value!r} in {text!r}")
    if isinstance(node, ast.Name) and node.id == "x":
        return lambda var: var
    if isinstance(node, ast.Name) and node.id not in _CONSTANTS:
        raise ExpressionError(f"unknown symbol {node.id!r} in {text!r}")
    if isinstance(node, (ast.Constant, ast.Name)):
        const = Jet([float(node.value) if isinstance(node, ast.Constant) else _CONSTANTS[node.id]])
        return lambda var: const
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        inner = _lower(node.operand, text)
        return (lambda var: -inner(var)) if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        exponent = _literal_number(node.right) if isinstance(node.op, ast.Pow) else None
        if exponent is not None and exponent.is_integer() and abs(exponent) > _MAX_INT_POWER:
            raise ExpressionError(
                f"integer exponent {int(exponent)} exceeds the cap of {_MAX_INT_POWER}")
        left, right = _lower(node.left, text), _lower(node.right, text)
        if exponent is None:
            op = _BINARY[type(node.op)]
            return lambda var: op(left(var), right(var))
        if exponent.is_integer():
            n = int(exponent)
            return lambda var: left(var).int_power(n)
        return lambda var: left(var).float_power(exponent)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError(f"unknown function in {text!r}")
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError(f"functions take exactly one argument in {text!r}")
        f, arg = _elementary(node.func.id), _lower(node.args[0], text)
        return lambda var: f(arg(var))
    raise ExpressionError(f"unsupported syntax ({type(node).__name__}) in {text!r}")


def parse_generator(text: str, scale_hint: float = 1.0) -> GeneratorFunction:
    """Compile an expression in x into a GeneratorFunction.

    Derivative k comes from evaluating the lowered tree over jets of order k,
    so it is exact (to roundoff) wherever the expression is defined.  The
    text itself is the generator's label.
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"could not parse expression {text!r}: {exc.msg}") from exc
    evaluate = _lower(tree.body, text)

    def order(k: int):
        def field(x):
            x = np.asarray(x, dtype=float)
            c = evaluate(Jet.variable(x, k)).c
            out = c[k] if k < len(c) else 0.0
            out = out * math.factorial(k) if k > 1 else out
            return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy() \
                if np.ndim(out) == 0 and x.ndim > 0 else out
        return field

    return GeneratorFunction(order(0), order(1), order(2), order(3), float(scale_hint), text)
