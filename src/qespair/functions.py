"""Scalar real functions with analytic derivatives, and cumulative quadrature.

Everything downstream consumes functions through two small types:

* :class:`GeneratorFunction` bundles a callable with its first three analytic
  derivatives and a characteristic length scale.  Callables must accept either
  a float or a numpy array and act elementwise.
* :class:`CumulativeIntegral` is a primitive of an integrand, anchored so that
  the value at ``base_point`` is exactly zero.  Prefixes up to panel edges
  are memoized, so repeated queries only ever pay for new territory.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteIntegrandError, ParameterError, QueryRangeError

__all__ = [
    "GeneratorFunction",
    "CumulativeIntegral",
    "DerivativeDiagnostic",
    "make_analytic",
    "from_eval_only",
    "validate_derivatives",
    "cumulative_integral",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Panel subdivision stops here even if the tolerance is still unmet; combined
# with the machine-relative floor below this keeps huge integrands terminating.
_MAX_SPLIT_DEPTH = 12
_REL_FLOOR = 4.0 * np.finfo(float).eps

# Intervals per integrand call, which holds 16 abscissae per interval and the
# integrand's temporaries.  Benchmark peak RSS over a per-panel walk: +8.7% at
# 2048, +5.2% at 1024, +2.2% at 256; 64 saved <1% and ran parsed seeds 1.6x slower.
_MAX_INTERVALS = 256
# A query farther out is refused: a fill's memory grows with the panels it
# spans, and auto_grid's widest box spans 400.
_MAX_PANELS = 2 ** 20


@dataclass(frozen=True)
class GeneratorFunction:
    """A smooth real function of one variable with analytic derivatives.

    ``eval`` and ``deriv1``..``deriv3`` take a float or ndarray and return the
    same shape.  ``scale_hint`` is the characteristic length over which the
    function varies; probe grids, quadrature panels and finite-difference
    steps are all expressed in units of it.  ``numeric_derivatives`` marks
    instances whose derivatives were manufactured by finite differences rather
    than supplied analytically; reports surface the flag.
    """

    eval: Callable
    deriv1: Callable
    deriv2: Callable
    deriv3: Callable
    scale_hint: float = 1.0
    label: str = ""
    numeric_derivatives: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.scale_hint) and self.scale_hint > 0):
            raise ParameterError("scale_hint must be a positive finite number")

    def __call__(self, x):
        return self.eval(x)


def make_analytic(eval, deriv1, deriv2, deriv3, scale_hint=1.0, label=""):
    """Bundle a function and its three analytic derivatives."""
    return GeneratorFunction(eval, deriv1, deriv2, deriv3, float(scale_hint), label)


def from_eval_only(eval, scale_hint=1.0, label=""):
    """Build a GeneratorFunction whose derivatives are central differences.

    The fallback exists for callers that genuinely have no analytic
    derivatives.  Each order uses a step balancing truncation against
    rounding noise, which still leaves the third difference near 1e-6
    relative accuracy at best, so the result is flagged and reports carry
    the flag through.
    """
    s = float(scale_hint)
    h1, h2, h3 = s * 1e-5, s * 1e-4, s * 1.2e-3

    def d1(x):
        return (eval(x + h1) - eval(x - h1)) / (2.0 * h1)

    def d2(x):
        return (eval(x + h2) - 2.0 * eval(x) + eval(x - h2)) / (h2 * h2)

    def d3(x):
        return (eval(x + 2 * h3) - 2.0 * eval(x + h3)
                + 2.0 * eval(x - h3) - eval(x - 2 * h3)) / (2.0 * h3 ** 3)

    return GeneratorFunction(eval, d1, d2, d3, s, label, numeric_derivatives=True)


@dataclass(frozen=True)
class DerivativeDiagnostic:
    """One derivative-consistency violation found by validate_derivatives."""

    point: float
    order: int
    supplied: float
    estimate: float
    rel_error: float
    note: str = ""


def validate_derivatives(f: GeneratorFunction, sample_points, tolerance=1e-5):
    """Cross-check each derivative against differences of the one below it.

    deriv1 is compared with central differences of eval, deriv2 with central
    differences of deriv1, deriv3 with central differences of deriv2, all at
    step scale_hint*1e-4.  Returns a list of diagnostics for points where the
    relative discrepancy exceeds ``tolerance``; an empty list means the chain
    is consistent.  Relative error is measured against
    max(|supplied|, |estimate|, 1) so that near-zero derivatives are compared
    absolutely.
    """
    h = f.scale_hint * 1e-4
    chain = [(f.eval, f.deriv1, 1), (f.deriv1, f.deriv2, 2), (f.deriv2, f.deriv3, 3)]
    out = []
    for x in np.atleast_1d(np.asarray(sample_points, dtype=float)):
        for lower, supplied_fn, order in chain:
            supplied = float(supplied_fn(x))
            estimate = float((lower(x + h) - lower(x - h)) / (2.0 * h))
            if not (math.isfinite(supplied) and math.isfinite(estimate)):
                out.append(DerivativeDiagnostic(float(x), order, supplied, estimate,
                                                math.inf, note="non-finite value"))
                continue
            denom = max(abs(supplied), abs(estimate), 1.0)
            rel = abs(estimate - supplied) / denom
            if rel > tolerance:
                out.append(DerivativeDiagnostic(float(x), order, supplied, estimate, rel))
    return out


def _gl16(f, lo, hi):
    """16-point Gauss-Legendre integrals of f from lo[i] to hi[i], signed.

    Each row is reduced on its own, never by a matrix product, so its bits do
    not depend on which other rows share the call.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    sums = np.empty_like(lo)
    for start in range(0, lo.size, _MAX_INTERVALS):
        rows = slice(start, start + _MAX_INTERVALS)
        t = mid[rows, None] + half[rows, None] * _GL_NODES
        y = np.asarray(f(t), dtype=float)
        bad = ~np.isfinite(y)
        if bad.any():
            raise NonFiniteIntegrandError(
                f"integrand returned a non-finite value at x={float(t[bad][0])!r}")
        sums[rows] = half[rows] * (y * _GL_WEIGHTS).sum(axis=1)
    return sums


def _integrate(f, lo, hi, tol, depth=0):
    """Adaptive GL16 integrals of f from lo[i] to hi[i], signed.

    Rows whose whole-interval and two half-interval rules disagree beyond the
    tolerance are halved again, with half the tolerance.
    """
    mid = 0.5 * (lo + hi)
    coarse, left, right = np.split(
        _gl16(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi])), 3)
    fine = left + right
    redo = np.abs(fine - coarse) > np.maximum(tol, _REL_FLOOR * np.abs(fine))
    if depth < _MAX_SPLIT_DEPTH and redo.any():
        halves = _integrate(f, np.concatenate([lo[redo], mid[redo]]),
                            np.concatenate([mid[redo], hi[redo]]), 0.5 * tol, depth + 1)
        fine[redo] = np.add(*np.split(halves, 2))
    return fine


class CumulativeIntegral:
    """Primitive of an integrand anchored at a base point.

    Calling it returns the integral from ``base_point`` to ``x`` (signed); a
    scalar query is a 0-d :meth:`eval_array` query, so it gets the same bits.
    The axis is tiled into panels of fixed width starting at the base point;
    the prefixes up to panel edges are memoized per side under a lock, and a
    query adds the adaptive GL16 integral from its panel's left edge.
    """

    def __init__(self, integrand, base_point, panel_width, abs_tol=1e-10):
        if not (np.isfinite(panel_width) and panel_width > 0):
            raise ValueError("panel_width must be positive and finite")
        if not np.isfinite(base_point):
            raise ValueError("base_point must be finite")
        self.integrand = integrand
        self.base_point = float(base_point)
        self.panel_width = float(panel_width)
        self.abs_tol = float(abs_tol)
        self._prefixes = {1: np.zeros(1), -1: np.zeros(1)}
        self._lock = threading.Lock()

    def _prefixes_at(self, side: int, ks) -> np.ndarray:
        """Integrals up to base_point + side*k*panel_width, k = max(side*ks, 0).

        The side's table grows under the lock by a running sum from its last
        prefix, in walk order, so no prefix's bits depend on a query's reach.
        """
        ks = np.maximum(side * ks, 0).astype(np.int64)
        with self._lock:
            table = self._prefixes[side]
            if ks.max(initial=0) >= table.size:
                k = np.arange(table.size - 1, ks.max() + 1)
                edges = self.base_point + side * k * self.panel_width
                sums = _integrate(self.integrand, edges[:-1], edges[1:], self.abs_tol)
                table = np.concatenate([table[:-1], np.cumsum(np.concatenate([table[-1:], sums]))])
                self._prefixes[side] = table
        return table[ks]

    def eval_array(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ks = np.floor((xs - self.base_point) / self.panel_width)
        if not (np.abs(ks) <= _MAX_PANELS).all():
            raise QueryRangeError(f"query points must be finite and within {_MAX_PANELS} "
                                  f"panels of width {self.panel_width!r} of x={self.base_point!r}")
        out = np.where(ks >= 0, self._prefixes_at(1, ks), self._prefixes_at(-1, ks))
        # a query on its panel's left edge is that edge's prefix: no quadrature
        edges = self.base_point + ks * self.panel_width
        interior = xs != edges
        out[interior] += _integrate(self.integrand, edges[interior], xs[interior], self.abs_tol)
        return out

    def __call__(self, x):
        out = self.eval_array(x)
        return float(out) if out.ndim == 0 else out


def cumulative_integral(integrand, base_point, *, panel_width=None, abs_tol=1e-10,
                        scale_hint=1.0) -> CumulativeIntegral:
    """Anchor a memoizing primitive of ``integrand`` at ``base_point``.

    Panel width defaults to scale_hint/8, narrow enough that one GL16 rule
    per panel resolves anything smooth on that scale.
    """
    if panel_width is None:
        panel_width = float(scale_hint) / 8.0
    return CumulativeIntegral(integrand, base_point, panel_width, abs_tol)
