"""Scalar real functions with analytic derivatives, and cumulative quadrature.

Everything downstream consumes functions through two small types:

* :class:`GeneratorFunction` bundles a callable with its first three analytic
  derivatives and a characteristic length scale.  Callables must accept either
  a float or a numpy array and act elementwise.  Seeds supply exact
  derivatives: Horner for polynomials, closed forms for sinh, Taylor
  recurrences for parsed expressions.  The one central difference is the
  third derivative of the W_plus seed that cross_check_constructions builds.
* :class:`CumulativeIntegral` is a primitive of an integrand, anchored so that
  the value at ``base_point`` is exactly zero.  A fill keeps only the leaves of
  its adaptive split, each with its primitive and its start value (a running
  sum of leaf integrals), so repeated queries only pay for new territory.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteIntegrandError, ParameterError, QueryRangeError

__all__ = [
    "GeneratorFunction",
    "CumulativeIntegral",
    "cumulative_integral",
]

_log = logging.getLogger(__name__)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Absolute tolerance of each panel's adaptive split.
_ABS_TOL = 1e-10

# Panel subdivision stops here even if the tolerance is still unmet; combined
# with the machine-relative floor below this keeps huge integrands terminating.
_MAX_SPLIT_DEPTH = 12
_REL_FLOOR = 4.0 * np.finfo(float).eps

# Intervals per integrand call, which holds 16 abscissae per interval and the
# integrand's temporaries.  Benchmark peak RSS over a per-panel walk: +8.7% at
# 2048, +5.2% at 1024, +2.2% at 256; 64 saved <1% and ran parsed seeds 1.6x slower.
_MAX_INTERVALS = 256
# A query farther out is refused: a fill keeps at least two leaves of 21
# floats per panel it spans (22 MB per side at this cap), and auto_grid's
# widest box spans 400.
_MAX_PANELS = 2 ** 16


@dataclass(frozen=True)
class GeneratorFunction:
    """A smooth real function of one variable with analytic derivatives.

    ``eval`` and ``deriv1``..``deriv3`` take a float or ndarray and return the
    same shape.  ``scale_hint`` is the characteristic length over which the
    function varies; probe grids, quadrature panels and finite-difference
    steps are all expressed in units of it.
    """

    eval: Callable
    deriv1: Callable
    deriv2: Callable
    deriv3: Callable
    scale_hint: float = 1.0
    label: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.scale_hint) and self.scale_hint > 0):
            raise ParameterError("scale_hint must be a positive finite number")


def _sample_finite(fn: Callable, points: np.ndarray, where: str, *names: str):
    """fn on points, for every model quantity read on a point set; a
    QueryRangeError "<name> is not finite on <where>" for the first that is not.
    With one name fn returns one array and one array comes back; with several
    fn returns one sample per name (as QesModel.states does) and a list does.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        samples = fn(points)
    samples = [np.asarray(v, dtype=float) for v in (samples if len(names) > 1 else [samples])]
    for values, name in zip(samples, names):
        if not np.all(np.isfinite(values)):
            raise QueryRangeError(f"{name} is not finite on {where}")
    return samples if len(names) > 1 else samples[0]


def _sample_states(states: Callable, points: np.ndarray, where: str):
    """(psi0, psi1) = states(points) from the checked sampler; a state that is
    zero on every point, which no norm or peak can scale, is refused too."""
    samples = _sample_finite(states, points, where, "psi0", "psi1")
    for values, name in zip(samples, ("psi0", "psi1")):
        if not np.any(values):
            raise QueryRangeError(f"{name} is zero on every point of {where}")
    return samples


def _gl16(f, lo, hi):
    """16-point Gauss-Legendre integrals of f from lo[i] to hi[i], signed, and
    the integrand samples at each interval's nodes (one row per interval).

    Each row is reduced on its own, never by a matrix product, so its bits do
    not depend on which other rows share the call.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    sums = np.empty_like(lo)
    nodes = np.empty((lo.size, _GL_NODES.size))
    for start in range(0, lo.size, _MAX_INTERVALS):
        rows = slice(start, start + _MAX_INTERVALS)
        t = mid[rows, None] + half[rows, None] * _GL_NODES
        y = np.asarray(f(t), dtype=float)
        bad = ~np.isfinite(y)
        if bad.any():
            raise NonFiniteIntegrandError(
                f"integrand returned a non-finite value at x={float(t[bad][0])!r}")
        sums[rows] = half[rows] * (y * _GL_WEIGHTS).sum(axis=1)
        nodes[rows] = y
    return sums, nodes


def _primitive_rows():
    """P with half*(P[k] . y) the k-th Legendre coefficient, k = 0..16, of the
    primitive from u = -1 of the degree-15 interpolant through samples y at the
    16 Gauss nodes of an interval of half-width half.
    """
    vander = np.polynomial.legendre.legvander(_GL_NODES, 15).T
    interpolant = (np.arange(16) + 0.5)[:, None] * vander * _GL_WEIGHTS
    rows = np.zeros((17, 16))
    rows[0] = interpolant[0]  # the primitive of P_0 from -1 is P_0 + P_1
    for k in range(16):  # and of P_k, k >= 1, is (P_{k+1} - P_{k-1}) / (2k+1)
        rows[k + 1] += interpolant[k] / (2 * k + 1)
        if k:
            rows[k - 1] -= interpolant[k] / (2 * k + 1)
    return rows


_PRIMITIVE = _primitive_rows()
# Stored leaves use the monic basis Q_k = P_k / lead_k, whose Clenshaw step
# b_k = c_k + u b_{k+1} - G_{k+1} b_{k+2} takes one multiplication fewer.
_MONIC = np.array([[math.comb(2 * k, k) / 2 ** k] for k in range(len(_PRIMITIVE))])
_CLENSHAW_G = [k * k / (4 * k * k - 1) for k in range(len(_PRIMITIVE))]


def _primitives(nodes, half):
    """Legendre coefficients, one column per row of nodes, of the primitive of
    each row's 16-node interpolant over an interval of half-width half[i].

    Each coefficient is a row-by-row reduction, like _gl16's sums.
    """
    coef = np.empty((len(_PRIMITIVE), half.size))
    for order, weights in enumerate(_PRIMITIVE):
        coef[order] = half * (nodes * weights).sum(axis=1)
    return coef


def _integrate(f, lo, hi, tol, depth=0):
    """Leaves of the adaptive GL16 split of [lo[i], hi[i]], as (lo, hi,
    integral, coef): each leaf's ends, its signed integral and the Legendre
    coefficients of its primitive.

    Rows whose whole-interval and two half-interval rules disagree beyond the
    tolerance, or either of whose halves' primitives keeps a Legendre tail
    (its two highest coefficients) above it, are halved again, with half the
    tolerance.  The two halves of a row that is not halved again are leaves.
    """
    n = lo.size
    mid = 0.5 * (lo + hi)
    half_lo, half_hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    sums, nodes = _gl16(f, np.concatenate([lo, half_lo]), np.concatenate([hi, half_hi]))
    coarse, sums, nodes = sums[:n], sums[n:], nodes[n:]
    fine = sums[:n] + sums[n:]
    half = 0.5 * (half_hi - half_lo)
    coef = _primitives(nodes, half)
    tail = np.abs(coef[-2:]).sum(axis=0)
    rough = tail > np.maximum(tol, _REL_FLOOR * np.abs(half) * np.abs(nodes).max(axis=1))
    redo = ((np.abs(fine - coarse) > np.maximum(tol, _REL_FLOOR * np.abs(fine)))
            | rough[:n] | rough[n:])
    if depth == _MAX_SPLIT_DEPTH and redo.any():
        ends = np.concatenate([lo[redo], hi[redo]])
        _log.warning("cumulative integral: %d interval(s) in [%.6g, %.6g] miss the tolerance "
                     "after %d halvings", redo.sum(), ends.min(), ends.max(), depth)
        redo[:] = False
    redo = np.tile(redo, 2)  # a row's two halves are leaves together or halved together
    leaves = [(half_lo[~redo], half_hi[~redo], sums[~redo], coef[:, ~redo])]
    if redo.any():
        leaves.append(_integrate(f, half_lo[redo], half_hi[redo], 0.5 * tol, depth + 1))
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(*leaves))


@dataclass(frozen=True)
class _Side:
    """The first ``panels`` panels of one side of the base point, and the
    integral at their far edge, as leaves in walk order.

    Leaf i starts at side*key[i], where the integral is value[i], and spans
    mid[i] + half[i]*u for u in [-1, 1]; coef[:, i] are the monic Legendre
    coefficients in u of the integral from its start.
    """

    panels: int
    end: float
    key: np.ndarray
    value: np.ndarray
    mid: np.ndarray
    half: np.ndarray
    coef: np.ndarray

    def at(self, side: int, x: np.ndarray) -> np.ndarray:
        """The integral at points x inside the filled panels: a query on a
        leaf's start is its stored value, any other a Clenshaw sum added to it."""
        i = np.searchsorted(self.key, side * x, side="right") - 1
        u = (x - self.mid[i]) / self.half[i]
        coef = self.coef.take(i, axis=1)
        b1, b2 = coef[-1], 0.0
        for k in reversed(range(len(coef) - 1)):
            b = u * b1
            b += coef[k]
            b -= _CLENSHAW_G[k + 1] * b2
            b1, b2 = b, b1
        value = self.value[i]
        return np.where(side * x == self.key[i], value, value + b1)


class CumulativeIntegral:
    """Primitive of an integrand anchored at a base point.

    Calling it returns the integral from ``base_point`` to ``x`` (signed); a
    scalar query is a 0-d :meth:`eval_array` query, so it gets the same bits.
    The axis is tiled into panels of fixed width starting at the base point.
    Each side's panels are filled once, under a lock, by adaptive GL16; every
    leaf of the adaptive split keeps the primitive of its 16-node interpolant,
    so a query inside filled panels makes no integrand call.
    """

    def __init__(self, integrand, base_point, panel_width):
        if not (np.isfinite(panel_width) and panel_width > 0):
            raise ValueError("panel_width must be positive and finite")
        if not np.isfinite(base_point):
            raise ValueError("base_point must be finite")
        self.integrand = integrand
        self.base_point = float(base_point)
        self.panel_width = float(panel_width)
        empty = np.empty(0)
        self._sides = {side: _Side(0, 0.0, empty, empty, empty, empty, np.empty((len(_PRIMITIVE), 0)))
                       for side in (1, -1)}
        self._lock = threading.Lock()

    def _side(self, side: int, k: int) -> _Side:
        """The side's table grown to cover panels 0..k in walk order.

        A fill continues one sequential running sum of leaf integrals in walk
        order from the side's last edge, so no value's bits depend on how far
        or in how many steps the table was filled.
        """
        with self._lock:
            table = self._sides[side]
            if k >= table.panels:
                edges = self.base_point + side * np.arange(table.panels, k + 2) * self.panel_width
                lo, hi, integral, coef = _integrate(self.integrand, edges[:-1], edges[1:], _ABS_TOL)
                order = np.argsort(side * lo)
                lo, hi = lo[order], hi[order]
                values = np.cumsum(np.concatenate([[table.end], integral[order]]))
                table = _Side(
                    k + 1, values[-1],
                    np.concatenate([table.key, side * lo]),
                    np.concatenate([table.value, values[:-1]]),
                    np.concatenate([table.mid, 0.5 * (hi + lo)]),
                    np.concatenate([table.half, 0.5 * (hi - lo)]),
                    np.concatenate([table.coef, coef[:, order] * _MONIC], axis=1))
                self._sides[side] = table
        return table

    def eval_array(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        steps = (xs - self.base_point) / self.panel_width
        if not (np.abs(np.floor(steps)) <= _MAX_PANELS).all():
            raise QueryRangeError(f"query points must be finite and within {_MAX_PANELS} "
                                  f"panels of width {self.panel_width!r} of x={self.base_point!r}")
        flat, steps = xs.reshape(-1), steps.reshape(-1)
        out = np.empty_like(flat)
        for side in (1, -1):
            rows = np.flatnonzero(steps >= 0 if side == 1 else steps < 0)
            if rows.size:
                table = self._side(side, int(np.floor(side * steps[rows]).max()))
                # in blocks, so a query's temporaries stay bounded however many points it has
                for start in range(0, rows.size, _MAX_INTERVALS * _GL_NODES.size):
                    block = rows[start:start + _MAX_INTERVALS * _GL_NODES.size]
                    out[block] = table.at(side, flat[block])
        return out.reshape(xs.shape)

    def __call__(self, x):
        out = self.eval_array(x)
        return float(out) if out.ndim == 0 else out


def cumulative_integral(integrand, base_point, *, scale_hint=1.0) -> CumulativeIntegral:
    """Anchor a memoizing primitive of ``integrand`` at ``base_point``.

    Panels are scale_hint/8 wide, narrow enough that one GL16 rule per panel
    resolves anything smooth on that scale.
    """
    return CumulativeIntegral(integrand, base_point, float(scale_hint) / 8.0)
