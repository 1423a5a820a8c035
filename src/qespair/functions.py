"""Scalar real functions with analytic derivatives, and cumulative quadrature.

Everything downstream consumes functions through two small types:

* :class:`GeneratorFunction` bundles a callable with its first three analytic
  derivatives and a characteristic length scale.  Callables take a numpy
  array and act elementwise; a single point is a 1-element array.  Seeds supply exact
  derivatives: Horner for polynomials, closed forms for sinh, Taylor
  recurrences for parsed expressions.
* :class:`CumulativeIntegral` is a primitive of an integrand, zero at
  ``base_point``, on panels one scale hint wide.  A fill keeps only the leaves
  of its adaptive split, each with its primitive as a power series and its start
  value (a running sum of leaf integrals), so repeated queries only pay for new
  territory and read a leaf by Horner's rule.
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

# Panel subdivision stops here even if the tolerance is still unmet, at leaves
# scale_hint/2**16 wide; with the machine-relative floor below this keeps huge
# integrands terminating.
_MAX_SPLIT_DEPTH = 15
_REL_FLOOR = 4.0 * np.finfo(float).eps

# Intervals per integrand call, which holds 16 abscissae per interval and the
# integrand's temporaries.  Benchmark peak RSS over a per-panel walk: +8.7% at
# 2048, +5.2% at 1024, +2.2% at 256; 64 saved <1% and ran parsed seeds 1.6x slower.
_MAX_INTERVALS = 256
# A query farther out is refused: a fill keeps at least two leaves of 21
# floats per panel it spans (2.8 MB per side at this cap), and auto_grid's
# widest box spans 50.
_MAX_PANELS = 2 ** 13


@dataclass(frozen=True)
class GeneratorFunction:
    """A smooth real function of one variable with analytic derivatives.

    ``eval`` and ``deriv1``..``deriv3`` take an ndarray and return one of
    the same shape.  ``scale_hint`` is the characteristic length over which the
    function varies; probe grids and quadrature panels are expressed in
    units of it.
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
        if not math.isfinite(100.0 * float(self.scale_hint)):  # auto_grid's widest box
            raise ParameterError(f"scale_hint {self.scale_hint!r} is too large: "
                                 f"100 scale hints overflow")


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


def _power_rows():
    """T with T[j] . c the coefficient of u**j, j = 0..16, in the Legendre series c.

    Column k holds P_k's power-series coefficients; divided by P_k's leading
    one, each column's absolute values sum to at most 18.73, so a leaf's change
    of basis is well conditioned.
    """
    rows = np.zeros((len(_PRIMITIVE), len(_PRIMITIVE)))
    for k, unit in enumerate(np.eye(len(_PRIMITIVE))):
        rows[:k + 1, k] = np.polynomial.legendre.leg2poly(unit)
    return rows


_PRIMITIVE = _primitive_rows()
_TO_POWER = _power_rows()


def _reduce_rows(rows, matrix):
    """out[i, j] = (rows[i] * matrix[j]).sum(), each its own row's reduction.

    One broadcast product per block of _MAX_INTERVALS rows, never a matrix
    product, so a row's bits do not depend on which other rows share the call
    and the temporary stays bounded.
    """
    out = np.empty((rows.shape[0], matrix.shape[0]))
    for start in range(0, rows.shape[0], _MAX_INTERVALS):
        block = slice(start, start + _MAX_INTERVALS)
        out[block] = (rows[block, None, :] * matrix).sum(axis=2)
    return out


def _primitives(nodes, half):
    """Legendre coefficients, one column per row of nodes, of the primitive of
    each row's 16-node interpolant over an interval of half-width half[i]:
    each still its own row's reduction of 16 products, like _gl16's sums.
    """
    return (half[:, None] * _reduce_rows(nodes, _PRIMITIVE)).T


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
    mid[i] + half[i]*u for u in [-1, 1]; coef[:, i] are the power-series
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
        leaf's start is its stored value, any other a Horner sum added to it."""
        i = np.searchsorted(self.key, side * x, side="right") - 1
        u = (x - self.mid[i]) / self.half[i]
        coef = self.coef.take(i, axis=1)
        b = coef[-1]
        for k in reversed(range(len(coef) - 1)):
            b *= u
            b += coef[k]
        value = self.value[i]
        return np.where(side * x == self.key[i], value, value + b)


class CumulativeIntegral:
    """Primitive of an integrand anchored at a base point.

    Calling it on an array returns the signed integral from ``base_point`` to
    each point, as an array of the same shape.  Panels scale_hint wide tile
    the axis from the base point; each side's are filled once, under a lock,
    by adaptive GL16, and every leaf keeps the primitive of its 16-node
    interpolant as 17 power-series coefficients, so a query inside filled
    panels makes no integrand call and reads its leaf by Horner's rule.
    """

    def __init__(self, integrand, base_point, scale_hint=1.0):
        if not (np.isfinite(scale_hint) and scale_hint > 0):
            raise ValueError("scale_hint must be positive and finite")
        if not np.isfinite(base_point):
            raise ValueError("base_point must be finite")
        self.integrand = integrand
        self.base_point = float(base_point)
        self._width = float(scale_hint)
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
                edges = self.base_point + side * np.arange(table.panels, k + 2) * self._width
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
                    np.concatenate([table.coef, _reduce_rows(coef[:, order].T, _TO_POWER).T],
                                   axis=1))
                self._sides[side] = table
        return table

    def __call__(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        flat, out, base = xs.reshape(-1), np.empty(xs.size), self.base_point
        # each side's farthest point sets its fill and its refusal, before either side fills
        far = {1: float(flat.max()), -1: float(flat.min())} if flat.size else {}
        reach = {side: side * (x - base) / self._width for side, x in far.items()}
        if not all(r <= _MAX_PANELS for r in reach.values()):  # NaN, inf and overflow fail too
            raise QueryRangeError(f"query points must be finite and within {_MAX_PANELS} "
                                  f"panels of width {self._width!r} of x={base!r}")
        for side in (1, -1):
            rows = np.flatnonzero(flat >= base if side == 1 else flat < base)
            if rows.size:
                k = math.floor(reach[side])
                # the division can round below k + 1 on the edge product leaf k + 1 starts at
                k += bool(side * far[side] >= side * (base + side * (k + 1) * self._width))
                table = self._side(side, k)
                # in blocks, so a query's temporaries stay bounded however many points it has
                for start in range(0, rows.size, _MAX_INTERVALS * _GL_NODES.size):
                    block = rows[start:start + _MAX_INTERVALS * _GL_NODES.size]
                    out[block] = table.at(side, flat[block])
        return out.reshape(xs.shape)


def cumulative_integral(integrand, base_point, *, scale_hint=1.0) -> CumulativeIntegral:
    """Anchor a memoizing primitive of ``integrand`` at ``base_point``."""
    return CumulativeIntegral(integrand, base_point, scale_hint)
