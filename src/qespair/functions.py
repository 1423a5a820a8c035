"""Scalar real functions with analytic derivatives, and cumulative quadrature.

Everything downstream consumes functions through two small types:

* :class:`GeneratorFunction` bundles a callable with its first three analytic
  derivatives and a characteristic length scale.  Callables must accept either
  a float or a numpy array and act elementwise.
* :class:`CumulativeIntegral` is a primitive of an integrand, anchored so that
  the value at ``base_point`` is exactly zero.  Whole panels are memoized, so
  repeated queries only ever pay for new territory.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteIntegrandError

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
            raise ValueError("scale_hint must be a positive finite number")

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
    """Fixed 16-point Gauss-Legendre quadrature of f over [lo, hi]."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    t = mid + half * _GL_NODES
    y = np.asarray(f(t), dtype=float)
    if not np.all(np.isfinite(y)):
        bad = float(t[~np.isfinite(np.atleast_1d(y))][0])
        raise NonFiniteIntegrandError(f"integrand returned a non-finite value at x={bad!r}")
    return half * float(np.dot(_GL_WEIGHTS, y))


def _adaptive(f, lo, hi, tol, depth=0):
    """GL16 with interval halving until coarse and refined sums agree."""
    coarse = _gl16(f, lo, hi)
    mid = 0.5 * (lo + hi)
    fine = _gl16(f, lo, mid) + _gl16(f, mid, hi)
    if abs(fine - coarse) <= max(tol, _REL_FLOOR * abs(fine)) or depth >= _MAX_SPLIT_DEPTH:
        return fine
    half_tol = 0.5 * tol
    return (_adaptive(f, lo, mid, half_tol, depth + 1)
            + _adaptive(f, mid, hi, half_tol, depth + 1))


class CumulativeIntegral:
    """Primitive of an integrand anchored at a base point.

    Calling it returns the integral from ``base_point`` to ``x`` (signed); a
    scalar query is a 0-d :meth:`eval_array` query, so it gets the same bits.
    The axis is tiled into panels of fixed width starting at the base point;
    completed panel sums and their running prefixes are memoized under a lock,
    so concurrent evaluation is safe and repeated queries are cheap.  Each
    panel is integrated by 16-point Gauss-Legendre with one halving check and
    recursive subdivision until the per-panel absolute tolerance is met.
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
        self._panel_sums: dict[int, float] = {}
        self._prefixes: dict[int, float] = {0: 0.0}
        self._lock = threading.Lock()

    # -- panel bookkeeping -------------------------------------------------

    def _panel_edges(self, k: int):
        b, w = self.base_point, self.panel_width
        return b + k * w, b + (k + 1) * w

    def _panel(self, k: int) -> float:
        with self._lock:
            hit = self._panel_sums.get(k)
        if hit is not None:
            return hit
        lo, hi = self._panel_edges(k)
        value = _adaptive(self.integrand, lo, hi, self.abs_tol)
        with self._lock:
            self._panel_sums.setdefault(k, value)
            return self._panel_sums[k]

    def _prefix(self, k: int) -> float:
        """Signed integral from base_point to the left edge of panel k.

        Walks from the nearest cached prefix towards k one panel at a time, in
        the same order on every walk, so a prefix's bits do not depend on how
        it was first reached.
        """
        step = 1 if k > 0 else -1
        with self._lock:
            j = k
            while j not in self._prefixes:
                j -= step
            value = self._prefixes[j]
        for i in range(j, k, step):
            # panel min(i, i + step) lies between the prefixes at i and i + step
            value = value + step * self._panel(min(i, i + step))
            with self._lock:
                value = self._prefixes.setdefault(i + step, value)
        return value

    # -- evaluation ---------------------------------------------------------

    def eval_array(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        if not np.isfinite(flat).all():
            raise ValueError("query point must be finite")
        out = np.empty_like(flat)
        ks = np.floor((flat - self.base_point) / self.panel_width).astype(int)
        panels, which = np.unique(ks, return_inverse=True)
        # Queries on a panel's left edge are its prefix: a panel with no other
        # queries skips the quadrature.  A batch with interior points goes
        # whole, because dropping rows can change the other rows' rounding.
        interior = np.bincount(which, flat != self.base_point + ks * self.panel_width)
        for k, n_interior in zip(panels.tolist(), interior.tolist()):
            sel = ks == k
            lo, _ = self._panel_edges(k)
            partial = self._partial_batch(lo, flat[sel]) if n_interior else 0.0
            out[sel] = self._prefix(k) + partial
        return out.reshape(xs.shape)

    def _partial_batch(self, lo, pts):
        """Vectorized partial-panel integrals from lo to each of pts."""
        pts = np.asarray(pts, dtype=float)
        half = 0.5 * (pts - lo)
        mid = 0.5 * (pts + lo)
        # Three stacked GL16 rules per query: whole span plus its two halves.
        t_whole = mid[:, None] + half[:, None] * _GL_NODES
        lmid = 0.5 * (lo + mid)
        t_left = lmid[:, None] + 0.5 * half[:, None] * _GL_NODES
        rmid = 0.5 * (mid + pts)
        t_right = rmid[:, None] + 0.5 * half[:, None] * _GL_NODES
        y = np.asarray(self.integrand(np.concatenate([t_whole, t_left, t_right], axis=1)), dtype=float)
        if not np.all(np.isfinite(y)):
            raise NonFiniteIntegrandError("integrand returned a non-finite value inside a panel")
        coarse = half * (y[:, :16] @ _GL_WEIGHTS)
        fine = 0.5 * half * (y[:, 16:32] @ _GL_WEIGHTS) + 0.5 * half * (y[:, 32:] @ _GL_WEIGHTS)
        ok = np.abs(fine - coarse) <= np.maximum(self.abs_tol, _REL_FLOOR * np.abs(fine))
        result = fine
        for i in np.nonzero(~ok)[0]:
            result[i] = _adaptive(self.integrand, lo, float(pts[i]), self.abs_tol)
        return result

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
