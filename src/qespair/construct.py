"""Build quasi-exactly solvable models from a single generator function.

Two routes produce the same object:

* :func:`build_from_wplus` starts from the combined superpotential
  W_plus = W + W1, which must cross zero exactly once, transversally.  The
  level gap is fixed by the slope there, eps = W_plus'(x0)/2, and the
  difference R = W1 - W is recovered as the divided-difference quotient
  (W_plus'(x) - W_plus'(x0)) / W_plus(x), whose singularity at x0 is
  removable.
* :func:`build_from_phi` starts from a strictly increasing function phi with
  one zero and a chosen eps > 0, and writes both superpotentials directly in
  terms of phi and its derivatives.

Both deliver a :class:`QesModel`: the pair (W, W1), the partner potentials of
W, and the two analytically known eigenstates of V_minus at energies 0 and
eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import (GeneratorAdmissibilityError, InadmissibleModelError,
                     ParameterError, PhiNotMonotoneError)
from .functions import GeneratorFunction, cumulative_integral
from .susy import (Eigenstate, PotentialPair, Superpotential, _scalar_friendly,
                   check_sign_condition, ground_state_minus, make_superpotential,
                   pair_potentials)

__all__ = [
    "QesModel",
    "CrossCheckResult",
    "probe_grid",
    "find_single_zero",
    "epsilon_from_wplus",
    "build_from_wplus",
    "build_from_phi",
    "cross_check_constructions",
]

PROBE_POINTS = 401
PROBE_HALF_WIDTH = 8.0  # in units of scale_hint

# Inside this window around x0 the divided-difference quotient is replaced by
# its Taylor form; outside, the naive quotient is already at full precision.
TAYLOR_WINDOW = 1e-3


def probe_grid(x0: float, scale_hint: float) -> np.ndarray:
    """The standard 401-point admissibility grid centered on the node."""
    half = PROBE_HALF_WIDTH * scale_hint
    return np.linspace(x0 - half, x0 + half, PROBE_POINTS)


@dataclass(frozen=True)
class QesModel:
    """A constructed model: superpotential pair, potentials, and two states."""

    W: Superpotential
    W1: Superpotential
    epsilon: float
    x0: float
    potentials: PotentialPair
    psi0: Eigenstate
    psi1: Eigenstate
    w_plus: Callable
    scale_hint: float
    provenance: dict
    closed_form: Optional["ClosedForms"] = None

    def probe_points(self) -> np.ndarray:
        return probe_grid(self.x0, self.scale_hint)


@dataclass(frozen=True)
class ClosedForms:
    """Optional closed-form expressions attached by a named family."""

    v_minus: Optional[Callable] = None
    v_plus: Optional[Callable] = None
    psi0: Optional[Callable] = None
    psi1: Optional[Callable] = None


def find_single_zero(f: GeneratorFunction, search_radius=None) -> float:
    """Locate the unique zero crossing of f on [-R, R].

    Scans the 401-point grid to certify there is exactly one crossing, then
    polishes the bracket with Brent's method.  Zero samples landing exactly on
    the grid count as crossings when the surrounding signs differ.
    """
    name = f.label or "W+"
    radius = PROBE_HALF_WIDTH * f.scale_hint if search_radius is None else float(search_radius)
    xs = np.linspace(-radius, radius, PROBE_POINTS)
    vals = np.asarray(f.eval(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise GeneratorAdmissibilityError(f"{name} is not finite everywhere on the scan grid")

    crossings = []  # each entry: ("exact", x) or ("bracket", lo, hi)
    last_sign = 0
    last_idx = None
    for i, v in enumerate(vals):
        s = 0 if v == 0.0 else (1 if v > 0 else -1)
        if s == 0:
            crossings.append(("exact", float(xs[i])))
        elif last_sign != 0 and s != last_sign:
            crossings.append(("bracket", float(xs[last_idx]), float(xs[i])))
        # a zero sample resets the baseline so the flanking signs do not
        # register the same crossing twice
        last_sign, last_idx = s, i

    if len(crossings) == 0:
        raise GeneratorAdmissibilityError(
            f"sign condition violated: {name} has no zero crossing on [{-radius}, {radius}]")
    if len(crossings) > 1:
        where = [c[1] for c in crossings]
        raise GeneratorAdmissibilityError(
            f"{name} has multiple zeros (near {where}): not supported")

    c = crossings[0]
    if c[0] == "exact":
        x0 = c[1]
    else:
        x0 = float(brentq(lambda t: float(f.eval(t)), c[1], c[2], xtol=1e-15, rtol=8.9e-16))
    residual = abs(float(f.eval(x0)))
    local = max(1.0, abs(float(f.deriv1(x0))) * f.scale_hint)
    if residual > 1e-12 * local:
        raise GeneratorAdmissibilityError(
            f"zero polish failed for {name}: |f(x0)|={residual} at x0={x0}")
    return x0


def epsilon_from_wplus(w_plus: GeneratorFunction, x0: float) -> float:
    """Level gap fixed by the slope at the node: eps = W_plus'(x0)/2 > 0."""
    slope = float(w_plus.deriv1(x0))
    if not (slope > 0):
        raise GeneratorAdmissibilityError(
            f"non-transversal or wrongly oriented zero: W+'(x0)={slope} at x0={x0}")
    return 0.5 * slope


def _admissibility_gate(W: Superpotential, W1: Superpotential):
    for sp, name in ((W, "W"), (W1, "W1")):
        chk = check_sign_condition(sp)
        if not chk:
            raise InadmissibleModelError(
                f"inadmissible construction: {name} fails the sign condition "
                f"(right {chk.right_samples}, left {chk.left_samples})")


def build_from_wplus(w_plus: GeneratorFunction) -> QesModel:
    """Construct a model from the combined superpotential W_plus = W + W1."""
    x0 = find_single_zero(w_plus)
    eps = epsilon_from_wplus(w_plus, x0)
    s = w_plus.scale_hint
    delta = TAYLOR_WINDOW * s

    d1_0 = float(w_plus.deriv1(x0))
    d2_0 = float(w_plus.deriv2(x0))
    d3_0 = float(w_plus.deriv3(x0))
    # Taylor form of the quotient across its removable singularity.
    c0 = d2_0 / d1_0
    c1 = d3_0 / (2.0 * d1_0) - d2_0 * d2_0 / (2.0 * d1_0 * d1_0)

    def half(sign):
        """W (sign -1) or W1 (sign +1) as (W+ + sign*R)/2, with its slope."""

        def w(x):
            x = np.asarray(x, dtype=float)
            t = x - x0
            near = np.abs(t) < delta
            wp = w_plus.eval(x)
            r = np.where(near, c0 + c1 * t, (w_plus.deriv1(x) - d1_0) / np.where(near, 1.0, wp))
            return 0.5 * (wp + sign * r)

        def wprime(x):
            x = np.asarray(x, dtype=float)
            near = np.abs(x - x0) < delta
            wp = np.where(near, 1.0, w_plus.eval(x))
            d1 = w_plus.deriv1(x)
            r1 = np.where(near, c1, w_plus.deriv2(x) / wp - (d1 - d1_0) * d1 / (wp * wp))
            return 0.5 * (d1 + sign * r1)

        return w, wprime

    W = make_superpotential(*half(-1.0), base_point=x0, scale_hint=s, label="W")
    W1 = make_superpotential(*half(1.0), base_point=x0, scale_hint=s, label="W1")
    _admissibility_gate(W, W1)

    psi0 = ground_state_minus(W)
    integral1 = W1.integral

    def psi1_fn(x):
        return w_plus.eval(x) * np.exp(-integral1(x))

    def psi1_prime(x):
        return (w_plus.deriv1(x) - w_plus.eval(x) * W1.w(x)) * np.exp(-integral1(x))

    psi1 = Eigenstate(eps, _scalar_friendly(psi1_fn), 1, _scalar_friendly(psi1_prime))

    provenance = {
        "route": "wplus-generator",
        "generator": w_plus.label,
        "numeric_derivatives": w_plus.numeric_derivatives,
    }
    return QesModel(W, W1, eps, x0, pair_potentials(W), psi0, psi1,
                    _scalar_friendly(w_plus.eval), s, provenance)


def build_from_phi(phi: GeneratorFunction, epsilon: float) -> QesModel:
    """Construct a model from a strictly increasing seed with one node.

    With phi' > 0 and phi(x0) = 0 the superpotentials are

        W  = (phi''/2 + eps*phi) / phi',
        W1 = (eps*phi - phi''/2) / phi',

    and the two known states of V_minus are

        psi0 = (phi')^(-1/2) exp(-eps int phi/phi'),    psi1 = phi * psi0.

    The combined superpotential W + W1 = 2*eps*phi/phi' is recorded on the
    model for consistency checks against the other route.
    """
    eps = float(epsilon)
    if not (eps > 0):
        raise ParameterError("epsilon must be > 0")
    name = phi.label or "phi"
    s = phi.scale_hint

    def require_increasing(points):
        slopes = np.asarray(phi.deriv1(points), dtype=float)
        if not np.all(slopes > 0):
            worst = float(points[np.argmin(slopes)])
            raise PhiNotMonotoneError(
                f"{name} is not monotonically increasing: derivative <= 0 near x={worst}")

    # monotonicity first: it is the route's defining premise, and it makes
    # the zero of phi unique before the scan goes looking for it
    require_increasing(probe_grid(0.0, s))
    x0 = find_single_zero(phi)
    require_increasing(probe_grid(x0, s))

    def half(sign):
        """W (sign -1) or W1 (sign +1) as (W+ + sign*R)/2, with its slope.

        Here W+ = 2 eps phi/phi' and R = -phi''/phi'.
        """

        def w(x):
            return (eps * phi.eval(x) - sign * (0.5 * phi.deriv2(x))) / phi.deriv1(x)

        def wprime(x):
            p1, p2 = phi.deriv1(x), phi.deriv2(x)
            num = eps * phi.eval(x) - sign * (0.5 * p2)
            return (eps * p1 - sign * (0.5 * phi.deriv3(x))) / p1 - num * p2 / (p1 * p1)

        return w, wprime

    w, wprime = half(-1.0)
    W = make_superpotential(w, wprime, base_point=x0, scale_hint=s, label="W")
    W1 = make_superpotential(*half(1.0), base_point=x0, scale_hint=s, label="W1")
    _admissibility_gate(W, W1)

    shape_integral = cumulative_integral(lambda x: phi.eval(x) / phi.deriv1(x),
                                         x0, scale_hint=s)

    def psi0_fn(x):
        return phi.deriv1(x) ** (-0.5) * np.exp(-eps * shape_integral(x))

    def psi0_prime(x):
        return -w(x) * psi0_fn(x)

    def psi1_fn(x):
        return phi.eval(x) * psi0_fn(x)

    def psi1_prime(x):
        p0 = psi0_fn(x)
        return phi.deriv1(x) * p0 + phi.eval(x) * (-w(x) * p0)

    psi0 = Eigenstate(0.0, _scalar_friendly(psi0_fn), 0, _scalar_friendly(psi0_prime))
    psi1 = Eigenstate(eps, _scalar_friendly(psi1_fn), 1, _scalar_friendly(psi1_prime))

    def w_plus(x):
        return 2.0 * eps * phi.eval(x) / phi.deriv1(x)

    provenance = {
        "route": "phi-generator",
        "generator": phi.label,
        "epsilon": eps,
        "numeric_derivatives": phi.numeric_derivatives,
    }
    return QesModel(W, W1, eps, x0, pair_potentials(W), psi0, psi1,
                    _scalar_friendly(w_plus), s, provenance)


@dataclass(frozen=True)
class CrossCheckResult:
    """Sup-norm discrepancies between the two construction routes."""

    v_minus_sup: float
    psi0_sup: float
    psi1_sup: float
    model_phi: QesModel
    model_wplus: QesModel

    @property
    def max_discrepancy(self) -> float:
        return max(self.v_minus_sup, self.psi0_sup, self.psi1_sup)


def cross_check_constructions(phi: GeneratorFunction, epsilon: float) -> CrossCheckResult:
    """Build the same model through both routes and compare the outputs.

    The phi route's combined superpotential 2*eps*phi/phi' is re-used as the
    seed of the W_plus route.  Its first two derivatives are analytic in phi;
    the third (needed only for the Taylor patch at the node) is a fourth-order
    central difference of the analytic second derivative, accurate to ~1e-12
    relative, and flagged.  Potentials are compared in sup norm over the probe
    grid; wavefunctions are grid-normalized first.
    """
    model_b = build_from_phi(phi, epsilon)
    eps = model_b.epsilon
    s = phi.scale_hint

    def wp(x):  # 2 eps phi/phi'
        return 2.0 * eps * (phi.eval(x) / phi.deriv1(x))

    def wp1(x):
        p1 = phi.deriv1(x)
        return 2.0 * eps * (1.0 - phi.eval(x) * phi.deriv2(x) / (p1 * p1))

    def wp2(x):
        p1 = phi.deriv1(x)
        p2 = phi.deriv2(x)
        return 2.0 * eps * (-p2 / p1 - phi.eval(x) * phi.deriv3(x) / (p1 * p1)
                            + 2.0 * phi.eval(x) * p2 * p2 / (p1 * p1 * p1))

    # step keyed below the shape scale so steep phi'' spikes stay resolved
    h = 1e-4 * s

    def wp3(x):
        return (-wp2(x + 2 * h) + 8.0 * wp2(x + h)
                - 8.0 * wp2(x - h) + wp2(x - 2 * h)) / (12.0 * h)

    seed = GeneratorFunction(wp, wp1, wp2, wp3, s, label="2*eps*phi/phi'",
                             numeric_derivatives=True)
    model_a = build_from_wplus(seed)

    xs = model_b.probe_points()
    v_diff = np.max(np.abs(model_a.potentials.v_minus(xs) - model_b.potentials.v_minus(xs)))

    def normalized(fn):
        vals = np.asarray(fn(xs), dtype=float)
        return vals / math.sqrt(float(vals @ vals))

    def aligned_gap(fa, fb):
        a, b = normalized(fa), normalized(fb)
        if float(a @ b) < 0:
            a = -a
        return float(np.max(np.abs(a - b)))

    p0 = aligned_gap(model_a.psi0.psi, model_b.psi0.psi)
    p1 = aligned_gap(model_a.psi1.psi, model_b.psi1.psi)
    return CrossCheckResult(float(v_diff), p0, p1, model_b, model_a)
