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

from .errors import (GeneratorAdmissibilityError, InadmissibleModelError,
                     ParameterError, PhiNotMonotoneError)
from .functions import GeneratorFunction, _sample_finite, _sample_states, cumulative_integral
from .susy import (Eigenstate, PotentialPair, Superpotential, _scalar_friendly,
                   check_sign_condition, ground_state_minus, make_superpotential,
                   pair_potentials)

__all__ = [
    "QesModel",
    "CrossCheckResult",
    "probe_grid",
    "find_single_zero",
    "build_from_wplus",
    "build_from_phi",
    "cross_check_constructions",
]

PROBE_POINTS = 401
PROBE_HALF_WIDTH = 8.0  # in units of scale_hint

# Inside this window around x0 the divided-difference quotient is replaced by
# its Taylor form; outside, the naive quotient is already at full precision.
TAYLOR_WINDOW = 1e-3

# The node polish stops once its sign bracket is narrower than
# _XTOL + _RTOL*|x| or its Newton step no longer moves x.  A triple root
# converges linearly by 2/3 a step and needs about 80 steps from the scan
# bracket down to one ulp.
_XTOL = 1e-15
_RTOL = 8.9e-16
_POLISH_ITERATIONS = 100


def probe_grid(x0: float, scale_hint: float) -> np.ndarray:
    """The standard 401-point admissibility grid centered on the node."""
    half = PROBE_HALF_WIDTH * scale_hint
    return np.linspace(x0 - half, x0 + half, PROBE_POINTS)


@dataclass(frozen=True)
class QesModel:
    """A constructed model: superpotential pair, potentials, and two states.

    On the phi route ``phi`` is the seed itself, the ratio psi1/psi0;
    on the W_plus route it is None.
    """

    W: Superpotential
    W1: Superpotential
    epsilon: float
    x0: float
    potentials: PotentialPair
    psi0: Eigenstate
    psi1: Eigenstate
    scale_hint: float
    closed_form: Optional["ClosedForms"] = None
    phi: Optional[Callable] = None

    def probe_points(self) -> np.ndarray:
        return probe_grid(self.x0, self.scale_hint)

    def states(self, x):
        """(psi0, psi1) sampled on the array x.

        On the phi route psi1 = phi * psi0 reuses the one psi0 sample and its
        quadrature; its bits are those of psi1.psi(x).
        """
        x = np.asarray(x, dtype=float)
        psi0 = self.psi0.psi(x)
        if self.phi is None:
            return psi0, self.psi1.psi(x)
        return psi0, self.phi(x) * psi0


@dataclass(frozen=True)
class ClosedForms:
    """Optional closed-form expressions attached by a named family."""

    v_minus: Optional[Callable] = None
    v_plus: Optional[Callable] = None
    psi0: Optional[Callable] = None
    psi1: Optional[Callable] = None


def find_single_zero(f: GeneratorFunction) -> float:
    """Locate the unique zero crossing of f on [-R, R], R = 8 scale hints.

    Scans the 401-point grid to certify there is exactly one crossing, then
    polishes the bracket by Newton steps on f and f' that keep a sign bracket
    (see _polish_zero).  Every exactly-zero sample counts as a crossing, even
    a double zero such as x*(x - 2)^2's at 2, and a lone one is returned as is.
    """
    name = f.label or "W+"
    radius = PROBE_HALF_WIDTH * f.scale_hint
    xs = np.linspace(-radius, radius, PROBE_POINTS)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(f.eval(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise GeneratorAdmissibilityError(f"{name} is not finite everywhere on the scan grid")

    # crossing i is an exact zero at xs[i] or a sign change from xs[i] to xs[i + 1]
    signs = np.sign(vals)
    crossings = np.union1d(np.flatnonzero(signs == 0), np.flatnonzero(signs[:-1] * signs[1:] < 0))
    if crossings.size == 0:
        raise GeneratorAdmissibilityError(
            f"sign condition violated: {name} has no zero crossing on [{-radius}, {radius}]")
    if crossings.size > 1:
        raise GeneratorAdmissibilityError(
            f"{name} has multiple zeros (near {xs[crossings].tolist()}): not supported")

    i = crossings[0]
    x0 = float(xs[i]) if signs[i] == 0 else _polish_zero(f, float(xs[i]), float(xs[i + 1]))
    residual = abs(float(f.eval(x0)))
    local = max(1.0, abs(float(f.deriv1(x0))) * f.scale_hint)
    if residual > 1e-12 * local:
        raise GeneratorAdmissibilityError(
            f"zero polish failed for {name}: |f(x0)|={residual} at x0={x0}")
    return x0


def _polish_zero(f: GeneratorFunction, a: float, b: float) -> float:
    """The zero of f inside [a, b], where f(a) and f(b) have opposite signs.

    Bracketed Newton, as rtsafe (Numerical Recipes, sec. 9.4): each iterate
    x replaces the bracket end whose f has its sign, and the Newton step
    x - f(x)/f'(x) is taken unless it leaves the bracket or f'(x) is zero,
    when the bracket is bisected instead.  A simple zero converges
    quadratically; a flat one linearly, or by halving.  The iterate is
    returned as it is when the cap is reached: find_single_zero's residual
    gate judges it.
    """
    lo, hi = (a, b) if float(f.eval(a)) < 0 else (b, a)  # f(lo) < 0 < f(hi)
    x = 0.5 * (a + b)
    for _ in range(_POLISH_ITERATIONS):
        fx = float(f.eval(x))
        if fx == 0.0:
            return x
        if fx < 0:
            lo = x
        else:
            hi = x
        if abs(hi - lo) < _XTOL + _RTOL * abs(x):
            return x
        slope = float(f.deriv1(x))
        x_new = x - fx / slope if slope != 0.0 else math.nan
        if x_new == x:
            return x
        x = x_new if min(lo, hi) < x_new < max(lo, hi) else 0.5 * (lo + hi)
    return x


def _epsilon_from_slope(slope: float, x0: float) -> float:
    """Level gap fixed by the slope at the node: eps = W_plus'(x0)/2 > 0."""
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


def _superpotential(gen: GeneratorFunction, w_of, wprime_of, order: int,
                    x0: float, label: str) -> Superpotential:
    """W from w_of(x, g_0..g_{order-1}) and wprime_of(x, g_0..g_order), where
    g_k is the k-th derivative of gen at x.

    w and the joint (w, w') sampler each evaluate every order of gen they need
    once.
    """
    orders = (gen.eval, gen.deriv1, gen.deriv2, gen.deriv3)[:order + 1]

    def w(x):
        x = np.asarray(x, dtype=float)
        return w_of(x, *(f(x) for f in orders[:-1]))

    def w_and_wprime(x):
        x = np.asarray(x, dtype=float)
        g = [f(x) for f in orders]
        return w_of(x, *g[:-1]), wprime_of(x, *g)

    return make_superpotential(w, w_and_wprime, x0, gen.scale_hint, label)


def build_from_wplus(w_plus: GeneratorFunction) -> QesModel:
    """Construct a model from the combined superpotential W_plus = W + W1."""
    x0 = find_single_zero(w_plus)
    d1_0 = float(w_plus.deriv1(x0))
    eps = _epsilon_from_slope(d1_0, x0)
    s = w_plus.scale_hint
    delta = TAYLOR_WINDOW * s

    d2_0 = float(w_plus.deriv2(x0))
    d3_0 = float(w_plus.deriv3(x0))
    # Taylor form of the quotient across its removable singularity.
    c0 = d2_0 / d1_0
    c1 = (d3_0 - d2_0 * c0) / (2.0 * d1_0)

    def half(sign):
        """W (sign -1) or W1 (sign +1) as (W+ + sign*R)/2, with its slope,
        from wp, d1, d2 = W+, W+', W+'' at x."""

        def w(x, wp, d1):
            t = x - x0
            near = np.abs(t) < delta
            r = np.where(near, c0 + c1 * t, (d1 - d1_0) / np.where(near, 1.0, wp))
            return 0.5 * (wp + sign * r)

        def wprime(x, wp, d1, d2):
            near = np.abs(x - x0) < delta
            wp = np.where(near, 1.0, wp)
            r1 = np.where(near, c1, d2 / wp - (d1 - d1_0) * d1 / (wp * wp))
            return 0.5 * (d1 + sign * r1)

        return w, wprime

    W = _superpotential(w_plus, *half(-1.0), 2, x0, "W")
    W1 = _superpotential(w_plus, *half(1.0), 2, x0, "W1")
    _admissibility_gate(W, W1)

    psi0 = ground_state_minus(W)
    integral1 = W1.integral
    w1, _ = half(1.0)

    def psi1_fn(x):
        return w_plus.eval(x) * np.exp(-integral1(x))

    def psi1_prime(x):
        wp, d1 = w_plus.eval(x), w_plus.deriv1(x)
        return (d1 - wp * w1(x, wp, d1)) * np.exp(-integral1(x))

    psi1 = Eigenstate(eps, _scalar_friendly(psi1_fn), 1, _scalar_friendly(psi1_prime))
    return QesModel(W, W1, eps, x0, pair_potentials(W), psi0, psi1, s)


def build_from_phi(phi: GeneratorFunction, epsilon: float) -> QesModel:
    """Construct a model from a strictly increasing seed with one node.

    With phi' > 0 and phi(x0) = 0 the superpotentials are

        W  = (phi''/2 + eps*phi) / phi',
        W1 = (eps*phi - phi''/2) / phi',

    and the two known states of V_minus are

        psi0 = (phi')^(-1/2) exp(-eps int phi/phi'),    psi1 = phi * psi0,

    so the combined superpotential is W + W1 = 2*eps*phi/phi'.
    """
    eps = float(epsilon)
    if not (eps > 0):
        raise ParameterError("epsilon must be > 0")
    name = phi.label or "phi"
    s = phi.scale_hint

    def require_increasing(points):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
        """W (sign -1) or W1 (sign +1) as (W+ + sign*R)/2, with its slope,
        from p0..p3 = phi and its first three derivatives at x.

        Here W+ = 2 eps phi/phi' and R = -phi''/phi'.
        """

        def w(x, p0, p1, p2):
            return (eps * p0 - sign * (0.5 * p2)) / p1

        def wprime(x, p0, p1, p2, p3):
            num = eps * p0 - sign * (0.5 * p2)
            return (eps * p1 - sign * (0.5 * p3)) / p1 - num * p2 / (p1 * p1)

        return w, wprime

    W = _superpotential(phi, *half(-1.0), 3, x0, "W")
    W1 = _superpotential(phi, *half(1.0), 3, x0, "W1")
    _admissibility_gate(W, W1)
    w = W.w

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
    return QesModel(W, W1, eps, x0, pair_potentials(W), psi0, psi1, s, phi=phi.eval)


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
    the third, read once at the node for the Taylor patch, is a fourth-order
    central difference of the analytic second derivative, accurate to ~1e-12
    relative.  Potentials are compared in sup norm over the probe
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

    # a value that is not finite is for the zero scan and the samplers to name
    quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")
    seed = GeneratorFunction(*map(quiet, (wp, wp1, wp2, wp3)), s, "2*eps*phi/phi'")
    model_a = build_from_wplus(seed)

    xs = model_b.probe_points()
    where = f"the probe grid [{xs[0]}, {xs[-1]}]"
    models = (model_a, model_b)
    v_a, v_b = (_sample_finite(m.potentials.v_minus, xs, where, "v_minus") for m in models)
    states_a, states_b = (_sample_states(m.states, xs, where) for m in models)
    v_diff = np.max(np.abs(v_a - v_b))

    def normalized(vals):
        return vals / math.sqrt(float(vals @ vals))

    def aligned_gap(va, vb):
        a, b = normalized(va), normalized(vb)
        if float(a @ b) < 0:
            a = -a
        return float(np.max(np.abs(a - b)))

    p0, p1 = (aligned_gap(a, b) for a, b in zip(states_a, states_b))
    return CrossCheckResult(float(v_diff), p0, p1, model_b, model_a)
