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
from typing import Optional

import numpy as np

from .errors import GeneratorAdmissibilityError, ParameterError, PhiNotMonotoneError
from .functions import GeneratorFunction, _sample_finite, _sample_states, cumulative_integral
from .susy import (Eigenstate, PotentialPair, Superpotential, check_sign_condition,
                   pair_potentials, zero_mode)

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

# The node polish stops once its sign bracket is narrower than _XTOL scale
# hints + _RTOL*|x| or its Newton step no longer moves x.  A triple root
# converges linearly by 2/3 a step and needs about 80 steps from the scan
# bracket down to one ulp.
_XTOL = 1e-15
_RTOL = 8.9e-16
_POLISH_ITERATIONS = 100


def _at(fn, x: float) -> float:
    """fn, an array function, at the one point x, read as a 1-element array
    under np.errstate as the zero scan reads its grid: a value that is not
    finite comes back as it is, for the caller to name."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return float(fn(np.array([x]))[0])


def probe_grid(x0: float, scale_hint: float) -> np.ndarray:
    """The standard 401-point admissibility grid centered on the node."""
    half = PROBE_HALF_WIDTH * scale_hint
    return np.linspace(x0 - half, x0 + half, PROBE_POINTS)


@dataclass(frozen=True)
class QesModel:
    """A constructed model: superpotential pair, potentials, and two states.

    On the phi route ``phi`` is the seed GeneratorFunction, whose value is
    the ratio psi1/psi0; on the W_plus route it is None.  Only a phi-route
    model can be cross-checked (cross_check_constructions).
    """

    W: Superpotential
    W1: Superpotential
    epsilon: float
    x0: float
    potentials: PotentialPair
    psi0: Eigenstate
    psi1: Eigenstate
    scale_hint: float
    phi: Optional[GeneratorFunction] = None

    def probe_points(self) -> np.ndarray:
        return probe_grid(self.x0, self.scale_hint)

    def states(self, x):
        """(psi0, psi1) sampled on the array x.

        On the phi route psi1 = phi * psi0 reuses the one psi0 sample and its
        quadrature; its bits are those of psi1.psi(x).
        """
        psi0 = self.psi0.psi(x)
        if self.phi is None:
            return psi0, self.psi1.psi(x)
        return psi0, self.phi.eval(x) * psi0


def find_single_zero(f: GeneratorFunction) -> float:
    """Locate the unique zero crossing of f on [-R, R], R = 8 scale hints.

    Scans the 401-point grid to certify there is exactly one crossing, then
    polishes the bracket by Newton steps on f and f' that keep a sign bracket
    (see _polish_zero).  Every exactly-zero sample counts as a crossing, even
    a double zero such as x*(x - 2)^2's at 2, and a lone one is returned as is;
    an f that is zero on every scan point is refused as such.
    """
    name = f.label or "W+"
    xs = probe_grid(0.0, f.scale_hint)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(f.eval(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise GeneratorAdmissibilityError(f"{name} is not finite everywhere on the scan grid")
    if not np.any(vals):
        raise GeneratorAdmissibilityError(
            f"{name} is zero on every point of the scan grid [{xs[0]}, {xs[-1]}]")

    # crossing i is an exact zero at xs[i] or a sign change from xs[i] to xs[i + 1]
    signs = np.sign(vals)
    crossings = np.union1d(np.flatnonzero(signs == 0), np.flatnonzero(signs[:-1] * signs[1:] < 0))
    if crossings.size == 0:
        raise GeneratorAdmissibilityError(
            f"sign condition violated: {name} has no zero crossing on [{xs[0]}, {xs[-1]}]")
    if crossings.size > 1:
        raise GeneratorAdmissibilityError(
            f"{name} has multiple zeros (near {xs[crossings].tolist()}): not supported")

    i = crossings[0]
    x0 = float(xs[i]) if signs[i] == 0 else _polish_zero(f, float(xs[i]), float(xs[i + 1]))
    residual = abs(_at(f.eval, x0))
    local = max(1.0, abs(_at(f.deriv1, x0)) * f.scale_hint)
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
    lo, hi = (a, b) if _at(f.eval, a) < 0 else (b, a)  # f(lo) < 0 < f(hi)
    x = 0.5 * (a + b)
    for _ in range(_POLISH_ITERATIONS):
        fx = _at(f.eval, x)
        if fx == 0.0:
            return x
        if fx < 0:
            lo = x
        else:
            hi = x
        if abs(hi - lo) < _XTOL * f.scale_hint + _RTOL * abs(x):
            return x
        slope = _at(f.deriv1, x)
        x_new = x - fx / slope if slope != 0.0 else math.nan
        if x_new == x:
            return x
        x = x_new if min(lo, hi) < x_new < max(lo, hi) else 0.5 * (lo + hi)
    return x


def _node_slopes(f: GeneratorFunction, x0: float, name: str, error, zero_message):
    """(f'(x0), f''(x0)) at the polished node x0, refused unless f rises there
    through a simple zero.  An f'(x0) or f''(x0) that is not finite is refused
    as such.  Schroder's estimate mu = f f''/f'^2 at x0 is (m - 1)/m at a zero
    of multiplicity m and (p + 1)/p at a pole of order p: mu >= 1 is refused
    as a pole, f'(x0) <= 0 or |mu| >= 1/2 raises error(zero_message(f'(x0))),
    and a NaN mu is no refusal."""
    d1, d2 = _at(f.deriv1, x0), _at(f.deriv2, x0)
    for value, noun in ((d1, "derivative"), (d2, "second derivative")):
        if not math.isfinite(value):
            raise error(f"{name}'s {noun} is not finite at x0={x0}")
    mu = _at(f.eval, x0) / d1 * (d2 / d1) if d1 != 0.0 else math.nan
    if mu >= 1.0:
        raise error(f"{name} changes sign through a pole at x0={x0}, not a zero "
                    f"(Schroder estimate {mu:.3g})")
    if not d1 > 0 or abs(mu) >= 0.5:
        raise error(zero_message(d1))
    return d1, d2


def _pair(gen: GeneratorFunction, w_of, wprime_of,
          order: int) -> tuple[Superpotential, Superpotential]:
    """(W, W1), each passed through check_sign_condition: W is sign -1 and W1
    sign +1 of w_of(sign, x, g_0..g_{order-1}) with its slope
    wprime_of(sign, x, g_0..g_order), where g_k is the k-th derivative of gen
    at the array x.

    w and the joint (w, w') sampler each evaluate every order of gen they need
    once.
    """
    orders = (gen.eval, gen.deriv1, gen.deriv2, gen.deriv3)[:order + 1]

    def checked(sign, label):
        def w(x):
            return w_of(sign, x, *(f(x) for f in orders[:-1]))

        def w_and_wprime(x):
            g = [f(x) for f in orders]
            return w_of(sign, x, *g[:-1]), wprime_of(sign, x, *g)

        W = Superpotential(w, w_and_wprime, gen.scale_hint, label)
        check_sign_condition(W)
        return W

    return checked(-1.0, "W"), checked(1.0, "W1")


def build_from_wplus(w_plus: GeneratorFunction) -> QesModel:
    """Construct a model from the combined superpotential W_plus = W + W1."""
    x0 = find_single_zero(w_plus)
    name = w_plus.label or "W+"
    d1_0, d2_0 = _node_slopes(  # the gap eps = W+'(x0)/2 must be > 0
        w_plus, x0, name, GeneratorAdmissibilityError,
        lambda d1: f"non-transversal or wrongly oriented zero: W+'(x0)={d1} at x0={x0}")
    eps = 0.5 * d1_0
    s = w_plus.scale_hint
    delta = TAYLOR_WINDOW * s

    d3_0 = _at(w_plus.deriv3, x0)
    # Taylor form of the quotient across its removable singularity.
    c0 = d2_0 / d1_0
    c1 = (d3_0 - d2_0 * c0) / (2.0 * d1_0)

    # W and W1 are (W+ + sign*R)/2, from wp, d1, d2 = W+, W+', W+'' at x
    def w_of(sign, x, wp, d1):
        t = x - x0
        near = np.abs(t) < delta
        r = np.where(near, c0 + c1 * t, (d1 - d1_0) / np.where(near, 1.0, wp))
        return 0.5 * (wp + sign * r)

    def wprime_of(sign, x, wp, d1, d2):
        near = np.abs(x - x0) < delta
        wp = np.where(near, 1.0, wp)
        r1 = np.where(near, c1, d2 / wp - (d1 - d1_0) * d1 / (wp * wp))
        return 0.5 * (d1 + sign * r1)

    W, W1 = _pair(w_plus, w_of, wprime_of, 2)
    if not math.isfinite(d3_0):  # after _pair, whose sign probes name a W that overflows
        raise GeneratorAdmissibilityError(f"{name}'s third derivative is not finite at x0={x0}")
    # psi0 = exp(-int W), normalizable by the sign condition; psi1 = W+ exp(-int W1)
    mode1 = zero_mode(W1, x0)
    psi0 = Eigenstate(0.0, zero_mode(W, x0))
    psi1 = Eigenstate(eps, lambda x: w_plus.eval(x) * mode1(x))
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
        finite = np.isfinite(slopes)
        if not np.all(finite):
            raise PhiNotMonotoneError(f"{name}'s derivative is not finite at "
                                      f"x={float(points[np.argmin(finite)])}")
        if not np.all(slopes > 0):
            worst = float(points[np.argmin(slopes)])
            raise PhiNotMonotoneError(
                f"{name} is not monotonically increasing: derivative <= 0 near x={worst}")

    # monotonicity first: it is the route's defining premise, and it makes
    # the zero of phi unique before the scan goes looking for it
    require_increasing(probe_grid(0.0, s))
    x0 = find_single_zero(phi)
    require_increasing(probe_grid(x0, s))
    # phi' > 0 on the probe grid rules out neither a multiple zero nor a pole
    _node_slopes(phi, x0, name, PhiNotMonotoneError, lambda d1: f"{name} is not strictly "
                 f"increasing through its zero: derivative {d1} at x0={x0} (multiple zero)")

    # W and W1 are (W+ + sign*R)/2 with W+ = 2 eps phi/phi' and R = -phi''/phi',
    # from p0..p3 = phi and its first three derivatives at x
    def w_of(sign, x, p0, p1, p2):
        return (eps * p0 - sign * (0.5 * p2)) / p1

    def wprime_of(sign, x, p0, p1, p2, p3):
        num = eps * p0 - sign * (0.5 * p2)
        return (eps * p1 - sign * (0.5 * p3)) / p1 - num * p2 / (p1 * p1)

    W, W1 = _pair(phi, w_of, wprime_of, 3)

    shape_integral = cumulative_integral(lambda x: phi.eval(x) / phi.deriv1(x),
                                         x0, scale_hint=s)

    def psi0_fn(x):
        return phi.deriv1(x) ** (-0.5) * np.exp(-eps * shape_integral(x))

    psi0 = Eigenstate(0.0, psi0_fn)
    psi1 = Eigenstate(eps, lambda x: phi.eval(x) * psi0_fn(x))
    return QesModel(W, W1, eps, x0, pair_potentials(W), psi0, psi1, s, phi=phi)


@dataclass(frozen=True)
class CrossCheckResult:
    """Sup-norm discrepancies between a phi-route model and its W_plus rebuild."""

    v_minus_sup: float
    psi0_sup: float
    psi1_sup: float

    @property
    def max_discrepancy(self) -> float:
        return max(self.v_minus_sup, self.psi0_sup, self.psi1_sup)


def cross_check_constructions(model: QesModel) -> CrossCheckResult:
    """Rebuild a phi-route model through the W_plus route and compare the two.

    model is what build_from_phi returned; its seed, gap and scale hint are
    read from model.phi, model.epsilon and model.scale_hint.  Its combined
    superpotential 2*eps*phi/phi' is the seed of the W_plus route.  Its first
    two derivatives are analytic in phi; the third, read only at the node for
    the Taylor patch, is 2*eps*(3 phi''^2 - 2 phi' phi''')/phi'^2, exact where
    phi = 0.  Potentials are compared in sup norm over the probe grid;
    wavefunctions are grid-normalized first and compared as built, with no
    sign aligned.
    """
    phi, eps, s = model.phi, model.epsilon, model.scale_hint

    def wp(x):  # 2 eps phi/phi'
        return 2.0 * eps * (phi.eval(x) / phi.deriv1(x))

    def wp1(x):
        p1 = phi.deriv1(x)
        return 2.0 * eps * (1.0 - phi.eval(x) * phi.deriv2(x) / (p1 * p1))

    def wp2(x):
        p0, p1, p2 = phi.eval(x), phi.deriv1(x), phi.deriv2(x)
        return 2.0 * eps * (-p2 / p1 - p0 * phi.deriv3(x) / (p1 * p1)
                            + 2.0 * p0 * p2 * p2 / (p1 * p1 * p1))

    def wp3(x):  # exact where phi = 0; elsewhere it lacks -2 eps phi phi''''/phi'^2
        p1, p2 = phi.deriv1(x), phi.deriv2(x)
        return 2.0 * eps * (3.0 * p2 * p2 - 2.0 * p1 * phi.deriv3(x)) / (p1 * p1)

    seed = GeneratorFunction(wp, wp1, wp2, wp3, s, "2*eps*phi/phi'")
    model_a = build_from_wplus(seed)

    xs = model.probe_points()
    where = f"the probe grid [{xs[0]}, {xs[-1]}]"
    models = (model_a, model)
    v_a, v_b = (_sample_finite(m.potentials.v_minus, xs, where, "v_minus") for m in models)
    states_a, states_b = (_sample_states(m.states, xs, where) for m in models)
    v_diff = np.max(np.abs(v_a - v_b))

    def normalized(vals):
        return vals / math.sqrt(float(vals @ vals))

    p0, p1 = (float(np.max(np.abs(normalized(a) - normalized(b))))
              for a, b in zip(states_a, states_b))
    return CrossCheckResult(float(v_diff), p0, p1)
