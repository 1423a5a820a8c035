"""Named model families with closed-form potentials and wavefunctions.

Every family funnels through the generic constructors in
:mod:`qespair.construct`; the closed forms attached here are independent
expressions used by the test suite to pin the generic machinery down.

Families
--------
poly-wplus    W_plus = a*x + b*x^3              (a, b > 0; gap eps = a/2)
poly-phi      phi = a*x + b*x^3/3, free eps     (a, b, eps > 0)
poly-phi-ces  poly-phi at eps = 3b/2a, where the partner potential collapses
              to a shifted harmonic oscillator and the whole V_minus spectrum
              is known: E_0 = 0, E_n = (b/a)(n/2 + 1) for n >= 1
sinh-wplus    W_plus = A*(sinh(alpha*x) - sinh(alpha*x0))   (A, alpha > 0)
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import hermite as _hermite
from numpy.polynomial import polynomial as _polynomial

from .construct import ClosedForms, QesModel, build_from_phi, build_from_wplus
from .errors import ParameterError
from .functions import GeneratorFunction
from .susy import Eigenstate, apply_raising

__all__ = [
    "PolyWplusParams",
    "PolyPhiParams",
    "SinhWplusParams",
    "poly_wplus_model",
    "poly_phi_model",
    "poly_phi_ces_model",
    "sinh_wplus_model",
    "ces_epsilon",
    "ces_exact_spectrum",
    "ces_excited_states",
    "FamilySpec",
    "FAMILIES",
]


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not (np.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be > 0 (got {value})")


def _polynomial_seed(coeffs, scale_hint: float, label: str) -> GeneratorFunction:
    """A seed from ascending coefficients, every order by Horner's rule.

    numpy's general power takes a slow path for negative bases.
    """
    return GeneratorFunction(*(functools.partial(_polynomial.polyval,
                                                 c=_polynomial.polyder(coeffs, m))
                               for m in range(4)), float(scale_hint), label)


# ---------------------------------------------------------------------------
# poly-wplus: W_plus = a x + b x^3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyWplusParams:
    a: float
    b: float

    def __post_init__(self):
        _require_positive(a=self.a, b=self.b)

    @property
    def scale_hint(self) -> float:
        # width of the Gaussian factor exp(-a x^2 / 4)
        return math.sqrt(2.0 / self.a)


def poly_wplus_generator(params: PolyWplusParams) -> GeneratorFunction:
    return _polynomial_seed([0.0, params.a, 0.0, params.b], params.scale_hint,
                            f"a*x+b*x^3 (a={params.a}, b={params.b})")


def poly_wplus_model(params: PolyWplusParams) -> QesModel:
    """Cubic-generator family.  Level gap a/2 independent of b.

    Closed forms:
        V_minus = (a^2 - 12 b)/8 x^2 + (a b/4) x^4 + (b^2/8) x^6
                  + 3ab / (8 (a + b x^2)^2) + 3b / (8 (a + b x^2)) - a/4
        psi0 ~ (a + b x^2)^(3/4) exp(-x^2 (2a + b x^2)/8)
        psi1 ~ x (a + b x^2)^(1/4) exp(-x^2 (2a + b x^2)/8)
    """
    a, b = params.a, params.b
    model = build_from_wplus(poly_wplus_generator(params))

    def v_minus(x):
        x = np.asarray(x, dtype=float)
        q = a + b * x ** 2
        return (0.125 * (a * a - 12.0 * b) * x ** 2 + 0.25 * a * b * x ** 4
                + 0.125 * b * b * x ** 6 + 3.0 * a * b / (8.0 * q * q)
                + 3.0 * b / (8.0 * q) - 0.25 * a)

    def gaussian_part(x):
        return np.exp(-x ** 2 * (2.0 * a + b * x ** 2) / 8.0)

    def psi0(x):
        x = np.asarray(x, dtype=float)
        return (a + b * x ** 2) ** 0.75 * gaussian_part(x)

    def psi1(x):
        x = np.asarray(x, dtype=float)
        return x * (a + b * x ** 2) ** 0.25 * gaussian_part(x)

    closed = ClosedForms(v_minus=v_minus, psi0=psi0, psi1=psi1)
    return dataclasses.replace(model, closed_form=closed)


# ---------------------------------------------------------------------------
# poly-phi: phi = a x + b x^3 / 3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyPhiParams:
    """Parameters of the cubic seed, with the derived potential coefficients.

    In terms of q = a + b x^2 the partner potentials are

        V_minus = (coeff_x2/2) x^2 + coeff_inv_minus/q + coeff_inv2_minus/q^2
                  + offset_minus
        V_plus  = (coeff_x2/2) x^2 + coeff_inv2_plus/q^2 + offset_plus

    (no 1/q term survives on the plus side).  Note offset_plus - offset_minus
    = eps/3, matching V_plus - V_minus = W' at infinity.
    """

    a: float
    b: float
    epsilon: float
    coeff_x2: float = field(init=False)
    coeff_inv_minus: float = field(init=False)
    coeff_inv2_minus: float = field(init=False)
    coeff_inv2_plus: float = field(init=False)
    offset_minus: float = field(init=False)
    offset_plus: float = field(init=False)

    def __post_init__(self):
        _require_positive(a=self.a, b=self.b, epsilon=self.epsilon)
        a, b, e = self.a, self.b, self.epsilon
        object.__setattr__(self, "coeff_x2", e * e / 9.0)
        object.__setattr__(self, "coeff_inv_minus", b + 2.0 * a * e / 3.0)
        object.__setattr__(self, "coeff_inv2_minus",
                           -(27.0 * a * b * b + 24.0 * a * a * b * e + 4.0 * a ** 3 * e * e) / (18.0 * b))
        object.__setattr__(self, "coeff_inv2_plus",
                           (9.0 * a * b * b - 4.0 * a ** 3 * e * e) / (18.0 * b))
        object.__setattr__(self, "offset_minus", e * (3.0 * b + 4.0 * a * e) / (18.0 * b))
        object.__setattr__(self, "offset_plus", e * (9.0 * b + 4.0 * a * e) / (18.0 * b))

    @property
    def scale_hint(self) -> float:
        # width of the Gaussian factor exp(-eps x^2 / 6)
        return math.sqrt(3.0 / self.epsilon)


def poly_phi_generator(params: PolyPhiParams) -> GeneratorFunction:
    return _polynomial_seed([0.0, params.a, 0.0, params.b / 3.0], params.scale_hint,
                            f"a*x+b*x^3/3 (a={params.a}, b={params.b})")


def poly_phi_model(params: PolyPhiParams) -> QesModel:
    """Cubic-seed family with a free level gap eps.

    The superpotentials collapse to

        W  = eps x/3 + (b + 2 a eps/3) x / (a + b x^2)
        W1 = eps x/3 + (2 a eps/3 - b) x / (a + b x^2)

    and the known states are

        psi0 ~ (a + b x^2)^(-1/2 - a eps/3b) exp(-eps x^2/6)
        psi1 ~ (a x + b x^3/3) (a + b x^2)^(-1/2 - a eps/3b) exp(-eps x^2/6).
    """
    a, b, e = params.a, params.b, params.epsilon
    model = build_from_phi(poly_phi_generator(params), e)
    p = params

    def v_minus(x):
        x = np.asarray(x, dtype=float)
        q = a + b * x ** 2
        return (0.5 * p.coeff_x2 * x ** 2 + p.coeff_inv_minus / q
                + p.coeff_inv2_minus / (q * q) + p.offset_minus)

    def v_plus(x):
        x = np.asarray(x, dtype=float)
        q = a + b * x ** 2
        return 0.5 * p.coeff_x2 * x ** 2 + p.coeff_inv2_plus / (q * q) + p.offset_plus

    power = -0.5 - a * e / (3.0 * b)

    def psi0(x):
        x = np.asarray(x, dtype=float)
        return (a + b * x ** 2) ** power * np.exp(-e * x ** 2 / 6.0)

    def psi1(x):
        x = np.asarray(x, dtype=float)
        return (a * x + b * x ** 3 / 3.0) * (a + b * x ** 2) ** power * np.exp(-e * x ** 2 / 6.0)

    closed = ClosedForms(v_minus=v_minus, v_plus=v_plus, psi0=psi0, psi1=psi1)
    return dataclasses.replace(model, closed_form=closed)


# ---------------------------------------------------------------------------
# poly-phi-ces: the conditionally exactly solvable point eps = 3b/2a
# ---------------------------------------------------------------------------

def ces_epsilon(a: float, b: float) -> float:
    """The gap value at which the plus-side 1/q^2 term vanishes."""
    _require_positive(a=a, b=b)
    return 1.5 * b / a


def poly_phi_ces_model(a: float, b: float) -> QesModel:
    """poly-phi at eps = 3b/2a: V_plus is exactly a shifted oscillator.

        V_plus = (b^2 / 8 a^2) x^2 + 5b/4a,

    i.e. frequency omega = b/2a shifted by 5b/4a, so every level of V_minus
    follows from the raising map, not just the lowest two.
    """
    return poly_phi_model(PolyPhiParams(a, b, ces_epsilon(a, b)))


def ces_exact_spectrum(a: float, b: float, n_max: int) -> list:
    """Full ladder of V_minus at the CES point.

    The partner oscillator has E_n^plus = (b/2a)(n + 1/2) + 5b/4a, and the
    raising map shifts indices by one on top of the zero mode:

        E_0 = 0,    E_n = (b/a)(n/2 + 1)   for n >= 1.
    """
    _require_positive(a=a, b=b)
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0 (got {n_max})")
    return [0.0] + [(b / a) * (0.5 * n + 1.0) for n in range(1, n_max + 1)]


def _hermite_plus_state(a: float, b: float, n: int):
    """n-th eigenstate of the CES partner oscillator, with derivative.

    psi_n = H_n(sqrt(omega) x) exp(-omega x^2/2) at omega = b/2a, energy
    omega(n + 1/2) + 5b/4a.  Unnormalized.
    """
    omega = 0.5 * b / a
    root = math.sqrt(omega)
    coeff_n = [0.0] * n + [1.0]
    coeff_lower = ([0.0] * (n - 1) + [1.0]) if n >= 1 else None

    def psi(x):
        u = root * np.asarray(x, dtype=float)
        return _hermite.hermval(u, coeff_n) * np.exp(-0.5 * u * u)

    def psi_prime(x):
        x = np.asarray(x, dtype=float)
        u = root * x
        gauss = np.exp(-0.5 * u * u)
        poly_term = 2.0 * n * _hermite.hermval(u, coeff_lower) if n >= 1 else 0.0
        return root * (poly_term - u * _hermite.hermval(u, coeff_n)) * gauss

    energy = omega * (n + 0.5) + 1.25 * b / a
    return psi, psi_prime, energy


def ces_excited_states(a: float, b: float, n: int) -> Eigenstate:
    """n-th excited state of V_minus at the CES point (n >= 1).

    Raised from the (n-1)-th Hermite-Gaussian state of the partner
    oscillator; carries n nodes and energy (b/a)(n/2 + 1).
    """
    _require_positive(a=a, b=b)
    if n < 1:
        raise ParameterError(
            "n must be >= 1: the node-free state comes from ground_state_minus")
    model = poly_phi_ces_model(a, b)
    psi, psi_prime, energy = _hermite_plus_state(a, b, n - 1)
    return apply_raising(model.W, psi, psi_prime, energy, node_count=n)


# ---------------------------------------------------------------------------
# sinh-wplus: W_plus = A (sinh(alpha x) - sinh(alpha x0))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SinhWplusParams:
    A: float
    alpha: float
    x0: float = 0.0

    def __post_init__(self):
        _require_positive(A=self.A, alpha=self.alpha)
        if not np.isfinite(self.x0):
            raise ParameterError(f"x0 must be finite (got {self.x0})")
        with np.errstate(over="ignore"):
            scales = self.A * np.float64(self.alpha) ** 3, self.A * np.sinh(self.alpha * self.x0)
        if not np.all(np.isfinite(scales)):
            raise ParameterError(f"A*alpha^3 and A*sinh(alpha*x0) must be finite (got A={self.A}, "
                                 f"alpha={self.alpha}, x0={self.x0})")

    @property
    def scale_hint(self) -> float:
        return 1.0 / self.alpha


def sinh_wplus_generator(params: SinhWplusParams) -> GeneratorFunction:
    A, al, x0 = params.A, params.alpha, params.x0
    shift = A * math.sinh(al * x0)
    return GeneratorFunction(
        lambda x: A * np.sinh(al * np.asarray(x, dtype=float)) - shift,
        lambda x: A * al * np.cosh(al * np.asarray(x, dtype=float)),
        lambda x: A * al * al * np.sinh(al * np.asarray(x, dtype=float)),
        lambda x: A * al ** 3 * np.cosh(al * np.asarray(x, dtype=float)),
        float(params.scale_hint),
        f"A*(sinh(alpha*x)-sinh(alpha*x0)) (A={params.A}, alpha={params.alpha}, x0={params.x0})",
    )


def sinh_wplus_model(params: SinhWplusParams) -> QesModel:
    """Hyperbolic generator; the node sits wherever x0 puts it.

    Gap eps = A alpha cosh(alpha x0) / 2.  At x0 = 0 the zero mode is the
    double-well ground state exp(-A cosh(alpha x)/alpha + const) * cosh-type
    prefactor.  No closed-form potential is attached; the generic route is
    the definition here.
    """
    return build_from_wplus(sinh_wplus_generator(params))


# ---------------------------------------------------------------------------
# registry used by the CLI
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A registry entry.  ``defaults`` names every parameter the family takes.

    ``phi_seed`` gives the (phi, eps) seed of a family built on the
    monotone-seed route; ``exact_spectrum`` gives levels 0..n_max of a
    family whose whole ladder is known.
    """

    defaults: dict
    build: Callable[[dict], QesModel]
    phi_seed: Optional[Callable[[dict], tuple]] = None
    exact_spectrum: Optional[Callable[[dict, int], list]] = None

    @property
    def phi_based(self) -> bool:
        return self.phi_seed is not None


def _phi_seed(p: dict) -> tuple:
    return poly_phi_generator(PolyPhiParams(**p)), p["epsilon"]


FAMILIES = {
    "poly-wplus": FamilySpec(
        {"a": 2.0, "b": 1.0}, lambda p: poly_wplus_model(PolyWplusParams(**p))),
    "poly-phi": FamilySpec(
        {"a": 1.0, "b": 1.0, "epsilon": 1.0},
        lambda p: poly_phi_model(PolyPhiParams(**p)), phi_seed=_phi_seed),
    "poly-phi-ces": FamilySpec(
        {"a": 1.0, "b": 1.0}, lambda p: poly_phi_ces_model(**p),
        phi_seed=lambda p: _phi_seed(dict(p, epsilon=ces_epsilon(**p))),
        exact_spectrum=lambda p, n_max: ces_exact_spectrum(**p, n_max=n_max)),
    "sinh-wplus": FamilySpec(
        {"A": 1.0, "alpha": 1.0, "x0": 0.0}, lambda p: sinh_wplus_model(SinhWplusParams(**p))),
}
