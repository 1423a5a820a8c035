"""Supersymmetric factorization scaffolding in natural units (hbar = m = 1).

A superpotential W generates the partner pair

    V_minus(x) = (W(x)^2 - W'(x)) / 2,      V_plus(x) = (W(x)^2 + W'(x)) / 2,

for Hamiltonians H = -(1/2) d^2/dx^2 + V.  When W(x) -> +1 side on the right
and -1 side on the left (the sign condition), exp(-int W) is normalizable and
is the zero-energy ground state of H_minus.  The raising map

    psi -> (-psi' + W psi) / sqrt(2 E)

carries eigenstates of H_plus at energy E to eigenstates of H_minus at the
same energy, one node higher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BrokenSusyError
from .functions import CumulativeIntegral, _sample_finite, cumulative_integral

__all__ = [
    "Superpotential",
    "PotentialPair",
    "Eigenstate",
    "SignConditionCheck",
    "make_superpotential",
    "pair_potentials",
    "check_sign_condition",
    "ground_state_minus",
    "apply_raising",
    "riccati_residual",
]


def _scalar_friendly(fn):
    """Wrap an array-based closure so scalar input returns a plain float.

    A scalar goes in as a 1-element array: numpy evaluates 0-d operands with
    scalar arithmetic (its own pow, for one), whose last bit can differ from
    the array loops, and scalar and array queries must agree bitwise.
    """

    def wrapped(x):
        x = np.asarray(x, dtype=float)
        return fn(x) if x.ndim else float(fn(x.reshape(1))[0])

    return wrapped


@dataclass(frozen=True)
class Superpotential:
    """W(x) with its derivative and an anchored primitive int W dx.

    w_and_wprime samples (W, W') together on an array, from shared generator
    samples where the seed has them; pair_potentials and riccati_residual read it.
    """

    w: Callable
    w_and_wprime: Callable
    integral: CumulativeIntegral
    scale_hint: float = 1.0
    label: str = "W"


def make_superpotential(w, w_and_wprime, base_point=0.0, scale_hint=1.0,
                        label="W") -> Superpotential:
    """Assemble a Superpotential from the array functions w and w_and_wprime,
    the joint sampler x -> (W(x), W'(x)), anchoring the primitive of w at
    base_point.  Scalar queries of w return a float."""
    return Superpotential(_scalar_friendly(w), w_and_wprime,
                          cumulative_integral(w, base_point, scale_hint=scale_hint),
                          float(scale_hint), label)


@dataclass(frozen=True)
class PotentialPair:
    """The two partner potentials generated by one superpotential."""

    v_minus: Callable
    v_plus: Callable


@dataclass(frozen=True)
class Eigenstate:
    """An unnormalized bound state with its known energy and node count.

    psi_prime rides along when the construction knows the derivative
    analytically; quadrature-based checks prefer it over finite differences.
    """

    energy: float
    psi: Callable
    node_count: Optional[int] = None
    psi_prime: Optional[Callable] = None


def pair_potentials(W: Superpotential) -> PotentialPair:
    """V_minus = (W^2 - W')/2 and V_plus = (W^2 + W')/2 as callables.

    Each sample takes W and W' from one W.w_and_wprime call.
    """

    def v_minus(x):
        w, wprime = W.w_and_wprime(x)
        return 0.5 * (w * w - wprime)

    def v_plus(x):
        w, wprime = W.w_and_wprime(x)
        return 0.5 * (w * w + wprime)

    return PotentialPair(_scalar_friendly(v_minus), _scalar_friendly(v_plus))


@dataclass(frozen=True)
class SignConditionCheck:
    """Outcome of the asymptotic sign probe, with the sampled values."""

    ok: bool
    right_samples: tuple
    left_samples: tuple

    def __bool__(self) -> bool:
        return self.ok


def check_sign_condition(W: Superpotential) -> SignConditionCheck:
    """Probe W at 5, 10 and 20 scale hints on both sides of the origin.

    Passes when every right probe is positive and every left probe negative.
    All six probes are one W.w call, through the checked sampler.
    """
    radii = 5.0 * W.scale_hint * np.array([1.0, 2.0, 4.0])
    where = f"the sign-condition probes [{-radii[-1]}, {radii[-1]}]"
    samples = _sample_finite(W.w, np.concatenate([radii, -radii]), where, W.label).tolist()
    right, left = tuple(samples[:3]), tuple(samples[3:])
    ok = all(v > 0 for v in right) and all(v < 0 for v in left)
    return SignConditionCheck(ok, right, left)


def ground_state_minus(W: Superpotential) -> Eigenstate:
    """Zero mode psi0 = exp(-int W dx) of V_minus, at energy exactly 0.

    Raises BrokenSusyError when the sign condition fails, since the candidate
    zero mode is then not normalizable and the partner spectra realign.
    """
    chk = check_sign_condition(W)
    if not chk:
        raise BrokenSusyError(
            f"broken SUSY: zero mode of {W.label} is not normalizable "
            f"(right probes {chk.right_samples}, left probes {chk.left_samples})")

    def psi(x):
        return np.exp(-W.integral(x))

    def psi_prime(x):
        return -W.w(x) * np.exp(-W.integral(x))

    return Eigenstate(0.0, _scalar_friendly(psi), 0, _scalar_friendly(psi_prime))


def apply_raising(W: Superpotential, psi, psi_prime, energy_plus, node_count=None) -> Eigenstate:
    """Map an H_plus eigenstate at energy_plus > 0 into the H_minus tower.

    Returns (-psi' + W psi)/sqrt(2 energy_plus) at the same energy.  The
    normalization keeps unit-norm inputs at unit norm for exact eigenstates.
    The raised derivative follows without differentiating twice: substituting
    psi'' = (W^2 + W' - 2 energy_plus) psi collapses it to
    ((2 energy_plus - W^2) psi + W psi') / sqrt(2 energy_plus).
    """
    if not (energy_plus > 0):
        raise ValueError("cannot raise the zero mode: energy_plus must be > 0")
    scale = 1.0 / math.sqrt(2.0 * energy_plus)
    two_e = 2.0 * energy_plus

    def raised(x):
        return scale * (-psi_prime(x) + W.w(x) * psi(x))

    def raised_prime(x):
        w = W.w(x)
        return scale * ((two_e - w * w) * psi(x) + w * psi_prime(x))

    return Eigenstate(float(energy_plus), _scalar_friendly(raised), node_count,
                      _scalar_friendly(raised_prime))


def riccati_residual(W: Superpotential, W1: Superpotential, epsilon, x):
    """Residual of the level-linking identity W^2 + W' = W1^2 - W1' + 2 eps.

    Identically zero for every validly constructed pair; any nonzero value
    localizes where a claimed (W, W1, eps) triple breaks down.  Each of W and
    W1 is sampled once, through its joint (W, W') sampler.
    """

    def residual(x):
        w, wprime = W.w_and_wprime(x)
        w1, w1prime = W1.w_and_wprime(x)
        return w * w + wprime - w1 * w1 + w1prime - 2.0 * epsilon

    return _scalar_friendly(residual)(x)
