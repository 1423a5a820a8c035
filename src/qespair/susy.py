"""Supersymmetric factorization scaffolding in natural units (hbar = m = 1).

A superpotential W generates the partner pair

    V_minus(x) = (W(x)^2 - W'(x)) / 2,      V_plus(x) = (W(x)^2 + W'(x)) / 2,

for Hamiltonians H = -(1/2) d^2/dx^2 + V.  When W(x) -> +1 side on the right
and -1 side on the left (the sign condition), exp(-int W) is normalizable and
is the zero-energy ground state of H_minus; check_sign_condition refuses a W
that fails it.

Every model callable here takes an array and returns an array of its shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InadmissibleModelError
from .functions import _sample_finite, cumulative_integral

__all__ = [
    "Superpotential",
    "PotentialPair",
    "Eigenstate",
    "zero_mode",
    "pair_potentials",
    "partner_potential",
    "check_sign_condition",
    "riccati_residual",
]


@dataclass(frozen=True)
class Superpotential:
    """W(x) and its joint sampler x -> (W(x), W'(x)), both on arrays.

    w_and_wprime samples (W, W') together, from shared generator samples
    where the seed has them; pair_potentials and riccati_residual read it.
    scale_hint is the length the sign probes and zero_mode's panels use.
    """

    w: Callable
    w_and_wprime: Callable
    scale_hint: float = 1.0
    label: str = "W"


@dataclass(frozen=True)
class PotentialPair:
    """The two partner potentials generated by one superpotential."""

    v_minus: Callable
    v_plus: Callable


@dataclass(frozen=True)
class Eigenstate:
    """An unnormalized bound state psi, an array function, at its known energy."""

    energy: float
    psi: Callable


def partner_potential(w, wprime, sign: float):
    """(W^2 + sign W')/2 from samples of W and W': V_plus at sign 1, V_minus at -1.

    -1.0 * W' is an exact negation, so V_minus has the bits of (W^2 - W')/2.
    """
    return 0.5 * (w * w + sign * wprime)


def pair_potentials(W: Superpotential) -> PotentialPair:
    """V_minus and V_plus (partner_potential) as callables.

    Each sample takes W and W' from one W.w_and_wprime call.
    """

    def potential(sign):
        return lambda x: partner_potential(*W.w_and_wprime(x), sign)

    return PotentialPair(potential(-1.0), potential(1.0))


def zero_mode(W: Superpotential, x0: float) -> Callable:
    """x -> exp(-int_x0^x W), the zero mode of H_minus that W factorizes.

    The primitive is one memoizing CumulativeIntegral anchored at x0, with
    panels W.scale_hint wide.
    """
    integral = cumulative_integral(W.w, x0, scale_hint=W.scale_hint)
    return lambda x: np.exp(-integral(x))


def check_sign_condition(W: Superpotential) -> None:
    """Probe W at 5, 10 and 20 scale hints on both sides of the origin.

    Raises InadmissibleModelError, naming W and the six samples, unless every
    right probe is positive and every left probe negative.  All six probes
    are one W.w call, through the checked sampler.
    """
    radii = 5.0 * W.scale_hint * np.array([1.0, 2.0, 4.0])
    where = f"the sign-condition probes [{-radii[-1]}, {radii[-1]}]"
    samples = _sample_finite(W.w, np.concatenate([radii, -radii]), where, W.label).tolist()
    right, left = tuple(samples[:3]), tuple(samples[3:])
    if not (all(v > 0 for v in right) and all(v < 0 for v in left)):
        raise InadmissibleModelError(f"inadmissible construction: {W.label} fails the sign "
                                     f"condition (right {right}, left {left})")


def riccati_residual(W: Superpotential, W1: Superpotential, epsilon, x):
    """Residual of the level-linking identity W^2 + W' = W1^2 - W1' + 2 eps.

    Identically zero for every validly constructed pair; any nonzero value
    localizes where a claimed (W, W1, eps) triple breaks down.  Each of W and
    W1 is sampled once, through its joint (W, W') sampler.
    """
    w, wprime = W.w_and_wprime(x)
    w1, w1prime = W1.w_and_wprime(x)
    return w * w + wprime - w1 * w1 + w1prime - 2.0 * epsilon
