"""Hand-derived closed forms of the polynomial families, the reference the
generic construction routes are tested against.

They share no algebra with :mod:`qespair.construct`: each is the family's
potential or state written out by substituting its seed into the factorized
pair by hand.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClosedForms:
    v_minus: object = None
    v_plus: object = None
    psi0: object = None
    psi1: object = None


def poly_wplus_closed_forms(a, b):
    """V_minus, psi0 and psi1 of W_plus = a x + b x^3, as quoted in
    qespair.families.poly_wplus_model (the states unnormalized)."""

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

    return ClosedForms(v_minus=v_minus, psi0=psi0, psi1=psi1)


@dataclass(frozen=True)
class PolyPhiCoefficients:
    """The potential coefficients of phi = a x + b x^3/3 at gap eps.

    In terms of q = a + b x^2 the partner potentials are

        V_minus = (coeff_x2/2) x^2 + coeff_inv_minus/q + coeff_inv2_minus/q^2
                  + offset_minus
        V_plus  = (coeff_x2/2) x^2 + coeff_inv2_plus/q^2 + offset_plus

    (no 1/q term survives on the plus side).  Note offset_plus - offset_minus
    = eps/3, matching V_plus - V_minus = W' at infinity.
    """

    coeff_x2: float
    coeff_inv_minus: float
    coeff_inv2_minus: float
    coeff_inv2_plus: float
    offset_minus: float
    offset_plus: float


def poly_phi_coefficients(a, b, e):
    return PolyPhiCoefficients(
        coeff_x2=e * e / 9.0,
        coeff_inv_minus=b + 2.0 * a * e / 3.0,
        coeff_inv2_minus=-(27.0 * a * b * b + 24.0 * a * a * b * e + 4.0 * a ** 3 * e * e)
        / (18.0 * b),
        coeff_inv2_plus=(9.0 * a * b * b - 4.0 * a ** 3 * e * e) / (18.0 * b),
        offset_minus=e * (3.0 * b + 4.0 * a * e) / (18.0 * b),
        offset_plus=e * (9.0 * b + 4.0 * a * e) / (18.0 * b))


def poly_phi_closed_forms(a, b, e):
    """V_minus, V_plus, psi0 and psi1 of phi = a x + b x^3/3 at gap e, the
    states as quoted in qespair.families.poly_phi_model (unnormalized)."""
    p = poly_phi_coefficients(a, b, e)

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

    return ClosedForms(v_minus=v_minus, v_plus=v_plus, psi0=psi0, psi1=psi1)
