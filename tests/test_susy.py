"""Tests for superpotential pairing and the sign condition."""

import numpy as np
import pytest

from qespair.errors import InadmissibleModelError
from qespair.susy import (Superpotential, check_sign_condition, pair_potentials,
                          riccati_residual, zero_mode)


def linear_superpotential(slope=1.0):
    # W = slope*x factorizes the harmonic oscillator
    return Superpotential(lambda x: slope * x, lambda x: (slope * x, slope * np.ones_like(x)))


class TestPairPotentials:
    def test_harmonic_pair(self):
        pair = pair_potentials(linear_superpotential())
        xs = np.linspace(-3, 3, 13)
        assert np.max(np.abs(pair.v_minus(xs) - 0.5 * (xs * xs - 1))) < 1e-14
        assert np.max(np.abs(pair.v_plus(xs) - 0.5 * (xs * xs + 1))) < 1e-14

    def test_partner_difference_is_the_derivative(self):
        W = Superpotential(np.tanh, lambda x: (np.tanh(x), 1.0 / np.cosh(x) ** 2))
        pair = pair_potentials(W)
        xs = np.linspace(-4, 4, 17)
        assert np.max(np.abs(pair.v_plus(xs) - pair.v_minus(xs) - W.w_and_wprime(xs)[1])) < 1e-14


class TestSignCondition:
    def test_confining_superpotential_passes(self):
        assert check_sign_condition(linear_superpotential()) is None

    def test_reversed_superpotential_fails_with_its_samples(self):
        with pytest.raises(InadmissibleModelError) as refused:
            check_sign_condition(linear_superpotential(-1.0))
        assert str(refused.value) == ("inadmissible construction: W fails the sign condition "
                                      "(right (-5.0, -10.0, -20.0), left (5.0, 10.0, 20.0))")


class TestRiccatiResidual:
    def test_matched_pair_has_zero_residual(self):
        W = linear_superpotential()
        xs = np.linspace(-4, 4, 17)
        # W1 = W shifted by nothing: W^2 + W' = W1^2 - W1' + 2*eps forces eps = W'
        assert np.max(np.abs(riccati_residual(W, W, 1.0, xs))) < 1e-14

    def test_wrong_gap_shows_up_linearly(self):
        W = linear_superpotential()
        xs = np.linspace(-4, 4, 17)
        res = riccati_residual(W, W, 1.0 + 5e-4, xs)
        assert np.max(np.abs(res)) == pytest.approx(1e-3, rel=1e-10)


def test_superpotential_integral_matches_closed_form():
    # exp(-int_0^x W) of W = x is the oscillator ground state exp(-x^2/2)
    psi = zero_mode(linear_superpotential(), 0.0)
    xs = np.linspace(-6, 6, 25)
    assert np.max(np.abs(psi(xs) - np.exp(-0.5 * xs * xs))) < 1e-11
