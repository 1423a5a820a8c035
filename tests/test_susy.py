"""Tests for superpotential pairing, the zero mode, and the raising map."""

import math

import numpy as np
import pytest

from qespair.errors import BrokenSusyError
from qespair.susy import (apply_raising, check_sign_condition, ground_state_minus,
                          make_superpotential, pair_potentials, riccati_residual)
from qespair.verify import Grid, _simpson, rayleigh_quotient


def linear_superpotential(slope=1.0):
    # W = slope*x factorizes the harmonic oscillator
    return make_superpotential(
        lambda x: slope * np.asarray(x, dtype=float),
        lambda x: (slope * x, slope * np.ones_like(x)))


class TestPairPotentials:
    def test_harmonic_pair(self):
        pair = pair_potentials(linear_superpotential())
        xs = np.linspace(-3, 3, 13)
        assert np.max(np.abs(pair.v_minus(xs) - 0.5 * (xs * xs - 1))) < 1e-14
        assert np.max(np.abs(pair.v_plus(xs) - 0.5 * (xs * xs + 1))) < 1e-14

    def test_partner_difference_is_the_derivative(self):
        W = make_superpotential(
            lambda x: np.tanh(np.asarray(x, dtype=float)),
            lambda x: (np.tanh(x), 1.0 / np.cosh(x) ** 2))
        pair = pair_potentials(W)
        xs = np.linspace(-4, 4, 17)
        assert np.max(np.abs(pair.v_plus(xs) - pair.v_minus(xs) - W.w_and_wprime(xs)[1])) < 1e-14


class TestSignCondition:
    def test_confining_superpotential_passes(self):
        chk = check_sign_condition(linear_superpotential())
        assert bool(chk) is True
        assert chk.right_samples == (5.0, 10.0, 20.0)
        assert chk.left_samples == (-5.0, -10.0, -20.0)

    def test_reversed_superpotential_fails(self):
        chk = check_sign_condition(linear_superpotential(-1.0))
        assert bool(chk) is False


class TestGroundState:
    def test_zero_mode_is_the_gaussian(self):
        state = ground_state_minus(linear_superpotential())
        assert state.energy == 0.0
        assert state.node_count == 0
        xs = np.linspace(-3, 3, 13)
        assert np.max(np.abs(state.psi(xs) - np.exp(-0.5 * xs * xs))) < 1e-12
        assert np.max(np.abs(state.psi_prime(xs) + xs * np.exp(-0.5 * xs * xs))) < 1e-12

    def test_non_normalizable_zero_mode_is_rejected(self):
        with pytest.raises(BrokenSusyError, match="not normalizable"):
            ground_state_minus(linear_superpotential(-1.0))

    def test_zero_mode_solves_its_schrodinger_equation(self):
        W = make_superpotential(
            lambda x: np.asarray(x, dtype=float) ** 3,
            lambda x: (x ** 3, 3.0 * x ** 2))
        state = ground_state_minus(W)
        pair = pair_potentials(W)
        xs = np.linspace(-1.5, 1.5, 11)
        h = 1e-4
        second = (state.psi(xs + h) - 2 * state.psi(xs) + state.psi(xs - h)) / h ** 2
        residual = -0.5 * second + pair.v_minus(xs) * state.psi(xs)
        assert np.max(np.abs(residual)) < 1e-6


class TestRaisingMap:
    def test_oscillator_first_excited_state(self):
        W = linear_superpotential()
        # ground state of V_plus sits at energy 1 and is the same gaussian
        psi = lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)
        psi_prime = lambda x: -x * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)
        raised = apply_raising(W, psi, psi_prime, 1.0, node_count=1)
        xs = np.linspace(-3, 3, 13)
        expected = math.sqrt(2.0) * xs * np.exp(-0.5 * xs * xs)
        assert np.max(np.abs(raised.psi(xs) - expected)) < 1e-12
        assert raised.energy == 1.0
        assert raised.node_count == 1

    def test_raised_state_rayleigh_quotient_hits_the_energy(self):
        W = linear_superpotential()
        pair = pair_potentials(W)
        psi = lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)
        psi_prime = lambda x: -x * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)
        raised = apply_raising(W, psi, psi_prime, 1.0)
        grid = Grid(10.0, 2001)
        rq = rayleigh_quotient(raised.psi, raised.psi_prime, pair.v_minus, grid)
        assert abs(rq - 1.0) < 1e-6

    def test_raised_state_is_orthogonal_to_the_zero_mode(self):
        W = linear_superpotential()
        ground = ground_state_minus(W)
        psi = lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)
        psi_prime = lambda x: -x * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)
        raised = apply_raising(W, psi, psi_prime, 1.0)
        grid = Grid(10.0, 2001)
        x = grid.points()
        g, r = ground.psi(x), raised.psi(x)
        norm = math.sqrt(_simpson(g * g, grid.h) * _simpson(r * r, grid.h))
        assert abs(_simpson(g * r, grid.h)) / norm < 1e-12

    def test_zero_energy_input_is_refused(self):
        W = linear_superpotential()
        psi = lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)
        with pytest.raises(ValueError, match="zero mode"):
            apply_raising(W, psi, psi, 0.0)


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
    W = linear_superpotential()
    xs = np.linspace(-6, 6, 25)
    assert np.max(np.abs(W.integral(xs) - 0.5 * xs * xs)) < 1e-11
