"""Tests for the built-in model families and their closed forms."""

import math

import numpy as np
import pytest

from qespair.errors import ParameterError
from qespair.families import (FAMILIES, PolyPhiParams, PolyWplusParams, SinhWplusParams,
                              ces_epsilon, ces_exact_spectrum, ces_excited_states,
                              poly_phi_ces_model, poly_phi_generator, poly_phi_model,
                              poly_wplus_generator, poly_wplus_model, sinh_wplus_model)
from qespair.functions import validate_derivatives
from qespair.verify import auto_grid, count_nodes, rayleigh_quotient, verify_model


class TestPolynomialSeeds:
    XS = np.array([-4.5, -2.0, -0.7, -0.3, 0.0, 0.3, 1.25, 3.5])
    # closed polynomials and their derivatives, orders 0..3
    SEEDS = {
        "poly-wplus": (lambda: poly_wplus_generator(PolyWplusParams(2.0, 1.5)),
                       [lambda x: 2.0 * x + 1.5 * x ** 3, lambda x: 2.0 + 4.5 * x ** 2,
                        lambda x: 9.0 * x, lambda x: np.full_like(x, 9.0)]),
        "poly-phi": (lambda: poly_phi_generator(PolyPhiParams(2.0, 1.5, 1.0)),
                     [lambda x: 2.0 * x + 0.5 * x ** 3, lambda x: 2.0 + 1.5 * x ** 2,
                      lambda x: 3.0 * x, lambda x: np.full_like(x, 3.0)]),
    }

    @pytest.mark.parametrize("family", sorted(SEEDS))
    def test_every_order_matches_the_closed_polynomial(self, family):
        make, closed = self.SEEDS[family]
        gen = make()
        for fn, want in zip((gen.eval, gen.deriv1, gen.deriv2, gen.deriv3), closed):
            np.testing.assert_allclose(fn(self.XS), want(self.XS), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("family", sorted(SEEDS))
    def test_derivative_chain_is_consistent(self, family):
        assert validate_derivatives(self.SEEDS[family][0](), self.XS) == []

    @pytest.mark.parametrize("family", sorted(SEEDS))
    def test_orders_keep_the_shape_of_their_input(self, family):
        gen = self.SEEDS[family][0]()
        grid = self.XS.reshape(2, 4)
        for fn in (gen.eval, gen.deriv1, gen.deriv2, gen.deriv3):
            assert fn(grid).shape == grid.shape
            assert isinstance(float(fn(-0.7)), float)


class TestPolyWplus:
    def test_level_gap_is_half_of_a(self):
        assert poly_wplus_model(PolyWplusParams(2.0, 1.0)).epsilon == 1.0
        assert poly_wplus_model(PolyWplusParams(3.0, 1.0)).epsilon == 1.5

    def test_level_gap_ignores_b(self):
        gaps = {poly_wplus_model(PolyWplusParams(2.0, b)).epsilon for b in (0.5, 1.0, 2.0)}
        assert gaps == {1.0}

    def test_closed_forms_match_the_construction(self):
        model = poly_wplus_model(PolyWplusParams(2.0, 1.0))
        xs = model.probe_points()
        cf = model.closed_form
        assert np.max(np.abs(cf.v_minus(xs) - model.potentials.v_minus(xs))) < 1e-10
        # wavefunctions share a normalization, so compare their ratio
        mid = np.abs(xs) < 3.0
        ratio = model.psi0.psi(xs[mid]) / cf.psi0(xs[mid])
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10

    def test_far_tails_evaluate_without_recursion(self):
        # 1600 panels out, past the default recursion limit
        model = poly_wplus_model(PolyWplusParams(2.0, 1.0))
        assert model.psi0.psi(200.0) == 0.0
        assert model.psi0.psi(-200.0) == 0.0

    def test_potential_value_at_the_origin(self):
        # a=2, b=1: constant terms 3ab/(8a^2) + 3b/(8a) - a/2... collapsed by hand
        model = poly_wplus_model(PolyWplusParams(2.0, 1.0))
        assert float(model.potentials.v_minus(0.0)) == pytest.approx(-0.125, abs=1e-13)

    def test_node_structure(self):
        model = poly_wplus_model(PolyWplusParams(2.0, 1.0))
        xs = model.probe_points()
        assert count_nodes(model.psi0.psi(xs)) == 0
        assert count_nodes(model.psi1.psi(xs)) == 1

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-2.0, 1.0), (2.0, 0.0), (2.0, -1.0)])
    def test_nonpositive_parameters_are_rejected(self, a, b):
        with pytest.raises(ParameterError, match="must be > 0"):
            PolyWplusParams(a, b)


class TestPolyPhi:
    def test_quadratic_coefficient_of_the_potential_tail(self):
        model = poly_phi_model(PolyPhiParams(1.0, 1.0, 1.0))
        xs = np.array([30.0, 40.0])
        tail = model.potentials.v_minus(xs) / xs ** 2
        assert np.max(np.abs(tail - 1.0 / 18.0)) < 1e-3

    def test_closed_form_coefficients_at_the_reference_point(self):
        # derived by substituting phi' = a + b x^2 into the factorized pair
        model = poly_phi_model(PolyPhiParams(1.0, 1.0, 1.0))
        xs = model.probe_points()
        q = 1.0 + xs ** 2
        v_minus = xs ** 2 / 18.0 + (5.0 / 3.0) / q - (55.0 / 18.0) / q ** 2 + 7.0 / 18.0
        v_plus = xs ** 2 / 18.0 + (5.0 / 18.0) / q ** 2 + 13.0 / 18.0
        assert np.max(np.abs(model.potentials.v_minus(xs) - v_minus)) < 1e-10
        assert np.max(np.abs(model.potentials.v_plus(xs) - v_plus)) < 1e-10

    def test_partner_offsets_differ_by_a_third_of_the_gap(self):
        for a, b, eps in [(1.0, 1.0, 1.0), (2.0, 0.5, 0.7), (0.5, 2.0, 3.0)]:
            params = PolyPhiParams(a, b, eps)
            assert params.offset_plus - params.offset_minus == pytest.approx(
                eps / 3.0, rel=1e-12)

    def test_ground_state_closed_form(self):
        model = poly_phi_model(PolyPhiParams(1.0, 1.0, 1.0))
        xs = np.linspace(-3, 3, 13)
        expected = (1.0 + xs ** 2) ** (-0.5 - 1.0 / 3.0) * np.exp(-xs ** 2 / 6.0)
        ratio = model.psi0.psi(xs) / expected
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12

    def test_closed_forms_match_the_construction(self):
        model = poly_phi_model(PolyPhiParams(2.0, 0.5, 0.7))
        xs = model.probe_points()
        cf = model.closed_form
        assert np.max(np.abs(cf.v_minus(xs) - model.potentials.v_minus(xs))) < 1e-12
        assert np.max(np.abs(cf.v_plus(xs) - model.potentials.v_plus(xs))) < 1e-12
        # wavefunctions share a normalization, so compare their ratio
        ratio0 = model.psi0.psi(xs) / cf.psi0(xs)
        assert np.max(np.abs(ratio0 / ratio0[0] - 1.0)) < 1e-12
        off_node = xs != model.x0  # psi1 vanishes at the node
        ratio1 = model.psi1.psi(xs[off_node]) / cf.psi1(xs[off_node])
        assert np.max(np.abs(ratio1 / ratio1[0] - 1.0)) < 1e-12

    def test_nonpositive_parameters_are_rejected(self):
        with pytest.raises(ParameterError, match="epsilon must be > 0"):
            PolyPhiParams(1.0, 1.0, -0.5)


class TestCes:
    def test_constraint_point(self):
        assert ces_epsilon(1.0, 1.0) == 1.5
        assert ces_epsilon(2.0, 1.0) == 0.75

    def test_partner_potential_collapses_to_a_pure_oscillator(self):
        model = poly_phi_ces_model(1.0, 1.0)
        xs = model.probe_points()
        ho = xs ** 2 / 8.0 + 1.25
        assert np.max(np.abs(model.potentials.v_plus(xs) - ho)) < 1e-12

    def test_exact_ladder(self):
        assert ces_exact_spectrum(1.0, 1.0, 5) == [0.0, 1.5, 2.0, 2.5, 3.0, 3.5]
        assert ces_exact_spectrum(2.0, 1.0, 3) == [0.0, 0.75, 1.0, 1.25]

    def test_excited_states_have_the_right_nodes_and_energies(self):
        for n in (1, 2, 3):
            state = ces_excited_states(1.0, 1.0, n)
            assert state.energy == pytest.approx(ces_exact_spectrum(1.0, 1.0, n)[n])
            assert state.node_count == n

    def test_excited_states_solve_the_eigenproblem(self):
        model = poly_phi_ces_model(1.0, 1.0)
        grid = auto_grid(model)
        for n in (1, 2, 3):
            state = ces_excited_states(1.0, 1.0, n)
            rq = rayleigh_quotient(state.psi, state.psi_prime,
                                   model.potentials.v_minus, grid)
            assert abs(rq - state.energy) < 1e-6

    def test_node_free_index_is_refused(self):
        with pytest.raises(ParameterError, match="n must be >= 1"):
            ces_excited_states(1.0, 1.0, 0)


class TestSinhWplus:
    def test_level_gap_tracks_the_node_location(self):
        flat = sinh_wplus_model(SinhWplusParams(1.0, 1.0, 0.0))
        offset = sinh_wplus_model(SinhWplusParams(1.0, 1.0, 0.5))
        assert flat.epsilon == pytest.approx(0.5, rel=1e-12)
        assert offset.epsilon == pytest.approx(0.5 * math.cosh(0.5), rel=1e-10)

    def test_node_location_is_recovered(self):
        model = sinh_wplus_model(SinhWplusParams(1.0, 2.0, -0.3))
        assert model.x0 == pytest.approx(-0.3, abs=1e-10)

    def test_double_well_shape_at_centered_node(self):
        model = sinh_wplus_model(SinhWplusParams(1.0, 1.0, 0.0))
        v = model.potentials.v_minus
        assert float(v(0.0)) < float(v(2.5))
        xs = model.probe_points()
        assert np.max(np.abs(v(xs) - v(-xs))) < 1e-9

    def test_amplitude_must_be_positive(self):
        with pytest.raises(ParameterError, match="A must be > 0"):
            SinhWplusParams(-1.0, 1.0)


class TestRegistry:
    def test_expected_families_are_present(self):
        assert set(FAMILIES) == {"poly-wplus", "poly-phi", "poly-phi-ces", "sinh-wplus"}

    def test_defaults_build_and_verify(self):
        for name, spec in FAMILIES.items():
            model = spec.build(dict(spec.defaults))
            assert model.epsilon > 0, name

    def test_phi_based_flags(self):
        assert FAMILIES["poly-phi"].phi_based
        assert FAMILIES["poly-phi-ces"].phi_based
        assert not FAMILIES["poly-wplus"].phi_based
        assert not FAMILIES["sinh-wplus"].phi_based

    def test_default_models_pass_verification(self):
        for name, spec in FAMILIES.items():
            report = verify_model(spec.build(dict(spec.defaults)))
            assert report.passed, (name, report.checks)
