"""Tests for the two model-construction routes and their cross-check."""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qespair.construct import (build_from_phi, build_from_wplus, cross_check_constructions,
                               epsilon_from_wplus, find_single_zero)
from qespair.errors import (GeneratorAdmissibilityError, ParameterError,
                            PhiNotMonotoneError)
from qespair.expressions import parse_generator
from qespair.functions import make_analytic
from qespair.susy import riccati_residual


def cubic_phi():
    # phi = x + x^3/3, strictly increasing with a single zero at the origin
    return make_analytic(
        lambda x: np.asarray(x, dtype=float) + np.asarray(x, dtype=float) ** 3 / 3.0,
        lambda x: 1.0 + np.asarray(x, dtype=float) ** 2,
        lambda x: 2.0 * np.asarray(x, dtype=float),
        lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
        label="x + x^3/3")


def cubic_wplus():
    # W+ = 2x + x^3, a single transversal zero at the origin
    return make_analytic(
        lambda x: 2.0 * np.asarray(x, dtype=float) + np.asarray(x, dtype=float) ** 3,
        lambda x: 2.0 + 3.0 * np.asarray(x, dtype=float) ** 2,
        lambda x: 6.0 * np.asarray(x, dtype=float),
        lambda x: 6.0 * np.ones_like(np.asarray(x, dtype=float)),
        label="2x + x^3")


def counted(gen):
    """gen with every order wrapped in a call counter, and the counter."""
    calls = collections.Counter()

    def wrap(order):
        fn = getattr(gen, order)

        def call(x):
            calls[order] += 1
            return fn(x)
        return call

    orders = ("eval", "deriv1", "deriv2", "deriv3")
    return dataclasses.replace(gen, **{order: wrap(order) for order in orders}), calls


@pytest.mark.parametrize("route", ["wplus", "phi"])
def test_each_generator_order_is_evaluated_once_per_sample(route):
    if route == "wplus":
        gen, calls = counted(cubic_wplus())
        model = build_from_wplus(gen)
    else:
        gen, calls = counted(cubic_phi())
        model = build_from_phi(gen, 1.0)
    xs = np.linspace(-2.0, 2.0, 9)
    for name in ("W.w", "W1.w", "W.wprime", "W1.wprime"):
        sp, attr = name.split(".")
        calls.clear()
        getattr(getattr(model, sp), attr)(xs)
        assert calls and max(calls.values()) == 1, (name, dict(calls))


class TestFindSingleZero:
    def test_origin_zero_even_when_sampled_exactly(self):
        # the scan grid hits x=0 head on; it must count one crossing, not two
        assert find_single_zero(parse_generator("2*x + x^3")) == 0.0

    def test_shifted_zero_is_polished_to_high_accuracy(self):
        g = parse_generator("sinh(x) - sinh(0.7)")
        assert find_single_zero(g) == pytest.approx(0.7, abs=1e-12)

    def test_no_crossing_is_reported(self):
        with pytest.raises(GeneratorAdmissibilityError, match="no zero crossing"):
            find_single_zero(parse_generator("x^2 + 1"))

    def test_multiple_zeros_are_reported(self):
        with pytest.raises(GeneratorAdmissibilityError, match="multiple zeros"):
            find_single_zero(parse_generator("x^3 - 3*x"))

    def test_search_radius_override(self):
        g = parse_generator("x - 6")
        with pytest.raises(GeneratorAdmissibilityError, match="no zero crossing"):
            find_single_zero(g, search_radius=4.0)
        assert find_single_zero(g, search_radius=10.0) == pytest.approx(6.0, abs=1e-12)


class TestEpsilonFromSlope:
    def test_half_the_slope_at_the_node(self):
        g = parse_generator("2*x + x^3")
        assert epsilon_from_wplus(g, 0.0) == 1.0

    def test_wrong_orientation_is_rejected(self):
        g = parse_generator("-x")
        with pytest.raises(GeneratorAdmissibilityError, match="wrongly oriented"):
            epsilon_from_wplus(g, 0.0)


class TestBuildFromWplus:
    def test_splitting_reassembles_the_seed(self):
        model = build_from_wplus(parse_generator("2*x + x^3"))
        xs = model.probe_points()
        total = model.W.w(xs) + model.W1.w(xs)
        assert np.max(np.abs(total - model.w_plus(xs))) < 1e-12

    def test_first_excited_state_vanishes_at_the_node(self):
        model = build_from_wplus(parse_generator("sinh(x) - sinh(0.4)"))
        assert abs(float(model.psi1.psi(model.x0))) < 1e-12
        assert model.psi1.energy == model.epsilon

    def test_level_linking_identity_holds_on_the_probe_grid(self):
        model = build_from_wplus(parse_generator("2*x + x^3"))
        xs = model.probe_points()
        res = riccati_residual(model.W, model.W1, model.epsilon, xs)
        assert np.max(np.abs(res)) < 1e-9

    def test_superpotential_is_smooth_across_the_patch_boundary(self):
        model = build_from_wplus(parse_generator("2*x + x^3"))
        delta = 1e-3 * model.scale_hint
        inside = float(model.W.w(model.x0 + 0.99 * delta))
        outside = float(model.W.w(model.x0 + 1.01 * delta))
        slope = abs(float(model.W.wprime(model.x0)))
        assert abs(outside - inside) < 0.05 * max(slope, 1.0) * delta

    def test_provenance_records_the_route(self):
        model = build_from_wplus(parse_generator("2*x + x^3"))
        assert model.provenance["route"] == "wplus-generator"

    def test_reversed_seed_fails_admissibility(self):
        with pytest.raises(GeneratorAdmissibilityError):
            build_from_wplus(parse_generator("-x"))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.5, 2.5), st.floats(0.1, 1.2), st.floats(-0.4, 0.4))
    def test_random_seeds_link_levels_exactly(self, c1, c3, c2):
        gen = parse_generator(f"{c1}*x + {c2}*x^2 + {c3}*x^3", scale_hint=0.8)
        model = build_from_wplus(gen)
        xs = model.probe_points()
        res = riccati_residual(model.W, model.W1, model.epsilon, xs)
        assert np.max(np.abs(res)) < 1e-9
        assert model.epsilon > 0


class TestBuildFromPhi:
    def test_superpotentials_from_the_shape_function(self):
        model = build_from_phi(cubic_phi(), 1.0)
        # at x=1: phi=4/3, phi'=2, phi''=2 so W=(1+4/3)/2 and W1=(4/3-1)/2
        assert float(model.W.w(1.0)) == pytest.approx(7.0 / 6.0, rel=1e-14)
        assert float(model.W1.w(1.0)) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_epsilon_is_the_level_gap(self):
        model = build_from_phi(cubic_phi(), 2.0)
        assert model.epsilon == 2.0
        assert model.psi0.energy == 0.0
        assert model.psi1.energy == 2.0

    def test_first_excited_state_is_phi_times_the_ground_state(self):
        phi = cubic_phi()
        model = build_from_phi(phi, 1.0)
        xs = np.linspace(-2, 2, 9)
        assert np.max(np.abs(model.psi1.psi(xs) - phi.eval(xs) * model.psi0.psi(xs))) < 1e-13

    def test_combined_superpotential_is_recorded(self):
        phi = cubic_phi()
        model = build_from_phi(phi, 1.5)
        xs = np.linspace(-2, 2, 9)
        expected = 2.0 * 1.5 * phi.eval(xs) / phi.deriv1(xs)
        assert np.max(np.abs(model.w_plus(xs) - expected)) < 1e-13
        assert np.max(np.abs(model.W.w(xs) + model.W1.w(xs) - expected)) < 1e-13

    def test_level_linking_identity_is_algebraic(self):
        model = build_from_phi(cubic_phi(), 1.0)
        xs = model.probe_points()
        assert np.max(np.abs(riccati_residual(model.W, model.W1, 1.0, xs))) < 1e-12

    def test_decreasing_shape_is_rejected(self):
        with pytest.raises(PhiNotMonotoneError, match="monotonically increasing"):
            build_from_phi(parse_generator("x - x^3/3"), 1.0)

    def test_nonpositive_gap_is_rejected(self):
        with pytest.raises(ParameterError, match="epsilon"):
            build_from_phi(cubic_phi(), 0.0)

    def test_provenance_records_the_route(self):
        model = build_from_phi(cubic_phi(), 1.0)
        assert model.provenance["route"] == "phi-generator"


class TestCrossCheck:
    def test_routes_agree_for_the_cubic_shape(self):
        result = cross_check_constructions(cubic_phi(), 1.0)
        assert result.max_discrepancy < 1e-8
        assert result.model_phi.provenance["route"] == "phi-generator"
        assert result.model_wplus.provenance["route"] == "wplus-generator"

    def test_routes_agree_for_a_parsed_shape(self):
        result = cross_check_constructions(parse_generator("x + x^3/3"), 2.0)
        assert result.max_discrepancy < 1e-8

    def test_discrepancy_fields_are_all_small(self):
        result = cross_check_constructions(cubic_phi(), 1.0)
        assert result.v_minus_sup < 1e-8
        assert result.psi0_sup < 1e-8
        assert result.psi1_sup < 1e-8
        assert result.max_discrepancy == max(result.v_minus_sup, result.psi0_sup,
                                             result.psi1_sup)


def test_probe_grid_is_centered_on_the_node():
    model = build_from_wplus(parse_generator("sinh(x) - sinh(0.4)"))
    xs = model.probe_points()
    assert len(xs) == 401
    assert xs[len(xs) // 2] == pytest.approx(model.x0, abs=1e-12)
    assert xs[-1] - xs[0] == pytest.approx(16.0 * model.scale_hint, rel=1e-12)
