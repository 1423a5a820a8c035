"""Tests for the two model-construction routes and their cross-check."""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from qespair import construct
from qespair.construct import (build_from_phi, build_from_wplus, cross_check_constructions,
                               find_single_zero)
from qespair.errors import (GeneratorAdmissibilityError, InadmissibleModelError,
                            ParameterError, PhiNotMonotoneError, QueryRangeError)
from qespair.expressions import parse_generator
from qespair.families import FAMILIES
from qespair.functions import GeneratorFunction
from qespair.susy import check_sign_condition, riccati_residual
from qespair.verify import Grid, _simpson, auto_grid, verify_model


def cubic_phi():
    # phi = x + x^3/3, strictly increasing with a single zero at the origin
    return GeneratorFunction(
        lambda x: np.asarray(x, dtype=float) + np.asarray(x, dtype=float) ** 3 / 3.0,
        lambda x: 1.0 + np.asarray(x, dtype=float) ** 2,
        lambda x: 2.0 * np.asarray(x, dtype=float),
        lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
        label="x + x^3/3")


def cubic_wplus():
    # W+ = 2x + x^3, a single transversal zero at the origin
    return GeneratorFunction(
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
    for name in ("W.w", "W1.w", "W.w_and_wprime", "W1.w_and_wprime",
                 "potentials.v_minus", "potentials.v_plus"):
        sp, attr = name.split(".")
        calls.clear()
        getattr(getattr(model, sp), attr)(xs)
        assert calls and max(calls.values()) == 1, (name, dict(calls))
    # the level-linking residual takes one joint (W, W') sample each of W and W1
    calls.clear()
    riccati_residual(model.W, model.W1, model.epsilon, xs)
    assert calls and max(calls.values()) == 2, ("riccati_residual", dict(calls))


@pytest.mark.parametrize("route", ["wplus", "phi"])
def test_sign_probes_evaluate_each_generator_order_once(route):
    gen, calls = counted(cubic_wplus() if route == "wplus" else cubic_phi())
    model = build_from_wplus(gen) if route == "wplus" else build_from_phi(gen, 1.0)
    radii = 5.0 * model.scale_hint * np.array([1.0, 2.0, 4.0])
    for sp in (model.W, model.W1):
        calls.clear()
        check_sign_condition(sp)
        assert calls and max(calls.values()) == 1, dict(calls)
        # -W fails on every probe, and the refusal quotes the six samples
        flipped = dataclasses.replace(sp, w=lambda x, w=sp.w: -w(x))
        calls.clear()
        with pytest.raises(InadmissibleModelError) as refused:
            check_sign_condition(flipped)
        assert calls and max(calls.values()) == 1, dict(calls)
        right, left = tuple(flipped.w(radii).tolist()), tuple(flipped.w(-radii).tolist())
        assert str(refused.value) == (f"inadmissible construction: {sp.label} fails the sign "
                                      f"condition (right {right}, left {left})")


STATE_MODELS = {
    **{name: (lambda spec=spec: spec.build(dict(spec.defaults)))
       for name, spec in FAMILIES.items()},
    "custom-wplus": lambda: build_from_wplus(parse_generator("sinh(x - 0.4)")),
    "custom-phi": lambda: build_from_phi(parse_generator("x + tanh(x)"), 1.5),
}


@pytest.mark.parametrize("name", sorted(STATE_MODELS))
def test_joint_states_equal_each_state_bitwise(name):
    model = STATE_MODELS[name]()
    grid = auto_grid(model)
    edges = np.array([grid.L, -grid.L])
    for xs, single in ((grid.points(), False), (edges, True)):
        for joint, state in zip(model.states(xs), (model.psi0, model.psi1)):
            alone = (np.concatenate([state.psi(xs[i:i + 1]) for i in range(xs.size)])
                     if single else state.psi(xs))
            assert np.array_equal(joint, alone), name


@pytest.mark.parametrize("name", sorted(STATE_MODELS))
def test_ground_state_slope_is_minus_w_times_the_state(name):
    # psi0 is the zero mode of W on both routes, so psi0' = -W psi0
    model = STATE_MODELS[name]()
    grid = auto_grid(model)
    x = np.linspace(-0.6 * grid.L, 0.6 * grid.L, 801)
    step = 1e-5 * model.scale_hint
    slope = -model.W.w(x) * model.psi0.psi(x)
    central = (model.psi0.psi(x + step) - model.psi0.psi(x - step)) / (2.0 * step)
    assert np.max(np.abs(slope - central)) <= 1e-8 * np.max(np.abs(slope)), name


@pytest.mark.parametrize("name", sorted(STATE_MODELS))
def test_rayleigh_quotient_of_the_ground_state_is_zero(name):
    # <psi0|H-|psi0> with the kinetic term integrated by parts and psi0' = -W psi0
    model = STATE_MODELS[name]()
    grid = auto_grid(model)
    x = grid.points()
    p = model.psi0.psi(x)
    dp = -model.W.w(x) * p
    num = _simpson(0.5 * dp * dp + model.potentials.v_minus(x) * p * p, grid.h)
    assert abs(num / _simpson(p * p, grid.h)) <= 1e-12 * max(1.0, model.epsilon), name


def test_verify_samples_the_shape_quadrature_once_per_point_set(monkeypatch):
    queries = []
    original = construct.cumulative_integral

    def recording(integrand, *args, **kwargs):
        inner = original(integrand, *args, **kwargs)

        def query(x):
            queries.append(np.asarray(x, dtype=float).tobytes())
            return inner(x)
        return query

    # the phi route's only construct-level quadrature is psi0's shape integral
    monkeypatch.setattr(construct, "cumulative_integral", recording)
    model = build_from_phi(cubic_phi(), 1.0)
    queries.clear()
    verify_model(model, Grid(6.0, 2001))
    assert len(queries) == 2  # the grid and the residual stencil
    queries.clear()
    verify_model(model)
    assert queries and len(set(queries)) == len(queries)


def _scalar_scan(xs, vals):
    """The crossings of the reference walk: each exact zero's x, and the left
    end of each sign change between two nonzero neighbours, in scan order."""
    crossings, last_sign, last_x = [], 0, None
    for x, v in zip(xs.tolist(), np.asarray(vals).tolist()):
        sign = 0 if v == 0.0 else (1 if v > 0 else -1)
        if sign == 0:
            crossings.append(x)
        elif last_sign != 0 and sign != last_sign:
            crossings.append(last_x)
        last_sign, last_x = sign, x
    return crossings


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

    @pytest.mark.parametrize("expr", ["x^3 - 3*x", "x*(x - 2)^2", "x*(x - 2)*(x + 2.01)",
                                      "sin(x)", "x^2 - 4", "(x - 1)^2*(x + 1)"])
    def test_multiple_zeros_are_listed_as_the_scalar_walk_finds_them(self, expr):
        g = parse_generator(expr)
        xs = construct.probe_grid(0.0, g.scale_hint)
        crossings = _scalar_scan(xs, g.eval(xs))
        assert len(crossings) > 1
        with pytest.raises(GeneratorAdmissibilityError) as refused:
            find_single_zero(g)
        assert str(refused.value) == f"{expr} has multiple zeros (near {crossings}): not supported"

    def test_zero_beyond_the_scan_radius_is_refused(self):
        # the scan covers 8 scale hints on either side of the origin
        with pytest.raises(GeneratorAdmissibilityError, match="no zero crossing"):
            find_single_zero(parse_generator("x - 9"))
        assert find_single_zero(parse_generator("x - 6")) == pytest.approx(6.0, abs=1e-12)
        assert find_single_zero(parse_generator("x - 9", scale_hint=2.0)) == pytest.approx(
            9.0, abs=1e-12)

    @pytest.mark.parametrize("expr", ["x^3 + x - 0.5", "sinh(x - 0.4)",
                                      "2*x + tanh(x - 0.3)",
                                      "x + 0.3*x^3 + 0.5*tanh(2*x - 1)", "0.5*x - 0.35"])
    def test_off_grid_zero_matches_brent_at_its_tolerance(self, expr):
        g = parse_generator(expr)
        xs = construct.probe_grid(0.0, g.scale_hint)
        i = int(np.argmax(np.asarray(g.eval(xs)) > 0))
        reference = brentq(lambda t: float(g.eval(t)), xs[i - 1], xs[i],
                           xtol=1e-15, rtol=8.9e-16)
        x0 = find_single_zero(g)
        assert abs(x0 - reference) <= 1e-15 + 8.9e-16 * abs(x0)

    def test_zero_on_the_scan_grid_is_not_polished(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an exact zero on the grid was polished")
        monkeypatch.setattr(construct, "_polish_zero", refuse)
        assert find_single_zero(parse_generator("2*x + x^3")) == 0.0

    def test_flat_zero_terminates_close_to_the_root(self):
        # f' vanishes at the root, so Newton only gains a factor 2/3 a step
        assert abs(find_single_zero(parse_generator("(x - 0.7)^3")) - 0.7) < 1e-15

    @pytest.mark.parametrize("s", [1.0, 1e-3, 1e-12, 1e-16, 1e-20])
    def test_polish_stops_in_scale_hints(self, s):
        # the scan bracket is 0.04 scale hints wide; an absolute stopping
        # width of 1e-15 returned its midpoint unpolished below s ~ 2.5e-14
        g = parse_generator(f"(x/{s!r} - 0.3 + (x/{s!r})^3)/{s!r}", scale_hint=s)
        assert find_single_zero(g) / s == 0.2784179903218099

    def test_tiny_scale_linear_seed_has_its_node_at_the_origin(self):
        # the unscaled stop accepted x0 = -2e-18, 0.02 scale hints off the zero
        assert build_from_wplus(parse_generator("x", scale_hint=1e-16)).x0 == 0.0

    def test_ces_scan_midpoint_polishes_to_the_exact_zero(self):
        # the scan bracket's midpoint is 2.2e-16, not 0; an absolute stopping width
        # of 1e-15 left the node at -3.4e-16
        model = FAMILIES["poly-phi-ces"].build({"a": 0.08617089194617562,
                                                "b": 3.842051363786088})
        assert model.x0 == 0.0


class TestEpsilonFromSlope:
    def test_half_the_slope_at_the_node(self):
        assert build_from_wplus(parse_generator("2*x + x^3")).epsilon == 1.0

    def test_wrong_orientation_is_rejected(self):
        with pytest.raises(GeneratorAdmissibilityError, match="wrongly oriented"):
            build_from_wplus(parse_generator("-x"))


class TestBuildFromWplus:
    def test_splitting_reassembles_the_seed(self):
        seed = parse_generator("2*x + x^3")
        model = build_from_wplus(seed)
        xs = model.probe_points()
        total = model.W.w(xs) + model.W1.w(xs)
        assert np.max(np.abs(total - seed.eval(xs))) < 1e-12

    def test_first_excited_state_vanishes_at_the_node(self):
        model = build_from_wplus(parse_generator("sinh(x) - sinh(0.4)"))
        assert abs(model.psi1.psi(np.array([model.x0]))[0]) < 1e-12
        assert model.psi1.energy == model.epsilon

    def test_level_linking_identity_holds_on_the_probe_grid(self):
        model = build_from_wplus(parse_generator("2*x + x^3"))
        xs = model.probe_points()
        res = riccati_residual(model.W, model.W1, model.epsilon, xs)
        assert np.max(np.abs(res)) < 1e-9

    def test_superpotential_is_smooth_across_the_patch_boundary(self):
        model = build_from_wplus(parse_generator("2*x + x^3"))
        delta = 1e-3 * model.scale_hint
        inside, outside = model.W.w(model.x0 + np.array([0.99, 1.01]) * delta)
        slope = abs(model.W.w_and_wprime(np.array([model.x0]))[1][0])
        assert abs(outside - inside) < 0.05 * max(slope, 1.0) * delta

    def test_provenance_records_the_route(self):
        model = build_from_wplus(parse_generator("2*x + x^3"))
        assert model.phi is None

    def test_slope_at_the_node_is_read_once_after_the_zero_gate(self):
        gen = parse_generator("x^3 + x - 0.5")
        x0 = find_single_zero(gen)
        at_node = collections.Counter()

        def counting(order):
            fn = getattr(gen, order)

            def call(x):  # the node is read as a 1-element array
                at_node[order] += np.shape(x) == (1,) and x[0] == x0
                return fn(x)
            return call

        build_from_wplus(dataclasses.replace(gen, deriv1=counting("deriv1")))
        # one read in find_single_zero's residual gate, one for eps, the
        # multiplicity estimate and the quotient
        assert at_node["deriv1"] == 2

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
        at_one = np.array([1.0])
        assert model.W.w(at_one)[0] == pytest.approx(7.0 / 6.0, rel=1e-14)
        assert model.W1.w(at_one)[0] == pytest.approx(1.0 / 6.0, rel=1e-14)

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
        assert np.max(np.abs(model.W.w(xs) + model.W1.w(xs) - expected)) < 1e-13

    def test_level_linking_identity_is_algebraic(self):
        model = build_from_phi(cubic_phi(), 1.0)
        xs = model.probe_points()
        assert np.max(np.abs(riccati_residual(model.W, model.W1, 1.0, xs))) < 1e-12

    def test_decreasing_shape_is_rejected(self):
        with pytest.raises(PhiNotMonotoneError, match="monotonically increasing"):
            build_from_phi(parse_generator("x - x^3/3"), 1.0)

    def test_multiple_zero_between_probe_points_is_rejected(self):
        # phi' > 0 on every probe point, but phi phi''/phi'^2 = 2/3 at the triple zero
        phi = parse_generator("(x - 0.013)^3")
        x0 = find_single_zero(phi)
        with pytest.raises(PhiNotMonotoneError) as refused:
            build_from_phi(phi, 1.0)
        assert str(refused.value) == (f"(x - 0.013)^3 is not strictly increasing through its "
                                      f"zero: derivative {float(phi.deriv1(x0))} at x0={x0} "
                                      f"(multiple zero)")

    def test_nonpositive_gap_is_rejected(self):
        with pytest.raises(ParameterError, match="epsilon"):
            build_from_phi(cubic_phi(), 0.0)

    def test_provenance_records_the_route(self):
        phi = cubic_phi()
        model = build_from_phi(phi, 1.0)
        assert model.phi is phi


@pytest.mark.parametrize("expr,build,error,estimate", [
    ("-1/(x - 0.01)", build_from_wplus, GeneratorAdmissibilityError, "2"),
    ("1/(x - 0.01)", build_from_wplus, GeneratorAdmissibilityError, "2"),
    ("-1/(x - 0.01)^3", build_from_wplus, GeneratorAdmissibilityError, "1.33"),
    ("-1/(x - 0.01)", lambda phi: build_from_phi(phi, 1.0), PhiNotMonotoneError, "2"),
    ("-1/(x - 0.01)^3", lambda phi: build_from_phi(phi, 1.0), PhiNotMonotoneError, "1.33"),
], ids=["wplus", "wplus-falling", "wplus-cubic-pole", "phi", "phi-cubic-pole"])
def test_sign_change_through_a_pole_is_named(expr, build, error, estimate):
    # Schroder's estimate f f''/f'^2 is (p + 1)/p at a pole of order p, not
    # the (m - 1)/m < 1 of a zero of multiplicity m
    gen = parse_generator(expr)
    x0 = find_single_zero(gen)
    with pytest.raises(error) as refused:
        build(gen)
    assert str(refused.value) == (f"{expr} changes sign through a pole at x0={x0}, "
                                  f"not a zero (Schroder estimate {estimate})")


@pytest.mark.parametrize("build,error,order,noun", [
    (build_from_wplus, GeneratorAdmissibilityError, "deriv2", "second derivative"),
    (lambda phi: build_from_phi(phi, 1.0), PhiNotMonotoneError, "deriv2", "second derivative"),
    (build_from_wplus, GeneratorAdmissibilityError, "deriv3", "third derivative"),
], ids=["wplus", "phi", "wplus-third"])
def test_derivative_not_finite_at_the_node_is_named(build, error, order, noun):
    # NaN at the node alone: the sign probes, far from it, stay finite
    gen = cubic_phi()
    x0 = find_single_zero(gen)
    fn = getattr(gen, order)
    stub = dataclasses.replace(gen, **{order: lambda x: np.where(x == x0, np.nan, fn(x))})
    with pytest.raises(error) as refused:
        build(stub)
    assert str(refused.value) == f"x + x^3/3's {noun} is not finite at x0={x0}"


class TestCrossCheck:
    def test_routes_agree_for_the_cubic_shape(self):
        result = cross_check_constructions(build_from_phi(cubic_phi(), 1.0))
        assert result.max_discrepancy < 1e-8

    def test_routes_agree_for_a_parsed_shape(self):
        result = cross_check_constructions(build_from_phi(parse_generator("x + x^3/3"), 2.0))
        assert result.max_discrepancy < 1e-8

    def test_discrepancy_fields_are_all_small(self):
        result = cross_check_constructions(build_from_phi(cubic_phi(), 1.0))
        assert result.v_minus_sup < 1e-8
        assert result.psi0_sup < 1e-8
        assert result.psi1_sup < 1e-8
        assert result.max_discrepancy == max(result.v_minus_sup, result.psi0_sup,
                                             result.psi1_sup)

    def test_quantity_not_finite_on_the_probe_grid_is_named(self, monkeypatch):
        def wplus_route(seed):  # its V_minus turns inf beyond |x| = 6
            model = build_from_wplus(seed)
            v = model.potentials.v_minus
            return dataclasses.replace(model, potentials=dataclasses.replace(
                model.potentials, v_minus=lambda x: np.where(np.abs(x) > 6.0, np.inf, v(x))))

        monkeypatch.setattr(construct, "build_from_wplus", wplus_route)
        with pytest.raises(QueryRangeError) as refused:
            cross_check_constructions(build_from_phi(cubic_phi(), 1.0))
        assert str(refused.value) == "v_minus is not finite on the probe grid [-8.0, 8.0]"

    def test_states_are_compared_as_built(self, monkeypatch):
        # a rebuild whose psi1 has the other sign is a discrepancy, not aligned away
        def wplus_route(seed):
            model = build_from_wplus(seed)
            psi = model.psi1.psi
            return dataclasses.replace(model, psi1=dataclasses.replace(
                model.psi1, psi=lambda x: -psi(x)))

        monkeypatch.setattr(construct, "build_from_wplus", wplus_route)
        result = cross_check_constructions(build_from_phi(parse_generator("x + x^3/3"), 2.0))
        assert result.psi0_sup < 1e-8
        assert result.psi1_sup == pytest.approx(0.256, abs=1e-3)

    @pytest.mark.parametrize("expr", ["x - 0.5 + x^3", "x + 0.3*x^3 + 0.5*tanh(2*x - 1)"])
    def test_rebuilt_seed_has_the_exact_third_derivative_at_its_node(self, expr, monkeypatch):
        import sympy

        seeds = []

        def wplus_route(seed):
            seeds.append(seed)
            return build_from_wplus(seed)

        monkeypatch.setattr(construct, "build_from_wplus", wplus_route)
        result = cross_check_constructions(build_from_phi(parse_generator(expr), 2.0))
        (seed,) = seeds
        x0 = find_single_zero(seed)
        x = sympy.Symbol("x")
        phi = sympy.sympify(expr.replace("^", "**"))
        wplus3 = sympy.diff(4 * phi / sympy.diff(phi, x), x, 3)
        exact = float(wplus3.subs(x, sympy.Rational(x0)).evalf(40))
        assert seed.deriv3(np.array([x0]))[0] == pytest.approx(exact, rel=1e-13)
        assert result.v_minus_sup < 2e-14


def test_probe_grid_is_centered_on_the_node():
    model = build_from_wplus(parse_generator("sinh(x) - sinh(0.4)"))
    xs = model.probe_points()
    assert len(xs) == 401
    assert xs[len(xs) // 2] == pytest.approx(model.x0, abs=1e-12)
    assert xs[-1] - xs[0] == pytest.approx(16.0 * model.scale_hint, rel=1e-12)
