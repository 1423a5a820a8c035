"""Tests for generator bundles and quadrature."""

import logging
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from qespair import functions
from qespair.construct import build_from_wplus
from qespair.errors import NonFiniteIntegrandError, QueryRangeError
from qespair.expressions import parse_generator
from qespair.families import PolyPhiParams, poly_phi_model
from qespair.functions import CumulativeIntegral, GeneratorFunction, cumulative_integral


def lorentzian(t):
    # a peak of half-width 0.01 at 0.3: the panel fill must split around it
    return 1.0 / (1.0 + ((t - 0.3) / 0.01) ** 2)


def gaussian_bundle(scale=1.0):
    return GeneratorFunction(
        lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        lambda x: -x * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        lambda x: (x * x - 1.0) * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        lambda x: x * (3.0 - x * x) * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        scale_hint=scale, label="gaussian")


class TestGeneratorFunction:
    def test_scale_hint_must_be_positive(self):
        with pytest.raises(ValueError, match="scale_hint"):
            GeneratorFunction(np.sin, np.cos, lambda x: -np.sin(x),
                              lambda x: -np.cos(x), scale_hint=0.0)


class TestCumulativeIntegral:
    def test_antiderivative_of_cos(self):
        F = cumulative_integral(np.cos, 0.0)
        xs = np.linspace(-20.0, 20.0, 81)
        assert np.max(np.abs(F(xs) - np.sin(xs))) < 1e-12

    def test_base_point_offset(self):
        F = cumulative_integral(lambda t: 2.0 * t, 3.0)
        # int_3^x 2t dt = x^2 - 9
        assert F(5.0) == pytest.approx(16.0, abs=1e-12)
        assert F(0.0) == pytest.approx(-9.0, abs=1e-12)
        assert F(3.0) == pytest.approx(0.0, abs=1e-13)

    def test_gaussian_tail_against_erf(self):
        F = cumulative_integral(lambda t: np.exp(-t * t), 0.0)
        for x in (0.5, 1.0, 2.0, 4.0):
            assert F(x) == pytest.approx(0.5 * math.sqrt(math.pi) * math.erf(x), abs=1e-12)

    @pytest.mark.parametrize("integrand, primitive", [
        (lorentzian, lambda x: 0.01 * np.arctan((x - 0.3) / 0.01)),
        (lambda t: np.exp(-t * t), lambda x: 0.5 * math.sqrt(math.pi) * erf(x)),
    ])
    def test_dense_interior_queries_are_accurate(self, integrand, primitive):
        # both sides of a base point that no query lands on
        base = 0.2345
        xs = np.linspace(-1.7, 2.3, 4001)
        F = cumulative_integral(integrand, base)
        assert np.max(np.abs(F(xs) - (primitive(xs) - primitive(base)))) <= 1e-12

    def test_one_point_queries_agree_with_the_batch_bitwise(self):
        def one_by_one(fn, xs):
            return np.concatenate([fn(xs[i:i + 1]) for i in range(xs.size)])

        for integrand in (lambda t: np.cos(t) * np.exp(-0.1 * t * t), lorentzian):
            F = cumulative_integral(integrand, 0.0)
            for n in (57, 4001):
                xs = np.linspace(-9.3, 11.7, n)
                assert np.array_equal(F(xs), one_by_one(F, xs))
        # constructed models: states built on the primitives of W and W1,
        # then a phi-route family whose psi0 takes phi'**-0.5
        model = build_from_wplus(parse_generator("sinh(x - 0.4)"))
        s = model.scale_hint
        xs = np.linspace(model.x0 - 6.0 * s, model.x0 + 6.0 * s, 97)
        for fn in (model.psi0.psi, model.psi1.psi):
            assert np.array_equal(fn(xs), one_by_one(fn, xs))
        model = poly_phi_model(PolyPhiParams(1.0, 1.0, 1.0))
        s = model.scale_hint
        xs = np.linspace(model.x0 - 8.0 * s, model.x0 + 8.0 * s, 4001)
        for fn in (model.psi0.psi, model.psi1.psi, model.potentials.v_minus):
            assert np.array_equal(fn(xs), one_by_one(fn, xs))

    def test_edge_query_does_not_depend_on_how_far_the_table_was_filled(self):
        # leaf k starts at the product base + side*k*width, where (x - base)/width
        # can round below k, on the product itself or one ulp outward of it
        def integrand(t):
            return np.cos(t) * np.exp(-0.1 * t * t) + 1.5

        rng = np.random.default_rng(2024)
        n = 50000
        base, s = rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 5.0, n)
        k, side = rng.integers(1, 61, n), rng.choice([1, -1], n)
        width = np.array([cumulative_integral(integrand, b, scale_hint=h)._width
                          for b, h in zip(base, s)])
        edge = base + side * k * width
        for xs in (edge, np.nextafter(edge, side * np.inf)):
            below = np.flatnonzero(np.floor(side * (xs - base) / width) < k)[:200]
            assert below.size == 200
            for i in below:
                fresh = cumulative_integral(integrand, base[i], scale_hint=s[i])
                wider = cumulative_integral(integrand, base[i], scale_hint=s[i])
                wider(base[i] + side[i] * (k[i] + 3) * width[i])
                assert fresh(xs[i]).tobytes() == wider(xs[i]).tobytes(), (base[i], s[i], k[i])

    def test_dense_query_batches_its_integrand_calls(self):
        rows = []

        def integrand(t):
            rows.append(len(t))
            return np.cos(t) * np.exp(-0.1 * t * t)

        F = cumulative_integral(integrand, 0.0)
        F(np.linspace(-9.3, 11.7, 4001))
        assert len(rows) < 100
        assert max(rows) <= functions._MAX_INTERVALS
        # points inside the filled panels are answered from the stored leaves
        rows.clear()
        F(np.linspace(-9.2, 11.6, 3001))
        F(1.2345)
        assert rows == []

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 700])
    def test_primitive_coefficients_match_a_per_row_reduction_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        nodes = rng.standard_normal((rows, 16)) * 10.0 ** rng.uniform(-30, 30, (rows, 16))
        half = 10.0 ** rng.uniform(-30, 30, rows)
        reference = np.array([[half[i] * (nodes[i] * weights).sum() for i in range(rows)]
                              for weights in functions._PRIMITIVE])
        assert functions._primitives(nodes, half).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("leaves", [1, 255, 256, 257, 700])
    def test_power_coefficients_match_a_per_leaf_reduction_bit_for_bit(self, leaves):
        rng = np.random.default_rng(leaves)
        legendre = rng.standard_normal((leaves, 17)) * 10.0 ** rng.uniform(-30, 30, (leaves, 17))
        reference = np.array([[(legendre[i] * row).sum() for row in functions._TO_POWER]
                              for i in range(leaves)])
        converted = functions._reduce_rows(legendre, functions._TO_POWER)
        assert converted.tobytes() == reference.tobytes()

    def test_stored_leaves_are_their_legendre_primitives_in_the_power_basis(self):
        # 350 panels of two leaves each: the conversion runs in three blocks
        F = cumulative_integral(lambda t: np.cos(t) + 1.5, 0.0, scale_hint=0.25)
        F(350 * F._width - 1e-3)
        table = F._sides[1]
        assert table.half.size == 700
        edges = np.arange(351) * F._width
        lo, _, _, legendre = functions._integrate(F.integrand, edges[:-1], edges[1:],
                                                  functions._ABS_TOL)
        legendre = legendre[:, np.argsort(lo)]
        reference = np.array([[(legendre[:, i] * row).sum() for i in range(700)]
                              for row in functions._TO_POWER])
        assert table.coef.tobytes() == reference.tobytes()

    def test_horner_reads_a_leaf_as_its_legendre_series(self):
        # leaves of random smooth integrands, each read at a random point by
        # _Side.at with a start value of zero, against numpy's Legendre sum
        rng = np.random.default_rng(33)
        eps = np.finfo(float).eps
        for _ in range(50):
            w, phase, decay, shift, s = rng.uniform([0.2, 0.0, 0.0, -2.0, 0.1],
                                                    [5.0, 6.0, 1.0, 2.0, 3.0])
            edges = np.arange(-6, 7) * s
            lo, hi, _, legendre = functions._integrate(
                lambda t: np.cos(w * t + phase) * np.exp(-decay * t * t) + shift,
                edges[:-1], edges[1:], functions._ABS_TOL)
            order = np.argsort(lo)
            lo, hi, legendre = lo[order], hi[order], legendre[:, order]
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            power = functions._reduce_rows(legendre.T, functions._TO_POWER).T
            table = functions._Side(1, 0.0, lo, np.zeros(lo.size), mid, half, power)
            x = mid + half * rng.uniform(-1.0, 1.0, lo.size)
            u = (x - mid) / half
            want = [np.polynomial.legendre.legval(u[i], legendre[:, i]) for i in range(lo.size)]
            assert np.all(np.abs(table.at(1, x) - want) <= 4.0 * eps * np.abs(legendre).sum(axis=0))

    def test_smooth_fill_costs_what_its_panels_imply(self):
        # a fill of k panels with no split evaluates three GL16 rules per panel
        # (the whole and its two halves), in one integrand call per side
        points = []

        def integrand(t):
            points.append(t.size)
            return np.cos(t) * np.exp(-0.1 * t * t)

        F = cumulative_integral(integrand, 0.0)
        F(np.linspace(-10.0, 10.0, 801))
        panels = math.floor(10.0 / F._width) + 1
        assert len(points) <= 2
        assert sum(points) <= 2 * panels * 3 * 16

    def test_far_or_non_finite_query_is_refused(self):
        F = cumulative_integral(np.cos, 0.0)
        for x in (1e20, -np.inf, np.nan):
            with pytest.raises(QueryRangeError, match="within"):
                F(x)

    @pytest.mark.parametrize("scale_hint", [16.0, 64.0])
    def test_odd_primitive_is_odd_down_to_subnormals(self, scale_hint):
        # (x - base)/width rounds to -0.0 at x = -5e-324: the point is still on side -1
        def fresh():
            return cumulative_integral(lambda t: np.cos(t) + 1.5, 0.0, scale_hint=scale_hint)

        xs = np.array([5e-324, 1e-320, 0.3])
        F = fresh()
        assert np.array_equal(F(-xs), -F(xs))
        for far in (40.0, -40.0):
            filled = fresh()
            filled(far)
            assert np.array_equal(filled(-xs), -fresh()(xs))
            assert np.array_equal(filled(-xs), -filled(xs))

    def test_both_sides_refuse_beyond_the_panel_cap(self):
        F = cumulative_integral(np.ones_like, 0.0, scale_hint=16.0)
        reach = F._width * functions._MAX_PANELS
        for side in (1, -1):
            with pytest.raises(QueryRangeError, match=f"within {functions._MAX_PANELS} panels"):
                F(side * (reach + 1.0))
            assert F(side * reach) == side * reach

    def test_range_is_refused_before_any_fill(self):
        calls = []

        def integrand(t):
            calls.append(t.size)
            return np.where(t > 0.5, np.nan, 1.0)

        with pytest.raises(QueryRangeError, match="within"):
            cumulative_integral(integrand, 0.0)(np.array([1.0, -1e20]))
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_in_a_valid_array_is_refused(self, bad):
        F = cumulative_integral(np.cos, 0.0)
        with pytest.raises(QueryRangeError, match="finite"):
            F(np.array([-1.0, 0.5, bad, 2.0]))

    def test_reach_that_overflows_is_refused_without_a_warning(self):
        F = cumulative_integral(np.cos, 0.0, scale_hint=1e-300)  # (x - base)/width overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QueryRangeError, match="within"):
                F(np.array([1.0, -1e10]))

    def test_empty_query_returns_an_empty_array(self):
        F = cumulative_integral(np.cos, 0.0)
        for shape in ((0,), (0, 3)):
            out = F(np.empty(shape))
            assert out.shape == shape and out.dtype == float

    def test_repeat_evaluation_is_deterministic(self):
        F = cumulative_integral(np.sin, 0.0)
        xs = np.linspace(-5, 5, 23)
        assert np.array_equal(F(xs), F(xs))

    def test_threaded_evaluation_matches_serial(self):
        F = cumulative_integral(lambda t: 1.0 / (1.0 + t * t), 0.0)
        xs = np.linspace(-15, 15, 101)
        serial = F(xs)
        results = {}

        def worker(key):
            results[key] = cumulative_integral(
                lambda t: 1.0 / (1.0 + t * t), 0.0)(xs) if key == "fresh" else F(xs)

        threads = [threading.Thread(target=worker, args=(k,)) for k in ("a", "b", "fresh")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert np.array_equal(results["a"], serial)
        assert np.array_equal(results["b"], serial)
        assert np.max(np.abs(results["fresh"] - serial)) < 1e-14
        assert np.max(np.abs(serial - np.arctan(xs))) < 1e-12

    def test_concurrent_fills_match_a_serial_fill(self):
        # eight threads grow the same fresh tables to different reaches; the
        # prefixes' bits must not depend on which thread filled which panel
        def integrand(t):
            return 1.0 / (1.0 + t * t)

        queries = [np.linspace(-3.0 * (i + 1), 2.5 * (i + 1), 41) for i in range(8)]
        serial = cumulative_integral(integrand, 0.0)
        expected = [serial(q) for q in queries]
        shared = cumulative_integral(integrand, 0.0)
        results = {}

        def worker(i):
            results[i] = shared(queries[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, want in enumerate(expected):
            assert np.array_equal(results[i], want)

    def test_non_finite_integrand_is_reported(self):
        def integrand(t):
            with np.errstate(invalid="ignore"):
                return np.sqrt(np.asarray(t, dtype=float))

        F = cumulative_integral(integrand, 1.0)
        with pytest.raises(NonFiniteIntegrandError):
            F(-1.0)

    def test_split_cap_is_logged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="qespair.functions"):
            step = cumulative_integral(lambda t: np.where(t < 0.3, 0.0, 1.0), 0.0)(1.0)
        assert step == pytest.approx(0.7, abs=1e-6)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "1 interval(s) in [0.299988, 0.300018] miss the tolerance" in record.getMessage()

    @pytest.mark.parametrize("integrand", [np.cos, lorentzian], ids=["cos", "lorentzian"])
    def test_converged_fill_logs_nothing(self, integrand, caplog):
        with caplog.at_level(logging.DEBUG, logger="qespair.functions"):
            cumulative_integral(integrand, 0.0)(np.linspace(-3.0, 3.0, 7))
        assert caplog.records == []

    def test_explicit_scale_hint(self):
        F = CumulativeIntegral(np.cos, 0.0, scale_hint=4.0)  # panels 4 wide
        assert F(7.0) == pytest.approx(math.sin(7.0), abs=1e-11)
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="scale_hint must be positive and finite"):
                CumulativeIntegral(np.cos, 0.0, bad)
        with pytest.raises(ValueError, match="base_point must be finite"):
            CumulativeIntegral(np.cos, np.inf, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
           st.floats(-4.0, 4.0))
    def test_polynomial_integrals_are_exact(self, coeffs, x):
        poly = np.polynomial.Polynomial(coeffs)
        F = cumulative_integral(poly, 0.0)
        exact = poly.integ()
        assert F(x) == pytest.approx(exact(x) - exact(0.0), abs=1e-9)
