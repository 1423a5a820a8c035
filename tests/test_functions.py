"""Tests for generator bundles and quadrature."""

import logging
import math
import sys
import threading

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

    def test_scalar_and_array_paths_agree_bitwise(self):
        for integrand in (lambda t: np.cos(t) * np.exp(-0.1 * t * t), lorentzian):
            F = cumulative_integral(integrand, 0.0)
            for n in (57, 4001):
                xs = np.linspace(-9.3, 11.7, n)
                batch = F(xs)
                single = np.array([F(float(x)) for x in xs])
                assert np.array_equal(batch, single)
        # constructed models: the primitive of W and states built on W1's,
        # then a phi-route family whose psi0 takes phi'**-0.5
        model = build_from_wplus(parse_generator("sinh(x - 0.4)"))
        s = model.scale_hint
        xs = np.linspace(model.x0 - 6.0 * s, model.x0 + 6.0 * s, 97)
        for fn in (model.W.integral, model.psi1.psi):
            assert np.array_equal(fn(xs), np.array([fn(float(x)) for x in xs]))
        model = poly_phi_model(PolyPhiParams(1.0, 1.0, 1.0))
        s = model.scale_hint
        xs = np.linspace(model.x0 - 8.0 * s, model.x0 + 8.0 * s, 4001)
        for fn in (model.psi0.psi, model.psi1.psi, model.potentials.v_minus):
            assert np.array_equal(fn(xs), np.array([fn(float(x)) for x in xs]))

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

    def test_far_or_non_finite_query_is_refused(self):
        F = cumulative_integral(np.cos, 0.0)
        for x in (1e20, -np.inf, np.nan):
            with pytest.raises(QueryRangeError, match="within"):
                F(x)

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

    def test_explicit_panel_width(self):
        F = CumulativeIntegral(np.cos, 0.0, panel_width=0.5)
        assert F(7.0) == pytest.approx(math.sin(7.0), abs=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
           st.floats(-4.0, 4.0))
    def test_polynomial_integrals_are_exact(self, coeffs, x):
        poly = np.polynomial.Polynomial(coeffs)
        F = cumulative_integral(poly, 0.0)
        exact = poly.integ()
        assert F(x) == pytest.approx(exact(x) - exact(0.0), abs=1e-9)
