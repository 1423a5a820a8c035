"""Tests for the independent spectral verification battery."""

import dataclasses
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial import hermite
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

from qespair import verify
from qespair.construct import build_from_wplus
from qespair.errors import QueryRangeError
from qespair.expressions import parse_generator
from qespair.families import FAMILIES, PolyWplusParams, poly_wplus_model
from qespair.verify import (Grid, Tolerances, _simpson, auto_grid, count_nodes, eigensolve,
                            rayleigh_quotient, verify_model)


def harmonic(x):
    return 0.5 * np.asarray(x, dtype=float) ** 2


class TestGrid:
    def test_points_span_the_box(self):
        g = Grid(5.0, 11)
        xs = g.points()
        assert xs[0] == -5.0 and xs[-1] == 5.0
        assert len(xs) == 11
        assert g.h == 1.0

    @pytest.mark.parametrize("n", [4000, 2, 1, -3])
    def test_even_or_tiny_point_counts_are_rejected(self, n):
        with pytest.raises(ValueError, match="odd integer"):
            Grid(10.0, n)


class TestEigensolve:
    def test_oscillator_spectrum_on_a_fine_grid(self):
        energies, _ = eigensolve(harmonic, Grid(10.0, 16001), 3)
        for n, e in enumerate(energies):
            assert abs(e - (n + 0.5)) < 1e-6

    def test_oscillator_spectrum_on_the_default_grid(self):
        energies, _ = eigensolve(harmonic, Grid(10.0, 4001), 3)
        for n, e in enumerate(energies):
            assert abs(e - (n + 0.5)) < 2e-5

    def test_error_halves_twice_when_the_step_halves(self):
        def e1_error(n):
            energies, _ = eigensolve(harmonic, Grid(10.0, n), 2)
            return abs(energies[1] - 1.5)

        ratio = e1_error(2001) / e1_error(4001)
        assert 3.8 < ratio < 4.2

    def test_eigenvectors_match_the_gaussian(self):
        grid = Grid(10.0, 2001)
        _, vectors = eigensolve(harmonic, grid, 1)
        v = vectors[:, 0] / np.max(np.abs(vectors[:, 0]))
        target = np.exp(-0.5 * grid.points() ** 2)
        sign = np.sign(v[len(v) // 2])
        assert np.max(np.abs(sign * v - target)) < 1e-5

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            eigensolve(harmonic, Grid(5.0, 101), 0)
        with pytest.raises(ValueError, match="too large"):
            eigensolve(harmonic, Grid(5.0, 101), 50)

    def test_non_finite_potential_is_rejected(self):
        def bad(x):
            with np.errstate(divide="ignore"):
                return 1.0 / np.asarray(x, dtype=float)

        with pytest.raises(ValueError, match="not finite"):
            eigensolve(bad, Grid(5.0, 101), 1)


def lapack_levels(v, grid, k):
    """eigh_tridiagonal on the same stencil, and the 1-norm of its matrix."""
    h2 = grid.h * grid.h
    diag = 1.0 / h2 + v(grid.points())
    off = np.full(grid.N - 1, -0.5 / h2)
    column_sums = np.abs(diag) + np.abs(np.concatenate([[0.0], off])) \
        + np.abs(np.concatenate([off, [0.0]]))
    energies, vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    return energies, vectors, float(np.max(column_sums))


def narrow_well(x):
    """Oscillator plus a Gaussian well far narrower than every 8th grid step."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x * x - 400.0 * np.exp(-((x - 0.02) / 0.004) ** 2)


def _oracle_cases():
    cases = [pytest.param(harmonic, 10.0, id="harmonic")]
    for name, spec in FAMILIES.items():
        model = spec.build(dict(spec.defaults))
        cases.append(pytest.param(model.potentials.v_minus, auto_grid(model).L, id=name))
    # a narrow well the coarse grid under-resolves: at N = 4001, three solves
    # from the interpolated coarse ground state leave its residual 4x over the
    # gate, so the level is refactored once at its Rayleigh quotient
    model = FAMILIES["poly-phi"].build({"a": 0.069, "b": 1.27, "epsilon": 1.0})
    cases.append(pytest.param(model.potentials.v_minus, auto_grid(model).L, id="narrow-poly-phi"))
    return cases


class TestCertifiedInverseIteration:
    @pytest.mark.parametrize("n", [4001, 16001, 32001])
    @pytest.mark.parametrize("v, L", _oracle_cases())
    def test_agrees_with_lapack_bisection(self, v, L, n, caplog):
        grid = Grid(L, n)
        with caplog.at_level(logging.DEBUG, logger="qespair.verify"):
            energies, vectors = eigensolve(v, grid, 4)
        assert caplog.records == []  # certified: no fallback
        ref_energies, ref_vectors, norm = lapack_levels(v, grid, 4)
        assert np.max(np.abs(energies - ref_energies)) <= np.finfo(float).eps * norm
        assert np.all(np.diff(energies) > 0)
        assert np.allclose(np.linalg.norm(vectors, axis=0), 1.0, rtol=0, atol=1e-14)
        assert np.min(np.abs(np.sum(vectors * ref_vectors, axis=0))) >= 1.0 - 1e-12

    @pytest.mark.parametrize("n", [4001, 32001])
    def test_lapack_bisects_only_the_innermost_grid(self, n, monkeypatch):
        # 32001 points take their shifts from 4001, certified in turn from 501
        sizes = []

        def recording(diag, *args, **kwargs):
            sizes.append(diag.size)
            return eigh_tridiagonal(diag, *args, **kwargs)

        monkeypatch.setattr(verify, "eigh_tridiagonal", recording)
        eigensolve(harmonic, Grid(10.0, n), 4)
        assert sizes == [501]

    @pytest.mark.parametrize("v, L", _oracle_cases())
    def test_fine_grid_takes_one_factorization_and_one_solve_per_level(self, v, L, monkeypatch):
        # each 32001-point level starts from its 4001-point eigenvector,
        # interpolated, and passes the residual gate after its first solve
        sizes = {"dgttrf": [], "dgttrs": []}
        for name, seen in sizes.items():
            def recording(dl, d, *args, lapack=getattr(verify, name), seen=seen):
                seen.append(d.size)
                return lapack(dl, d, *args)

            monkeypatch.setattr(verify, name, recording)
        eigensolve(v, Grid(L, 32001), 4)
        assert sizes["dgttrf"].count(32001) == 4
        assert sizes["dgttrs"].count(32001) == 4

    @pytest.mark.parametrize("k", [1, 3])
    def test_missed_bound_state_falls_back_to_lapack(self, k, caplog):
        # Every 8th point misses the well, so the shifts start at 0.4999
        # while the ground level is -3.96: only the certificate sees it.
        grid = Grid(10.0, 4001)
        with caplog.at_level(logging.DEBUG, logger="qespair.verify"):
            energies, vectors = eigensolve(narrow_well, grid, k)
        ref_energies, ref_vectors, _ = lapack_levels(narrow_well, grid, k)
        assert energies[0] == pytest.approx(-3.9617, abs=1e-4)
        assert np.array_equal(energies, ref_energies)
        assert np.array_equal(vectors, ref_vectors)
        reason = "Sturm count" if k == 1 else "overlap"
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, f"eigensolve certificate failed ({reason}) at N=4001, k={k}; "
                            f"using bisection")]

    @pytest.mark.parametrize("n", [4003, 101], ids=["n-1-not-a-multiple-of-8", "coarse-grid-too-small"])
    def test_ineligible_grids_keep_lapack_bits(self, n, caplog):
        grid = Grid(10.0, n)
        with caplog.at_level(logging.DEBUG, logger="qespair.verify"):
            energies, vectors = eigensolve(harmonic, grid, 3)
        ref_energies, ref_vectors, _ = lapack_levels(harmonic, grid, 3)
        assert np.array_equal(energies, ref_energies)
        assert np.array_equal(vectors, ref_vectors)
        assert caplog.records == []  # not a certificate failure


class TestCountNodes:
    xs = np.linspace(-6, 6, 601)

    def test_gaussian_has_no_nodes(self):
        assert count_nodes(np.exp(-self.xs ** 2)) == 0

    def test_odd_gaussian_has_one_node(self):
        assert count_nodes(self.xs * np.exp(-self.xs ** 2)) == 1

    def test_second_hermite_state_has_two_nodes(self):
        values = hermite.hermval(self.xs, [0, 0, 1]) * np.exp(-0.5 * self.xs ** 2)
        assert count_nodes(values) == 2

    def test_roundoff_tails_do_not_count(self):
        rng = np.random.default_rng(3)
        noisy = np.exp(-self.xs ** 2) + 1e-13 * rng.standard_normal(self.xs.size)
        assert count_nodes(noisy) == 0

    def test_empty_input(self):
        assert count_nodes([]) == 0


class TestQuadratureHelpers:
    def test_rayleigh_quotient_of_the_oscillator_ground_state(self):
        grid = Grid(10.0, 2001)
        psi = lambda x: np.exp(-0.5 * x * x)
        dpsi = lambda x: -x * np.exp(-0.5 * x * x)
        assert rayleigh_quotient(psi, dpsi, harmonic, grid) == pytest.approx(0.5, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 1000).flatmap(
               lambda m: arrays(np.float64, 2 * m + 1,
                                elements=st.floats(-1e300, 1e300))),
           st.floats(1e-6, 1e3))
    def test_simpson_matches_scipy_bit_for_bit(self, y, h):
        assert np.float64(_simpson(y, h)).tobytes() == np.float64(simpson(y, dx=h)).tobytes()


class TestAutoGrid:
    def test_box_is_small_for_a_fast_decaying_model(self):
        model = poly_wplus_model(PolyWplusParams(2.0, 1.0))
        grid = auto_grid(model)
        assert grid.L <= 8.0
        assert grid.N == 4001

    def test_point_count_passes_through(self):
        model = poly_wplus_model(PolyWplusParams(2.0, 1.0))
        assert auto_grid(model, n_points=801).N == 801

    def test_cap_is_reported_for_very_slow_decay(self, caplog):
        model = build_from_wplus(parse_generator("0.04*x"))
        with caplog.at_level(logging.WARNING, logger="qespair.verify"):
            grid = auto_grid(model)
        assert grid.L == 50.0 * model.scale_hint
        assert [r.getMessage() for r in caplog.records] == [
            "decay target 1e-12 not reached inside L = 50 scale hints; using the capped box"]


class TestTolerances:
    def test_energy_tolerance_scales_with_large_gaps(self):
        tol = Tolerances()
        assert tol.energy_effective(0.5) == tol.energy
        assert tol.energy_effective(1.0) == tol.energy
        assert tol.energy_effective(2.0) == 2.0 * tol.energy


class TestVerifyModel:
    def test_reference_model_passes_every_check(self):
        report = verify_model(poly_wplus_model(PolyWplusParams(2.0, 1.0)))
        assert report.passed
        assert set(report.checks) == {
            "energy_levels", "eigenvector_overlap", "orthogonality", "node_counts",
            "susy_degeneracy", "riccati_identity", "schrodinger_residual"}
        assert all(report.checks.values())
        assert report.node_counts == [0, 1]
        assert report.energy_errors[0] < 1e-5
        assert abs(report.eigenvalues[1] - 1.0) < 1e-5
        assert len(report.susy_degeneracy_errors) == 3

    def test_report_records_boundary_decay(self):
        report = verify_model(poly_wplus_model(PolyWplusParams(2.0, 1.0)))
        assert report.boundary_amplitudes
        assert max(report.boundary_amplitudes.values()) < 1e-10

    def test_report_serializes_to_json(self):
        report = verify_model(poly_wplus_model(PolyWplusParams(2.0, 1.0)))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["passed"] is True
        assert payload["grid"]["N"] == 4001

    def test_detuned_gap_fails_the_energy_check(self):
        model = poly_wplus_model(PolyWplusParams(2.0, 1.0))
        detuned = dataclasses.replace(model, epsilon=model.epsilon + 1e-3)
        report = verify_model(detuned)
        assert not report.passed
        assert not report.checks["energy_levels"]

    def test_detuned_gap_also_breaks_the_linking_identity(self):
        model = poly_wplus_model(PolyWplusParams(2.0, 1.0))
        detuned = dataclasses.replace(model, epsilon=model.epsilon + 1e-3)
        report = verify_model(detuned)
        assert not report.checks["riccati_identity"]
        assert report.riccati_sup == pytest.approx(2e-3, rel=1e-6)

    @pytest.mark.parametrize("quantity,message", [
        ("W1", "riccati_residual is not finite on the probe grid [-8.0, 8.0]"),
        ("v_minus", "v_minus is not finite on the residual window [-6.0, 6.0]"),
        ("psi1", "psi1 is not finite on the residual window [-6.0, 6.0]"),
    ])
    def test_quantity_not_finite_off_the_box_is_named_with_its_point_set(self, quantity,
                                                                       message):
        # each quantity turns inf beyond |x| = 4, outside the box but inside the
        # residual window (6 scale hints) and the probe grid (8)
        def beyond(fn):
            def wrapped(x):
                return np.where(np.abs(x) > 4.0, np.inf, fn(x))
            return wrapped

        model = poly_wplus_model(PolyWplusParams(2.0, 1.0))
        if quantity == "W1":
            joint = model.W1.w_and_wprime
            model = dataclasses.replace(model, W1=dataclasses.replace(
                model.W1, w_and_wprime=lambda x: (beyond(lambda t: joint(t)[0])(x),
                                                  beyond(lambda t: joint(t)[1])(x))))
        elif quantity == "v_minus":
            model = dataclasses.replace(model, potentials=dataclasses.replace(
                model.potentials, v_minus=beyond(model.potentials.v_minus)))
        else:
            model = dataclasses.replace(model, psi1=dataclasses.replace(
                model.psi1, psi=beyond(model.psi1.psi)))
        with pytest.raises(QueryRangeError) as refused:
            verify_model(model, Grid(3.0, 401))
        assert str(refused.value) == message

    def test_explicit_grid_and_tolerances_are_used(self):
        model = poly_wplus_model(PolyWplusParams(2.0, 1.0))
        grid = Grid(6.0, 2001)
        tight = Tolerances(energy=1e-9)
        report = verify_model(model, grid, tight)
        assert report.grid.L == 6.0
        assert report.tolerances.energy == 1e-9
        # discretization error alone exceeds such a tolerance
        assert not report.checks["energy_levels"]
        assert not report.passed

    def test_stencil_residual_sees_the_state_not_quadrature_noise(self):
        # The reference is the same 200-point, +-6 scale-hint stencil with
        # fd_step = 3e-4 scale hints, V_minus from the model and psi0 from
        # 30-digit mpmath.quad of int W (the model's piecewise W evaluated at
        # 30 digits, breakpoints at x0 +- TAYLOR_WINDOW*scale_hint).  The h^2
        # stencil turns integral errors that are not smooth into 1/h^2 noise.
        reference = 8.2175472e-6
        report = verify_model(poly_wplus_model(PolyWplusParams(0.4875, 13.9506)))
        assert report.residual_sups[0] == pytest.approx(reference, rel=0.01)
