"""Tests for the independent spectral verification battery."""

import dataclasses
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial import hermite
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

from qespair import verify
from qespair.construct import build_from_phi, build_from_wplus
from qespair.errors import QueryRangeError
from qespair.expressions import parse_generator
from qespair.families import FAMILIES, PolyWplusParams, poly_phi_ces_model, poly_wplus_model
from qespair.verify import (Grid, Tolerances, _simpson, auto_grid, count_nodes, eigensolve,
                            verify_model)


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


def needle_well(x):
    """A deeper, narrower well: no solve from the shifts that miss it meets the residual gate."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x * x - 1e4 * np.exp(-((x - 0.02) / 0.001) ** 2)


def offset_well(x):
    """Oscillator plus a narrow well off the origin."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x * x - 100.0 * np.exp(-((x - 2.0) / 0.003) ** 2)


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
        # 32001 points are steered by 4001, steered in turn by 501, which
        # LAPACK bisects only to the steering tolerance
        calls = []

        def recording(diag, off, *args, **kwargs):
            calls.append((diag.size, kwargs.get("tol")))
            return eigh_tridiagonal(diag, off, *args, **kwargs)

        monkeypatch.setattr(verify, "eigh_tridiagonal", recording)
        eigensolve(harmonic, Grid(10.0, n), 4)
        h = 20.0 / 500  # ||T||_1 on 501 points: the largest row sum, V(10 - h) + 2/h^2
        norm = harmonic(10.0 - h) + 2.0 / h**2
        assert calls == [(501, pytest.approx(verify.STEER_TOL * norm, rel=1e-15))]

    @pytest.mark.parametrize("v, L", _oracle_cases())
    def test_fine_grid_takes_one_factorization_and_one_solve_per_level(self, v, L, monkeypatch):
        # each 32001-point level starts from its 4001-point vector, interpolated,
        # and passes the residual gate after its first solve; the 4001-point
        # grid refines the 501-point guesses with one solve per level and no
        # certificate, so the one Sturm count is the fine grid's
        sizes = {"dgttrf": [], "dgttrs": [], "dstebz": []}
        for name, seen in sizes.items():
            def recording(first, d, *args, lapack=getattr(verify, name), seen=seen):
                seen.append(d.size)
                return lapack(first, d, *args)

            monkeypatch.setattr(verify, name, recording)
        eigensolve(v, Grid(L, 32001), 4)
        assert sorted(sizes["dgttrf"]) == sorted(sizes["dgttrs"]) == [4001] * 4 + [32001] * 4
        assert sizes["dstebz"] == [32000]  # the off-diagonal of the fine grid

    @pytest.mark.parametrize("k", [3, 4])
    def test_refined_levels_out_of_shift_order_are_sorted(self, k, caplog):
        # Every 8th point lands in the well at x = 2, so its coarse shift is
        # the lowest by far; it refines to a level above the oscillator's
        # ground state, and the certified levels are put back in order.
        grid = Grid(10.0, 4001)
        coarse = verify._levels(offset_well(grid.points()[::verify.COARSEN]),
                                verify.COARSEN * grid.h, 4)[0]
        assert coarse == pytest.approx([-5.944, 0.531, 1.660, 2.905], abs=1e-3)
        with caplog.at_level(logging.DEBUG, logger="qespair.verify"):
            energies, vectors = eigensolve(offset_well, grid, k)
        assert caplog.records == []  # certified: no fallback
        assert energies == pytest.approx([0.49144, 1.42570, 2.30308, 3.30227][:k], abs=1e-5)
        ref_energies, ref_vectors, norm = lapack_levels(offset_well, grid, k)
        assert np.max(np.abs(energies - ref_energies)) <= np.finfo(float).eps * norm
        assert np.min(np.abs(np.sum(vectors * ref_vectors, axis=0))) >= 1.0 - 1e-14

    @pytest.mark.parametrize("well,k,ground,reason", [
        (narrow_well, 1, -3.9617, "Sturm count"),
        (narrow_well, 3, -3.9617, "overlap"),
        (needle_well, 4, -1231.056, "residual gate"),
    ], ids=["sturm-count", "overlap", "residual-gate"])
    def test_missed_bound_state_falls_back_to_lapack(self, well, k, ground, reason, caplog):
        # Every 8th point misses the well, so the shifts start near 0.5
        # while the ground level is far below: only the certificate sees it.
        grid = Grid(10.0, 4001)
        with caplog.at_level(logging.DEBUG, logger="qespair.verify"):
            energies, vectors = eigensolve(well, grid, k)
        ref_energies, ref_vectors, _ = lapack_levels(well, grid, k)
        assert energies[0] == pytest.approx(ground, abs=1e-4)
        assert np.array_equal(energies, ref_energies)
        assert np.array_equal(vectors, ref_vectors)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, f"eigensolve certificate failed ({reason}) at N=4001, k={k}; "
                            f"using bisection")]

    @pytest.mark.parametrize("steering", [
        lambda levels, starts: (levels[[1, 0, 2]], starts),
        lambda levels, starts: (levels[[2, 1, 0]], starts[:, [1, 2, 0]]),
    ], ids=["shifts-permuted", "shifts-and-starts-permuted"])
    def test_permuted_steering_still_gives_the_lowest_levels(self, steering, caplog):
        # a shift next to another level refines onto that level: the
        # certificate sorts what it refined, so a permutation does not fail it
        grid = Grid(10.0, 4001)
        ref_energies, ref_vectors, norm = lapack_levels(harmonic, grid, 3)
        with caplog.at_level(logging.DEBUG, logger="qespair.verify"):
            energies, vectors = verify._levels(harmonic(grid.points()), grid.h, 3,
                                               steering(ref_energies, ref_vectors.copy(order="F")))
        assert caplog.records == []
        assert np.max(np.abs(energies - ref_energies)) <= np.finfo(float).eps * norm
        assert np.min(np.abs(np.sum(vectors * ref_vectors, axis=0))) >= 1.0 - 1e-14

    @pytest.mark.parametrize("steering", [
        lambda levels, starts: (levels[[0, 0, 2]], starts[:, [0, 0, 2]]),
        lambda levels, starts: (levels[[0, 2, 2]], starts),
    ], ids=["shifts-and-starts-duplicated", "shifts-duplicated"])
    def test_duplicated_steering_falls_back_to_lapack(self, steering, caplog):
        # two shifts refine onto one level: its intervals overlap
        grid = Grid(10.0, 4001)
        ref_energies, ref_vectors, _ = lapack_levels(harmonic, grid, 3)
        with caplog.at_level(logging.DEBUG, logger="qespair.verify"):
            energies, vectors = verify._levels(harmonic(grid.points()), grid.h, 3,
                                               steering(ref_energies, ref_vectors.copy(order="F")))
        assert np.array_equal(energies, ref_energies)
        assert np.array_equal(vectors, ref_vectors)
        assert [r.getMessage() for r in caplog.records] == [
            "eigensolve certificate failed (overlap) at N=4001, k=3; using bisection"]

    @pytest.mark.parametrize("reason,pot,h,shift,start", [
        # 1/h^2 = 1e308: the stencil's norm overflows.  No public call gets
        # here: LAPACK's bisection already fails on the innermost coarse grid
        # (and on V_minus, before its partner) when 1/h^2 there nears 1e153
        # (`qes verify --family poly-wplus --grid-l 1e-74`), while a norm
        # of finite samples overflows only past 1e292.
        ("non-finite norm", np.zeros(3), 1e-154, 0.0, 1.0),
        # 1 is an exact eigenvalue of [[1, -1/2, 0], [-1/2, 1, -1/2], [0, -1/2, 1]]
        ("zero pivot", np.zeros(3), 1.0, 1.0, 1.0),
        ("non-finite solve", np.zeros(3), 1.0, 0.2, np.nan),
    ], ids=["non-finite-norm", "zero-pivot", "non-finite-solve"])
    def test_each_uncertified_return_names_its_reason(self, reason, pot, h, shift, start,
                                                      caplog):
        with caplog.at_level(logging.DEBUG, logger="qespair.verify"):
            assert verify._certified_levels(pot, h, [shift], np.full((3, 1), start)) is None
        assert [r.getMessage() for r in caplog.records] == [
            f"eigensolve certificate failed ({reason}) at N=3, k=1; using bisection"]

    @pytest.mark.parametrize("n", [4003, 101], ids=["n-1-not-a-multiple-of-8", "coarse-grid-too-small"])
    def test_ineligible_grids_keep_lapack_bits(self, n, caplog):
        grid = Grid(10.0, n)
        with caplog.at_level(logging.DEBUG, logger="qespair.verify"):
            energies, vectors = eigensolve(harmonic, grid, 3)
        ref_energies, ref_vectors, _ = lapack_levels(harmonic, grid, 3)
        assert np.array_equal(energies, ref_energies)
        assert np.array_equal(vectors, ref_vectors)
        assert caplog.records == []  # not a certificate failure


class TestPartnerSteering:
    @pytest.mark.parametrize("bump", [0.0, 0.3, 3.0])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_v_plus_levels_are_its_own_whatever_steers_them(self, family, bump, caplog):
        # W' + 2 bump exp(-(x - 0.3)^2) moves V_plus alone by bump exp(-(x - 0.3)^2):
        # model.potentials, which V_minus is solved from, keep the model's own W.
        # So V_minus's levels 1-3 and A psi_minus are wrong guesses for V_plus.
        spec = FAMILIES[family]
        model = spec.build(dict(spec.defaults))
        joint = model.W.w_and_wprime

        def bumped(x):
            w, wprime = joint(x)
            return w, wprime + 2.0 * bump * np.exp(-(x - 0.3) ** 2)

        grid = auto_grid(model)
        with caplog.at_level(logging.DEBUG, logger="qespair.verify"):
            report = verify_model(dataclasses.replace(
                model, W=dataclasses.replace(model.W, w_and_wprime=bumped)), grid)
        w, wprime = bumped(grid.points())
        ref_energies, _, norm = lapack_levels(lambda x: 0.5 * (w * w + wprime), grid, 3)
        assert np.max(np.abs(report.eigenvalues_plus - ref_energies)) <= np.finfo(float).eps * norm
        guesses_off = np.max(np.abs(report.eigenvalues[1:] - ref_energies))
        assert guesses_off < 1e-5 if bump == 0.0 else guesses_off > 0.05
        # a small bump is still certified from the wrong guesses; a large one
        # fails the certificate and is logged as any other failure is
        assert [r.getMessage() for r in caplog.records] == ([] if bump < 1.0 else [
            f"eigensolve certificate failed (overlap) at N={grid.N}, k=3; using bisection"])


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
        assert count_nodes([1.0, 1e-12, -1e-12]) == 0  # one entry above the floor

    def test_empty_input(self):
        assert count_nodes([]) == 0


class TestQuadratureHelpers:
    def test_simpson_gives_the_oscillator_ground_state_energy(self):
        grid = Grid(10.0, 2001)
        x = grid.points()
        p, dp = np.exp(-0.5 * x * x), -x * np.exp(-0.5 * x * x)
        num = _simpson(0.5 * dp * dp + harmonic(x) * p * p, grid.h)
        assert num / _simpson(p * p, grid.h) == pytest.approx(0.5, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 1000).flatmap(
               lambda m: arrays(np.float64, 2 * m + 1,
                                elements=st.floats(-1e300, 1e300))),
           st.floats(1e-6, 1e3))
    def test_simpson_matches_scipy_bit_for_bit(self, y, h):
        assert np.float64(_simpson(y, h)).tobytes() == np.float64(simpson(y, dx=h)).tobytes()


CAP_WARNING = "decay target 1e-12 not reached inside L = 50 scale hints; using the capped box"


def scalar_walk(model, target_decay=Tolerances.boundary_decay):
    """The box as auto_grid's one-call-per-step walk finds it (the reference), or
    None where that walk reaches the cap undecayed."""
    s = model.scale_hint
    span = np.linspace(model.x0 - 10.0 * s, model.x0 + 10.0 * s, 801)
    with np.errstate(all="ignore"):
        peaks = [float(np.max(np.abs(p))) for p in model.states(span)]
        for steps in range(max(1, math.ceil((abs(model.x0) + s) / s)), verify.AUTO_GRID_CAP + 1):
            edges = [np.max(np.abs(p)) for p in model.states(np.array([steps * s, -steps * s]))]
            if all(e <= target_decay * peak for e, peak in zip(edges, peaks)):
                return steps * s
    return None


def _auto_grid_cases(draws=8):
    """Model builders: every family at `draws` parameter draws over the benchmark's
    ranges, and parsed seeds on both routes."""
    rng = np.random.default_rng(2020)

    def log_uniform(lo=0.05, hi=20.0):
        return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))

    params = {
        "poly-wplus": lambda: {"a": log_uniform(), "b": log_uniform()},
        "poly-phi": lambda: {"a": log_uniform(), "b": log_uniform(), "epsilon": log_uniform()},
        "poly-phi-ces": lambda: {"a": log_uniform(), "b": log_uniform()},
        "sinh-wplus": lambda: {"A": log_uniform(0.5, 20.0), "alpha": log_uniform(0.5, 2.0),
                               "x0": float(rng.uniform(-1.0, 1.0))},
    }
    cases = []
    for name, draw in params.items():
        for i in range(draws):
            p = draw()
            cases.append(pytest.param(lambda name=name, p=p: FAMILIES[name].build(p),
                                      id=f"{name}-{i}"))
    for expr in ("2*x + x^3", "x^3 + x - 0.5", "sinh(x - 0.4)", "3*tanh(x) + x^3",
                 "0.5*x + 0.2*x^5", "2*x + tanh(x - 0.3)"):
        cases.append(pytest.param(lambda e=expr: build_from_wplus(parse_generator(e)),
                                  id=f"wplus-{expr}"))
    for expr, eps in (("x + x^3/3", 1.5), ("sinh(x)", 0.7), ("tanh(x) + 0.1*x^3", 4.0),
                      ("x - 0.5 + x^3", 2.0), ("x + 0.3*x^3 + 0.5*tanh(2*x - 1)", 1.5)):
        cases.append(pytest.param(lambda e=expr, eps=eps: build_from_phi(parse_generator(e), eps),
                                  id=f"phi-{expr}-{eps}"))
    return cases


AUTO_GRID_CASES = _auto_grid_cases()


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
        assert [r.getMessage() for r in caplog.records] == [CAP_WARNING]
        assert scalar_walk(model) is None

    @pytest.mark.parametrize("build", AUTO_GRID_CASES)
    def test_box_is_the_one_the_scalar_walk_finds(self, build, caplog):
        with caplog.at_level(logging.WARNING, logger="qespair.verify"):
            grid = auto_grid(build())
        model = build()  # a fresh copy: the walk fills nothing auto_grid filled
        reference = scalar_walk(model)
        assert grid == Grid(reference or verify.AUTO_GRID_CAP * model.scale_hint)
        assert [r.getMessage() for r in caplog.records if r.name == "qespair.verify"] == (
            [] if reference else [CAP_WARNING])

    # beyond the span the walk goes on step by step; 0.05*x decays at the cap's own step
    @pytest.mark.parametrize("expr,box", [("0.1*x", 35.0), ("0.05*x", 50.0)])
    def test_box_beyond_the_span(self, expr, box, caplog):
        with caplog.at_level(logging.WARNING, logger="qespair.verify"):
            grid = auto_grid(build_from_wplus(parse_generator(expr)))
        assert grid.L == box == scalar_walk(build_from_wplus(parse_generator(expr)))
        assert not [r for r in caplog.records if r.name == "qespair.verify"]

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["right", "left"])
    def test_nan_edge_sample_on_either_side_is_not_decayed(self, side, caplog):
        # psi1 is NaN beyond x = 12 on one side: past the span, so only the edges see it
        model = build_from_wplus(parse_generator("0.1*x"))
        psi = model.psi1.psi
        model = dataclasses.replace(model, psi1=dataclasses.replace(
            model.psi1, psi=lambda x: np.where(side * x > 12.0, np.nan, psi(x))))
        with caplog.at_level(logging.WARNING, logger="qespair.verify"):
            grid = auto_grid(model)
        assert grid.L == 50.0
        assert [r.getMessage() for r in caplog.records] == [CAP_WARNING]
        assert scalar_walk(model) is None

    def test_in_span_steps_are_one_states_call(self):
        model = poly_phi_ces_model(1.0, 1.0)
        calls = []

        def counted(x):
            calls.append(x)
            return model.psi0.psi(x)

        auto_grid(dataclasses.replace(model, psi0=dataclasses.replace(model.psi0, psi=counted)))
        assert len(calls) == 2  # the span, then every in-span step; the walk made 9


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

    # each Tolerances field, the report fields its gates read, and their checks
    GATED = {"energy": {"energy_errors": "energy_levels",
                        "susy_degeneracy_errors": "susy_degeneracy"},
             "cosine_gap": {"cosine_gaps": "eigenvector_overlap"},
             "orthogonality": {"orthogonality_ratio": "orthogonality"},
             "riccati": {"riccati_sup": "riccati_identity"},
             "residual_scale": {"residual_sups": "schrodinger_residual"}}

    @pytest.mark.parametrize("field,measured", [(f, m) for f, ms in GATED.items() for m in ms])
    def test_each_gate_fails_at_its_measured_value_and_passes_just_above(self, field, measured):
        # eps = 1, so every gate is its tolerance: a check fails exactly when
        # one of its values is not strictly below it
        spec = FAMILIES["poly-wplus"]
        model = spec.build(dict(spec.defaults))
        assert model.epsilon == 1.0
        def values(report):  # everything measured, without the gates and verdicts
            return {k: v for k, v in report.items() if k not in ("tolerances", "checks", "passed")}

        base = verify_model(model).to_dict()
        assert all(base["checks"].values())
        largest = {m: float(np.max(base[m])) for m in self.GATED[field]}
        for gate in (largest[measured], np.nextafter(largest[measured], np.inf)):
            report = verify_model(model, tolerances=Tolerances(**{field: gate})).to_dict()
            assert values(report) == values(base)
            failing = {check for m, check in self.GATED[field].items() if largest[m] >= gate}
            assert {k for k, ok in report["checks"].items() if not ok} == failing
            assert (self.GATED[field][measured] in failing) == (gate == largest[measured])

    def test_swapped_states_fail_the_node_count(self):
        spec = FAMILIES["poly-wplus"]
        model = spec.build(dict(spec.defaults))
        report = verify_model(dataclasses.replace(model, psi0=model.psi1, psi1=model.psi0))
        assert report.node_counts == [1, 0]
        assert report.checks["node_counts"] is False

    def test_stencil_residual_sees_the_state_not_quadrature_noise(self):
        # The reference is the same 200-point, +-6 scale-hint stencil with
        # fd_step = 3e-4 scale hints, V_minus from the model and psi0 from
        # 30-digit mpmath.quad of int W (the model's piecewise W evaluated at
        # 30 digits, breakpoints at x0 +- TAYLOR_WINDOW*scale_hint).  The h^2
        # stencil turns integral errors that are not smooth into 1/h^2 noise.
        reference = 8.2175472e-6
        report = verify_model(poly_wplus_model(PolyWplusParams(0.4875, 13.9506)))
        assert report.residual_sups[0] == pytest.approx(reference, rel=0.01)
