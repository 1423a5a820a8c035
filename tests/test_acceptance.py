"""Acceptance gate for the package.

Each test below is one acceptance criterion, checked at its stated tolerance
against an independent numerical route (finite-difference eigensolver,
hand-derived closed forms, or exact reference spectra).  Every criterion
prints a single [PASS]/[FAIL] line with its measured margins; run with -s to
see them all.
"""

import time

import numpy as np

import qespair as q
from qespair.verify import Grid, auto_grid, eigensolve

DEFAULT_MODELS = [
    ("poly-wplus", lambda: q.poly_wplus_model(q.PolyWplusParams(2.0, 1.0))),
    ("poly-phi", lambda: q.poly_phi_model(q.PolyPhiParams(1.0, 1.0, 1.0))),
    ("poly-phi-ces", lambda: q.poly_phi_ces_model(1.0, 1.0)),
    ("sinh-wplus", lambda: q.sinh_wplus_model(q.SinhWplusParams(1.0, 1.0, 0.0))),
]


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_two_known_levels_of_the_polynomial_sum_family():
    start = time.perf_counter()
    model = q.poly_wplus_model(q.PolyWplusParams(2.0, 1.0))
    grid = auto_grid(model)
    energies, _ = eigensolve(model.potentials.v_minus, grid, 2)
    elapsed = time.perf_counter() - start
    e0_err = abs(energies[0])
    e1_err = abs(energies[1] - 1.0)
    ok = grid.L <= 8.0 and grid.N == 4001 and e0_err < 1e-5 and e1_err < 1e-5 \
        and elapsed < 5.0
    assert report(
        "criterion 1: polynomial sum family hits E0=0, E1=a/2", ok,
        f"L={grid.L} |E0|={e0_err:.2e} |E1-1|={e1_err:.2e} runtime={elapsed:.2f}s")


def test_criterion_2_known_levels_do_not_move_with_b():
    levels = {}
    for b in (0.5, 1.0, 2.0):
        model = q.poly_wplus_model(q.PolyWplusParams(2.0, b))
        energies, _ = eigensolve(model.potentials.v_minus, auto_grid(model), 2)
        levels[b] = energies
    worst_abs = max(max(abs(e[0]), abs(e[1] - 1.0)) for e in levels.values())
    move0 = max(e[0] for e in levels.values()) - min(e[0] for e in levels.values())
    move1 = max(e[1] for e in levels.values()) - min(e[1] for e in levels.values())
    ok = worst_abs < 1e-5 and move0 < 2e-5 and move1 < 2e-5
    assert report(
        "criterion 2: E0 and E1 are independent of b", ok,
        f"worst level error={worst_abs:.2e} E0 spread={move0:.2e} E1 spread={move1:.2e}")


def test_criterion_3_shape_route_closed_form_and_levels():
    model = q.poly_phi_model(q.PolyPhiParams(1.0, 1.0, 1.0))
    xs = model.probe_points()
    # coefficients obtained by hand substitution for a=b=eps=1
    qpoly = 1.0 + xs ** 2
    closed = xs ** 2 / 18.0 + (5.0 / 3.0) / qpoly - (55.0 / 18.0) / qpoly ** 2 + 7.0 / 18.0
    sup = float(np.max(np.abs(model.potentials.v_minus(xs) - closed)))
    energies, _ = eigensolve(model.potentials.v_minus, auto_grid(model), 2)
    e0_err, e1_err = abs(energies[0]), abs(energies[1] - 1.0)
    ok = sup < 1e-10 and e0_err < 1e-5 and e1_err < 1e-5
    assert report(
        "criterion 3: shape-route potential matches its closed form", ok,
        f"sup={sup:.2e} |E0|={e0_err:.2e} |E1-1|={e1_err:.2e}")


def test_criterion_4_constrained_case_collapses_to_an_oscillator_ladder():
    model = q.poly_phi_ces_model(1.0, 1.0)
    xs = model.probe_points()
    partner_gap = float(np.max(np.abs(model.potentials.v_plus(xs)
                                      - (xs ** 2 / 8.0 + 1.25))))
    ladder = q.ces_exact_spectrum(1.0, 1.0, 5)
    energies, _ = eigensolve(model.potentials.v_minus, auto_grid(model, n_points=12001), 6)
    errs = [abs(e - t) for e, t in zip(energies, ladder)]
    ok = partner_gap < 1e-12 and max(errs) < 1e-5
    assert report(
        "criterion 4: constrained case gives the exact half-step ladder", ok,
        f"partner sup={partner_gap:.2e} worst ladder error={max(errs):.2e}")


def test_criterion_5_partner_spectra_are_degenerate_for_every_family():
    worst = {}
    for name, build in DEFAULT_MODELS:
        rep = q.verify_model(build())
        worst[name] = max(rep.susy_degeneracy_errors)
    ok = all(v < 1e-5 for v in worst.values())
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    assert report(
        "criterion 5: three partner levels coincide for every family", ok, detail)


def test_criterion_6_level_linking_identity_for_builtins_and_random_seeds():
    sups = []
    for name, build in DEFAULT_MODELS:
        model = build()
        xs = model.probe_points()
        sups.append(float(np.max(np.abs(
            q.riccati_residual(model.W, model.W1, model.epsilon, xs)))))
    rng = np.random.default_rng(20260814)
    for _ in range(20):
        c0 = rng.uniform(-0.6, 0.6)
        c1 = rng.uniform(0.5, 2.5)
        c2 = rng.uniform(-0.4, 0.4)
        c3 = rng.uniform(0.1, 1.2)
        c5 = rng.uniform(0.0, 0.3)
        expr = f"{c0} + {c1}*x + {c2}*x^2 + {c3}*x^3 + {c5}*x^5"
        scale = 0.6 if c5 > 0.05 else 0.8
        model = q.build_from_wplus(q.parse_generator(expr, scale_hint=scale))
        xs = model.probe_points()
        sups.append(float(np.max(np.abs(
            q.riccati_residual(model.W, model.W1, model.epsilon, xs)))))
    ok = max(sups) < 1e-9
    assert report(
        "criterion 6: linking identity holds for built-ins and 20 random seeds",
        ok, f"worst sup={max(sups):.2e} over {len(sups)} models")


def test_criterion_7_known_states_are_orthogonal():
    ratios = {}
    for name, build in DEFAULT_MODELS:
        ratios[name] = q.verify_model(build()).orthogonality_ratio
    ok = all(v < 1e-8 for v in ratios.values())
    detail = " ".join(f"{k}={v:.2e}" for k, v in ratios.items())
    assert report("criterion 7: normalized overlap of the two known states", ok, detail)


def test_criterion_8_node_counts_identify_the_state_ordering():
    counts = {}
    for name, build in DEFAULT_MODELS:
        counts[name] = q.verify_model(build()).node_counts
    ok = all(c == [0, 1] for c in counts.values())
    detail = " ".join(f"{k}={v}" for k, v in counts.items())
    assert report("criterion 8: ground state node-free, first excited one node",
                  ok, detail)


def test_criterion_9_both_construction_routes_agree():
    points = [(1.0, 1.0, 1.0), (1.0, 1.0, 1.5), (2.0, 0.5, 0.7),
              (0.5, 2.0, 3.0), (1.0, 3.0, 0.2)]
    sups = []
    for a, b, eps in points:
        result = q.cross_check_constructions(q.poly_phi_model(q.PolyPhiParams(a, b, eps)))
        sups.append(result.max_discrepancy)
    ok = max(sups) < 1e-8
    assert report(
        "criterion 9: shape route and sum route build the same model",
        ok, f"worst discrepancy={max(sups):.2e} over {len(points)} parameter points")


def test_criterion_10_eigensolver_oracle_and_convergence_order():
    energies, _ = eigensolve(lambda x: 0.5 * x * x, Grid(10.0, 16001), 3)
    errs = [abs(e - (n + 0.5)) for n, e in enumerate(energies)]

    def e1_error(n):
        e, _ = eigensolve(lambda x: 0.5 * x * x, Grid(10.0, n), 2)
        return abs(e[1] - 1.5)

    ratio = e1_error(2001) / e1_error(4001)
    ok = max(errs) < 1e-6 and 3.8 < ratio < 4.2
    assert report(
        "criterion 10: oscillator oracle and second-order convergence",
        ok, f"worst level error={max(errs):.2e} error ratio under step halving={ratio:.3f}")
