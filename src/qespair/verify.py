"""Independent numerical verification of constructed models.

The discrete Hamiltonian is the standard second-order stencil on a symmetric
box with hard walls:

    H[i,i]   = 1/h^2 + V(x_i),      H[i,i+1] = H[i+1,i] = -1/(2 h^2),

so eigenvalue errors shrink like h^2.  Everything here consumes the model
only through callables -- the analytic construction is never trusted, only
sampled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

from .construct import QesModel
from .errors import QueryRangeError
from .susy import riccati_residual

__all__ = [
    "Grid",
    "Tolerances",
    "SpectralReport",
    "auto_grid",
    "eigensolve",
    "inner_product",
    "count_nodes",
    "rayleigh_quotient",
    "verify_model",
]


VERIFY_LEVELS = 4  # lowest levels of V_minus that verify_model solves for


@dataclass(frozen=True)
class Grid:
    """Symmetric uniform grid on [-L, L] with an odd number of points."""

    L: float
    N: int = 4001

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError("L must be positive and finite")
        if self.N < 3 or self.N % 2 == 0:
            raise ValueError("N must be an odd integer >= 3")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N - 1)

    def points(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.N)


@dataclass(frozen=True)
class Tolerances:
    """Acceptance thresholds for the verification checks.

    ``energy`` is absolute and is scaled by the level gap when eps > 1 (the
    discretization error grows with the energy scale).  ``boundary_decay`` is
    the amplitude ratio the auto grid drives the wavefunction tails below.
    """

    energy: float = 1e-5
    cosine_gap: float = 1e-6
    orthogonality: float = 1e-8
    riccati: float = 1e-9
    residual_scale: float = 1e-5
    boundary_decay: float = 1e-12

    def energy_effective(self, epsilon: float) -> float:
        return self.energy * max(1.0, epsilon)


def auto_grid(model: QesModel, target_decay: float = 1e-12, n_points: int = 4001,
              warn_sink: Optional[list] = None) -> Grid:
    """Smallest symmetric box whose walls both known states have decayed at.

    L is scanned outward in steps of the model's scale hint until both
    |psi0| and |psi1| at +-L drop below target_decay times their own peak,
    capped at 50 scale hints (with a diagnostic when the cap bites).
    """
    s = model.scale_hint
    span = np.linspace(model.x0 - 10.0 * s, model.x0 + 10.0 * s, 801)
    peak0 = float(np.max(np.abs(model.psi0.psi(span))))
    peak1 = float(np.max(np.abs(model.psi1.psi(span))))

    steps = max(1, math.ceil((abs(model.x0) + s) / s))
    cap = 50
    while steps <= cap:
        L = steps * s
        edges0 = max(abs(float(model.psi0.psi(L))), abs(float(model.psi0.psi(-L))))
        edges1 = max(abs(float(model.psi1.psi(L))), abs(float(model.psi1.psi(-L))))
        if edges0 <= target_decay * peak0 and edges1 <= target_decay * peak1:
            return Grid(L, n_points)
        steps += 1
    if warn_sink is not None:
        warn_sink.append(
            f"decay target {target_decay} not reached inside L = {cap} scale hints; "
            f"using the capped box")
    return Grid(cap * s, n_points)


def _sample_finite(fn: Callable, grid: Grid, name: str) -> np.ndarray:
    """fn on the grid points; QueryRangeError naming fn where a value is not finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = np.asarray(fn(grid.points()), dtype=float)
    if not np.all(np.isfinite(values)):
        raise QueryRangeError(f"{name} is not finite on the grid [-{grid.L!r}, {grid.L!r}]")
    return values


def eigensolve(v: Callable, grid: Grid, k: int):
    """Lowest k eigenpairs of the boxed Hamiltonian -(1/2) d2/dx2 + v.

    Returns (energies ascending, eigenvectors as columns, l2-normalized).
    The tridiagonal problem is solved by bisection plus inverse iteration,
    which is machine-accurate for the discrete operator; what remains is the
    O(h^2) discretization error of the stencil itself.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > grid.N // 4:
        raise ValueError("k is too large for this grid")
    pot = _sample_finite(v, grid, "potential")
    h2 = grid.h * grid.h
    diag = 1.0 / h2 + pot
    off = np.full(grid.N - 1, -0.5 / h2)
    energies, vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    return energies, vectors


def inner_product(f: Callable, g: Callable, grid: Grid) -> float:
    """Composite Simpson quadrature of f*g over the grid."""
    x = grid.points()
    y = np.asarray(f(x), dtype=float) * np.asarray(g(x), dtype=float)
    return float(simpson(y, dx=grid.h))


def count_nodes(values, floor: Optional[float] = None) -> int:
    """Strict sign changes among entries that clear the noise floor.

    Entries with magnitude at or below the floor (default 1e-9 of the largest
    magnitude) are dropped before counting, which suppresses both roundoff
    zeros in the tails and the exact zero a node can land on.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return 0
    if floor is None:
        floor = 1e-9 * float(np.max(np.abs(vals)))
    survivors = vals[np.abs(vals) > floor]
    if survivors.size < 2:
        return 0
    signs = np.sign(survivors)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def rayleigh_quotient(psi: Callable, psi_prime: Callable, v: Callable, grid: Grid) -> float:
    """<psi|H|psi>/<psi|psi> via the integrated-by-parts kinetic term.

    Using the analytic derivative keeps the estimate at quadrature accuracy
    instead of stencil accuracy; boundary terms vanish for decayed states.
    """
    x = grid.points()
    p = np.asarray(psi(x), dtype=float)
    dp = np.asarray(psi_prime(x), dtype=float)
    num = simpson(0.5 * dp * dp + np.asarray(v(x), dtype=float) * p * p, dx=grid.h)
    den = simpson(p * p, dx=grid.h)
    return float(num / den)


@dataclass(frozen=True)
class SpectralReport:
    """Everything the verification pass measured, plus pass/fail per check."""

    grid: Grid
    tolerances: Tolerances
    epsilon: float
    eigenvalues: list            # lowest 4 of V_minus
    eigenvalues_plus: list       # lowest 3 of V_plus
    energy_errors: list          # |E0 - 0|, |E1 - eps|
    cosine_gaps: list            # 1 - |cos(analytic, numeric)| for psi0, psi1
    orthogonality_ratio: float
    node_counts: list
    susy_degeneracy_errors: list
    riccati_sup: float
    residual_sups: list          # scaled Schrodinger residuals for psi0, psi1
    normalization_constants: list
    boundary_amplitudes: dict
    checks: dict
    passed: bool
    diagnostics: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _schrodinger_residual(psi: Callable, energy: float, v: Callable,
                          x: np.ndarray, fd_step: float):
    """Sup of |-(1/2) psi'' + (V - E) psi| with a small central stencil."""
    h = fd_step
    p = np.asarray(psi(x), dtype=float)
    lap = (np.asarray(psi(x + h), dtype=float) - 2.0 * p
           + np.asarray(psi(x - h), dtype=float)) / (h * h)
    r = -0.5 * lap + (np.asarray(v(x), dtype=float) - energy) * p
    return float(np.max(np.abs(r))), float(np.max(np.abs(p)))


def verify_model(model: QesModel, grid: Optional[Grid] = None,
                 tolerances: Optional[Tolerances] = None) -> SpectralReport:
    """Run the full battery of independent checks against a model.

    (i) the two claimed energies appear at the bottom of the numeric
    spectrum; (ii) the numeric eigenvectors point along the analytic states;
    (iii) the analytic states are orthogonal; (iv) their node counts are 0
    and 1; (v) the partner spectra interlace exactly one step apart;
    (vi) the level-linking identity holds on the probe grid; (vii) the
    analytic states satisfy the differential equation pointwise.
    """
    tol = tolerances or Tolerances()
    diagnostics: list = []
    if grid is None:
        grid = auto_grid(model, tol.boundary_decay, warn_sink=diagnostics)
    if model.provenance.get("numeric_derivatives"):
        diagnostics.append("generator derivatives were finite-difference fallbacks")

    x = grid.points()
    eps = model.epsilon
    tol_e = tol.energy_effective(eps)

    e_minus, vec_minus = eigensolve(model.potentials.v_minus, grid, VERIFY_LEVELS)
    e_plus, vec_plus = eigensolve(model.potentials.v_plus, grid, 3)

    energy_errors = [abs(float(e_minus[0])), abs(float(e_minus[1]) - eps)]
    check_energy = all(err < tol_e for err in energy_errors)

    psi0_s = np.asarray(model.psi0.psi(x), dtype=float)
    psi1_s = np.asarray(model.psi1.psi(x), dtype=float)

    def cosine_gap(samples, vec):
        num = abs(float(samples @ vec))
        den = float(np.linalg.norm(samples) * np.linalg.norm(vec))
        return 1.0 - num / den

    cosine_gaps = [cosine_gap(psi0_s, vec_minus[:, 0]), cosine_gap(psi1_s, vec_minus[:, 1])]
    check_cosine = all(g < tol.cosine_gap for g in cosine_gaps)

    overlap = simpson(psi0_s * psi1_s, dx=grid.h)
    n0 = simpson(psi0_s * psi0_s, dx=grid.h)
    n1 = simpson(psi1_s * psi1_s, dx=grid.h)
    ortho_ratio = abs(float(overlap)) / math.sqrt(float(n0) * float(n1))
    check_orth = ortho_ratio < tol.orthogonality

    node_counts = [count_nodes(psi0_s), count_nodes(psi1_s)]
    check_nodes = node_counts == [0, 1]

    degeneracy = [abs(float(e_minus[n + 1]) - float(e_plus[n])) for n in range(3)]
    check_degeneracy = all(d < tol_e for d in degeneracy)

    probe = model.probe_points()
    riccati_sup = float(np.max(np.abs(riccati_residual(model.W, model.W1, eps, probe))))
    check_riccati = riccati_sup < tol.riccati

    res_x = np.linspace(model.x0 - 6.0 * model.scale_hint,
                        model.x0 + 6.0 * model.scale_hint, 200)
    fd_step = 3e-4 * model.scale_hint
    residual_sups = []
    for state in (model.psi0, model.psi1):
        sup_r, sup_p = _schrodinger_residual(state.psi, state.energy,
                                             model.potentials.v_minus, res_x, fd_step)
        residual_sups.append(sup_r / sup_p)
    check_residual = all(r < tol.residual_scale * max(1.0, eps) for r in residual_sups)

    norms = [1.0 / math.sqrt(float(n0)), 1.0 / math.sqrt(float(n1))]

    boundary = {
        "psi0": max(abs(psi0_s[0]), abs(psi0_s[-1])) / float(np.max(np.abs(psi0_s))),
        "psi1": max(abs(psi1_s[0]), abs(psi1_s[-1])) / float(np.max(np.abs(psi1_s))),
    }
    for name, ratio in boundary.items():
        if ratio > tol.boundary_decay:
            diagnostics.append(
                f"{name} boundary amplitude ratio {ratio:.3e} exceeds the decay target; "
                f"the box may be truncating the state")

    checks = {
        "energy_levels": check_energy,
        "eigenvector_overlap": check_cosine,
        "orthogonality": check_orth,
        "node_counts": check_nodes,
        "susy_degeneracy": check_degeneracy,
        "riccati_identity": check_riccati,
        "schrodinger_residual": check_residual,
    }
    return SpectralReport(
        grid=grid,
        tolerances=tol,
        epsilon=eps,
        eigenvalues=[float(e) for e in e_minus],
        eigenvalues_plus=[float(e) for e in e_plus],
        energy_errors=energy_errors,
        cosine_gaps=[float(g) for g in cosine_gaps],
        orthogonality_ratio=float(ortho_ratio),
        node_counts=[int(n) for n in node_counts],
        susy_degeneracy_errors=[float(d) for d in degeneracy],
        riccati_sup=riccati_sup,
        residual_sups=[float(r) for r in residual_sups],
        normalization_constants=norms,
        boundary_amplitudes=boundary,
        checks=checks,
        passed=all(checks.values()),
        diagnostics=diagnostics,
    )
