"""Independent numerical verification of constructed models.

The discrete Hamiltonian is the standard second-order stencil on a symmetric
box with hard walls:

    H[i,i]   = 1/h^2 + V(x_i),      H[i,i+1] = H[i+1,i] = -1/(2 h^2),

so eigenvalue errors shrink like h^2.  Everything here consumes the model
only through callables -- the analytic construction is never trusted, only
sampled.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

from .construct import QesModel
from .errors import QueryRangeError
from .functions import _sample_finite, _sample_states
from .susy import riccati_residual

__all__ = [
    "Grid",
    "Tolerances",
    "SpectralReport",
    "auto_grid",
    "eigensolve",
    "count_nodes",
    "rayleigh_quotient",
    "verify_model",
]


VERIFY_LEVELS = 4  # lowest levels of V_minus that verify_model solves for
AUTO_GRID_CAP = 50  # auto_grid's widest box, in scale hints

# Shifted inverse iteration in eigensolve (see _certified_levels).
COARSEN = 8               # the shifts are the levels on every COARSEN-th grid point
MIN_COARSE_POINTS = 201   # fewest coarse points the shifts are taken from
INVERSE_SOLVES = 3        # most normalized solves per factorization of T - sigma I
MAX_REFACTORS = 3         # refactorizations at the Rayleigh quotient
RESIDUAL_GATE = 4.0       # accept ||T x - lam x|| <= RESIDUAL_GATE sqrt(N) eps ||T||_1
ROUNDOFF_SLACK = 4.0      # error interval lam +- (r + ROUNDOFF_SLACK eps ||T||_1)

_log = logging.getLogger(__name__)


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
        if not self.h * self.h > 1.0 / np.finfo(float).max:
            raise QueryRangeError(f"the box [-{self.L!r}, {self.L!r}] is too narrow for "
                                  f"{self.N} points: 1/h^2 is not finite")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N - 1)

    @property
    def where(self) -> str:  # the grid as messages about its samples name it
        return f"the grid [-{self.L!r}, {self.L!r}]"

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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def auto_grid(model: QesModel, target_decay: float = Tolerances.boundary_decay,
              n_points: int = Grid.N) -> Grid:
    """Smallest symmetric box whose walls both known states have decayed at.

    L is scanned outward in steps of the model's scale hint until both
    |psi0| and |psi1| at +-L drop below target_decay times their own peak,
    capped at AUTO_GRID_CAP scale hints (logged as a WARNING on qespair.verify
    when the cap bites).  Each step samples both states at [L, -L] in one
    model.states call.  The peaks come from the checked sampler on the +-10
    scale-hint span, which names a state that is not finite there, or zero on
    all of it, and the span; an edge sample that is not finite means only that
    it has not decayed.
    """
    s = model.scale_hint
    span = np.linspace(model.x0 - 10.0 * s, model.x0 + 10.0 * s, 801)
    peaks = [float(np.max(np.abs(p))) for p in _sample_states(
        model.states, span, f"auto_grid's span [{span[0]}, {span[-1]}]")]

    steps = max(1, math.ceil((abs(model.x0) + s) / s))
    while steps <= AUTO_GRID_CAP:
        L = steps * s
        edges = [max(np.abs(p).tolist()) for p in model.states(np.array([L, -L]))]
        if all(e <= target_decay * peak for e, peak in zip(edges, peaks)):
            return Grid(L, n_points)
        steps += 1
    _log.warning("decay target %s not reached inside L = %d scale hints; using the capped box",
                 target_decay, AUTO_GRID_CAP)
    return Grid(AUTO_GRID_CAP * s, n_points)


def _tridiagonal(pot: np.ndarray, h: float):
    """Diagonal and off-diagonal of the stencil for potential samples h apart."""
    h2 = h * h
    return 1.0 / h2 + pot, np.full(pot.size - 1, -0.5 / h2)


def _uncertified(reason: str, n: int, k: int) -> None:
    _log.debug("eigensolve certificate failed (%s) at N=%d, k=%d; using bisection",
               reason, n, k)
    return None


@np.errstate(over="ignore", invalid="ignore")  # a non-finite norm or residual is uncertified
def _certified_levels(pot: np.ndarray, h: float, k: int):
    """Lowest k eigenpairs by shifted inverse iteration, or None when they
    cannot be certified.

    The shifts and start vectors are the lowest k eigenpairs of the box on
    every COARSEN-th point (from _levels), the vectors linearly interpolated
    onto the fine grid.  Per shift, T - sigma I is factored once and up to
    INVERSE_SOLVES normalized solves run, stopping at the first whose
    Rayleigh quotient lam has residual r = ||T x - lam x|| <= RESIDUAL_GATE
    sqrt(N) eps ||T||_1; if none does, sigma moves to lam and the matrix is
    factored again (at most MAX_REFACTORS times).  Each interval
    lam +- (r + ROUNDOFF_SLACK eps ||T||_1) holds an eigenvalue; when the
    intervals are disjoint and one Sturm count finds exactly k eigenvalues
    up to the top of the highest, they hold the k lowest, one each.
    """
    n = pot.size
    try:
        shifts, coarse = _levels(pot[::COARSEN], COARSEN * h, k)
    except np.linalg.LinAlgError:
        return _uncertified("coarse solve", n, k)
    diag, sub = _tridiagonal(pot, h)
    off = float(sub[0])

    ulp = np.finfo(float).eps
    norm = max(float(np.max(np.abs(diag[1:-1]))) + 2.0 * abs(off),
               abs(float(diag[0])) + abs(off), abs(float(diag[-1])) + abs(off))
    if not math.isfinite(norm):
        return _uncertified("residual gate", n, k)
    gate = RESIDUAL_GATE * math.sqrt(n) * ulp * norm
    slack = ROUNDOFF_SLACK * ulp * norm
    fine = np.arange(n) / COARSEN
    coarse_points = np.arange(coarse.shape[0])

    def apply_t(x):
        tx = diag * x
        tx[1:] += off * x[:-1]
        tx[:-1] += off * x[1:]
        return tx

    levels, radii = np.empty(k), np.empty(k)
    states = np.empty((n, k), order="F")
    for j, sigma in enumerate(shifts):
        x = np.interp(fine, coarse_points, coarse[:, j])
        for solve in range((1 + MAX_REFACTORS) * INVERSE_SOLVES):
            if solve % INVERSE_SOLVES == 0:  # the shift, then lam after INVERSE_SOLVES misses
                dl, d, du, du2, ipiv, info = dgttrf(sub, diag - sigma, sub)
                if info > 0:
                    return _uncertified("zero pivot", n, k)
            x, _ = dgttrs(dl, d, du, du2, ipiv, x)
            size = float(np.linalg.norm(x))
            if not 0.0 < size < math.inf:
                return _uncertified("residual gate", n, k)
            x = x / size
            tx = apply_t(x)
            sigma = float(x @ tx)
            r = float(np.linalg.norm(tx - sigma * x))
            if r <= gate:
                break
        else:
            return _uncertified("residual gate", n, k)
        levels[j], radii[j], states[:, j] = sigma, r + slack, x

    order = np.argsort(levels)
    lam, rho = levels[order], radii[order]
    if not np.all(lam[1:] - rho[1:] > lam[:-1] + rho[:-1]):
        return _uncertified("overlap", n, k)
    # Sturm count on (Gershgorin lower bound, top of the highest interval]
    # (stebz range 1: by value); a tolerance wider than that interval stops
    # stebz before any bisection.
    lower = min(float(np.min(diag[1:-1])) + 2.0 * off,
                float(diag[0]) + off, float(diag[-1]) + off) - slack
    upper = float(lam[-1] + rho[-1])
    count, *_, info = dstebz(diag, sub, 1, lower, upper, 0, 0, 2.0 * (upper - lower), "E")
    if info != 0 or count != k:
        return _uncertified("Sturm count", n, k)
    if np.any(order != np.arange(k)):  # copies only when refinement reordered the levels
        states[:] = states[:, order]
    return lam, states


def _levels(pot: np.ndarray, h: float, k: int):
    """Lowest k eigenpairs of the stencil on pot, as eigensolve returns them:
    certified on an eligible grid, else (or when the certificate fails) by
    LAPACK's bisection (stebz) plus inverse iteration (stein)."""
    n = pot.size
    if (n - 1) % COARSEN == 0 and (n - 1) // COARSEN + 1 >= max(MIN_COARSE_POINTS, 4 * k + 1):
        certified = _certified_levels(pot, h, k)
        if certified is not None:
            return certified
    return eigh_tridiagonal(*_tridiagonal(pot, h), select="i", select_range=(0, k - 1))


def eigensolve(v: Callable, grid: Grid, k: int):
    """Lowest k eigenpairs of the boxed Hamiltonian -(1/2) d2/dx2 + v.

    Always returns both: (energies ascending, eigenvectors as columns,
    l2-normalized); a caller that needs only the energies drops the second.
    On an eligible grid ((N - 1) a multiple of COARSEN, at least
    max(MIN_COARSE_POINTS, 4k + 1) coarse points) shifted inverse iteration
    refines the eigenpairs of the box on every COARSEN-th point, which the
    same rule solves, from their interpolated vectors, stopping each level
    at the first solve that passes its residual gate; that residual bound,
    disjoint error intervals and one Sturm count certify the k lowest
    eigenpairs, each energy within its residual plus roundoff.  Otherwise,
    or when the certificate fails (logged at DEBUG on qespair.verify),
    LAPACK's bisection plus inverse iteration solves the grid.  Either way
    the result is accurate to the roundoff of the discrete operator; what
    remains is the O(h^2) discretization error of the stencil itself.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > grid.N // 4:
        raise ValueError("k is too large for this grid")
    pot = _sample_finite(v, grid.points(), grid.where, "potential")
    try:
        return _levels(pot, grid.h, k)
    except np.linalg.LinAlgError as exc:
        raise QueryRangeError(f"the eigensolver did not converge on {grid.where} "
                              f"with {grid.N} points ({exc})") from exc


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule over an odd number of samples spaced h apart.

    The sum is scipy.integrate.simpson's own for this case, in the same order
    of operations, so the two agree bit for bit.
    """
    return float(np.sum(y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) * (h / 3.0))


def count_nodes(values) -> int:
    """Strict sign changes among entries that clear the noise floor.

    Entries with magnitude at or below 1e-9 of the largest magnitude are
    dropped before counting, which suppresses both roundoff zeros in the
    tails and the exact zero a node can land on.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return 0
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
    p, dp, vx = _sample_finite(lambda x: (psi(x), psi_prime(x), v(x)), grid.points(),
                               grid.where, "psi", "psi_prime", "potential")
    num = _simpson(0.5 * dp * dp + vx * p * p, grid.h)
    return num / _simpson(p * p, grid.h)


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


def verify_model(model: QesModel, grid: Optional[Grid] = None,
                 tolerances: Optional[Tolerances] = None) -> SpectralReport:
    """Run the full battery of independent checks against a model.

    (i) the two claimed energies appear at the bottom of the numeric
    spectrum; (ii) the numeric eigenvectors point along the analytic states;
    (iii) the analytic states are orthogonal; (iv) their node counts are 0
    and 1; (v) the partner spectra interlace exactly one step apart;
    (vi) the level-linking identity holds on the probe grid; (vii) the
    analytic states satisfy the differential equation pointwise.  Each model
    quantity read on a point set comes from the checked sampler, which names
    one that is not finite (or a state that is zero on every point) and the
    point set in a QueryRangeError.
    """
    tol = tolerances or Tolerances()
    if grid is None:
        grid = auto_grid(model, tol.boundary_decay)

    x = grid.points()
    eps = model.epsilon
    tol_e = tol.energy_effective(eps)

    e_minus, vec_minus = eigensolve(model.potentials.v_minus, grid, VERIFY_LEVELS)
    e_plus, _ = eigensolve(model.potentials.v_plus, grid, 3)

    energy_errors = [abs(float(e_minus[0])), abs(float(e_minus[1]) - eps)]
    check_energy = all(err < tol_e for err in energy_errors)

    # over 2^(its peak's exponent), exact: no product below overflows, no ratio moves a bit
    on_grid = _sample_states(model.states, x, grid.where)
    exps = [math.frexp(float(np.max(np.abs(p))))[1] for p in on_grid]
    psi0_s, psi1_s = (np.ldexp(p, -e) for p, e in zip(on_grid, exps))

    def cosine_gap(samples, vec):
        num = abs(float(samples @ vec))
        den = float(np.linalg.norm(samples) * np.linalg.norm(vec))
        return 1.0 - num / den

    cosine_gaps = [cosine_gap(psi0_s, vec_minus[:, 0]), cosine_gap(psi1_s, vec_minus[:, 1])]
    check_cosine = all(g < tol.cosine_gap for g in cosine_gaps)

    overlap = _simpson(psi0_s * psi1_s, grid.h)
    n0 = _simpson(psi0_s * psi0_s, grid.h)
    n1 = _simpson(psi1_s * psi1_s, grid.h)
    ortho_ratio = abs(overlap) / math.sqrt(n0 * n1)
    check_orth = ortho_ratio < tol.orthogonality

    node_counts = [count_nodes(psi0_s), count_nodes(psi1_s)]
    check_nodes = node_counts == [0, 1]

    degeneracy = [abs(float(e_minus[n + 1]) - float(e_plus[n])) for n in range(3)]
    check_degeneracy = all(d < tol_e for d in degeneracy)

    probe = model.probe_points()
    riccati = _sample_finite(lambda p: riccati_residual(model.W, model.W1, eps, p), probe,
                             f"the probe grid [{probe[0]}, {probe[-1]}]", "riccati_residual")
    riccati_sup = float(np.max(np.abs(riccati)))
    check_riccati = riccati_sup < tol.riccati

    res_x = np.linspace(model.x0 - 6.0 * model.scale_hint,
                        model.x0 + 6.0 * model.scale_hint, 200)
    fd_step = 3e-4 * model.scale_hint
    window = f"the residual window [{res_x[0]}, {res_x[-1]}]"
    shifted = np.concatenate([res_x, res_x + fd_step, res_x - fd_step])
    stencil = _sample_states(model.states, shifted, window)
    v_res = _sample_finite(model.potentials.v_minus, res_x, window, "v_minus")
    residual_sups = []  # sup |-(1/2) psi'' + (V - E) psi| / sup |psi|, central stencil
    for state, samples in zip((model.psi0, model.psi1), stencil):
        p, right, left = np.split(samples, 3)
        lap = (right - 2.0 * p + left) / (fd_step * fd_step)
        r = -0.5 * lap + (v_res - state.energy) * p
        residual_sups.append(float(np.max(np.abs(r))) / float(np.max(np.abs(p))))
    check_residual = all(r < tol.residual_scale * max(1.0, eps) for r in residual_sups)

    norms = [math.ldexp(1.0 / math.sqrt(n), -e) for n, e in zip((n0, n1), exps)]

    boundary = {name: max(abs(p[0]), abs(p[-1])) / float(np.max(np.abs(p)))
                for name, p in (("psi0", psi0_s), ("psi1", psi1_s))}
    diagnostics = []
    for name, ratio in boundary.items():
        if ratio > tol.boundary_decay:
            diagnostics.append(
                f"{name} boundary amplitude ratio {ratio:.3e} exceeds the decay target; "
                f"the box may be truncating the state")
    if grid.L == AUTO_GRID_CAP * model.scale_hint and max(boundary.values()) > tol.boundary_decay:
        diagnostics.append(f"box L = {grid.L:g} is auto_grid's cap of {AUTO_GRID_CAP} scale "
                           f"hints of {model.scale_hint:g}, where it stops whether or not the "
                           f"states have decayed")

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
        orthogonality_ratio=ortho_ratio,
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
