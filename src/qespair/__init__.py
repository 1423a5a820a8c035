"""Quasi-exactly solvable potential pairs with two analytic eigenstates.

The package builds one-dimensional Schrodinger potentials whose ground and
first excited states are known in closed form, by factorizing the Hamiltonian
through a superpotential and its partner. Models come from either a shared
superpotential sum with a single zero, or a monotone shape function together
with the desired level gap. Everything a model claims is re-checked against
an independent finite-difference eigensolver.
"""

from .construct import (CrossCheckResult, QesModel, build_from_phi, build_from_wplus,
                        cross_check_constructions, find_single_zero)
from .errors import (BrokenSusyError, ConfigError, ExpressionError,
                     GeneratorAdmissibilityError, InadmissibleModelError,
                     NonFiniteIntegrandError, ParameterError, PhiNotMonotoneError, QesError,
                     QueryRangeError)
from .expressions import parse_generator
from .families import (FAMILIES, PolyPhiParams, PolyWplusParams, SinhWplusParams,
                       ces_epsilon, ces_exact_spectrum, ces_excited_states,
                       poly_phi_ces_model, poly_phi_generator, poly_phi_model,
                       poly_wplus_generator, poly_wplus_model,
                       sinh_wplus_generator, sinh_wplus_model)
from .functions import CumulativeIntegral, GeneratorFunction, cumulative_integral
from .susy import (Eigenstate, PotentialPair, SignConditionCheck, Superpotential,
                   apply_raising, check_sign_condition, ground_state_minus,
                   make_superpotential, pair_potentials, riccati_residual)
from .verify import (Grid, SpectralReport, Tolerances, auto_grid, count_nodes,
                     eigensolve, rayleigh_quotient, verify_model)

__version__ = "0.1.0"

__all__ = [
    "BrokenSusyError", "ConfigError", "CrossCheckResult", "CumulativeIntegral",
    "Eigenstate", "ExpressionError", "FAMILIES", "GeneratorAdmissibilityError",
    "GeneratorFunction", "Grid",
    "InadmissibleModelError", "NonFiniteIntegrandError", "ParameterError",
    "PhiNotMonotoneError", "PolyPhiParams", "PolyWplusParams", "PotentialPair",
    "QesError", "QesModel", "QueryRangeError", "SignConditionCheck", "SinhWplusParams",
    "SpectralReport", "Superpotential", "Tolerances", "apply_raising",
    "auto_grid", "build_from_phi", "build_from_wplus", "ces_epsilon",
    "ces_exact_spectrum", "ces_excited_states", "check_sign_condition",
    "count_nodes", "cross_check_constructions", "cumulative_integral",
    "eigensolve", "find_single_zero",
    "ground_state_minus", "make_superpotential",
    "pair_potentials", "parse_generator", "poly_phi_ces_model",
    "poly_phi_generator", "poly_phi_model", "poly_wplus_generator",
    "poly_wplus_model", "rayleigh_quotient", "riccati_residual",
    "sinh_wplus_generator", "sinh_wplus_model", "verify_model",
]
