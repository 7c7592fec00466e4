"""Simulation engine for a Bose-Einstein condensate in a symmetric
circular triple-well trap: exact three-mode diagonalization, su(3)
coherent-state tools, generalized purity scaling, and the semiclassical
mean-field limit."""

__version__ = "0.1.0"

from .algebra import ModelParams, generators, model_context
from .coherent import ClassicalPoint, QuantumState, coherent_state
from .errors import (BracketingError, IntegrationError, NumericalError,
                     SolverError)
from .fock import FockBasis, build_basis
from .purity import (critical_chi_q, generalized_purity, ground_state_purity,
                     power_law_fit, purity_scan)
from .semiclassical import (bifurcation_scan, classical_hamiltonian,
                            find_fixed_points, integrate_trajectory,
                            level_crossing, theta_min_analysis,
                            twin_critical_points, twin_energy_reduced)
from .spectral import SpectrumResult, ground_state, spectrum
from .distributions import (ScalarField2D, count_local_maxima,
                            husimi_population, phase_distribution,
                            phase_marginal_variance)

__all__ = [
    "ModelParams", "generators", "model_context", "ClassicalPoint",
    "QuantumState", "coherent_state", "BracketingError", "IntegrationError",
    "NumericalError", "SolverError", "FockBasis", "build_basis",
    "critical_chi_q", "generalized_purity", "ground_state_purity",
    "power_law_fit", "purity_scan", "bifurcation_scan",
    "classical_hamiltonian", "find_fixed_points", "integrate_trajectory",
    "level_crossing", "theta_min_analysis", "twin_critical_points",
    "twin_energy_reduced", "SpectrumResult", "ground_state", "spectrum",
    "ScalarField2D", "count_local_maxima", "husimi_population",
    "phase_distribution", "phase_marginal_variance",
]
