"""Numerical laboratory for the 1D cubic NLS with nonlinearity sprinkled on
a random atomic measure: samplers, weighted norms, mollified potentials, a
splitting solver, and reproducibility studies.

The top level holds what README documents plus the independent oracles;
everything else is imported from its submodule."""

from .field import Grid, gaussian_field, load_field_bin
from .measure import weight_profile
from .point_process import (AtomicMeasure, bernoulli_laplace_functional,
                            fixed_count_laplace_functional,
                            poisson_laplace_functional, sample_poisson)
from .rng import substream_seed
from .solver import SolverParams, evolve_regularized, oracle_evolve
from .studies import StudyReport, eps_convergence_study, save_report_json

__all__ = [
    "AtomicMeasure",
    "Grid",
    "SolverParams",
    "StudyReport",
    "eps_convergence_study",
    "evolve_regularized",
    "gaussian_field",
    "load_field_bin",
    "sample_poisson",
    "save_report_json",
    "substream_seed",
    "weight_profile",
    # oracles: the Runge-Kutta reference solver and the closed-form Laplace
    # functionals
    "oracle_evolve",
    "poisson_laplace_functional",
    "bernoulli_laplace_functional",
    "fixed_count_laplace_functional",
]

__version__ = "0.1.0"
