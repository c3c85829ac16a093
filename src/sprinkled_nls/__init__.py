"""Numerical laboratory for the 1D cubic NLS with nonlinearity sprinkled on
a random atomic measure: samplers, weighted norms, mollified potentials, a
splitting solver, and reproducibility studies."""

from .bump import (BUMP_INTEGRAL, bump, bump_scaled, cutoff, plateau_cutoff,
                   smoothstep)
from .constants import CALIBRATION
from .diagnostics import (atomic_energy, energy, kinetic_energy, mass,
                          quartic_measure_integral, tail_norms, tail_report)
from .errors import (BlowUpError, ConfigError, OracleInstabilityError,
                     ResolutionError, SprinkledNLSError)
from .field import (Grid, GriddedDensity, WaveField, evaluate_at,
                    free_propagator, gaussian_field, l2_norm, load_field_bin,
                    load_field_csv, lp_project, random_field, save_field_bin,
                    save_field_csv, sobolev_norm, sup_norm)
from .measure import (WeightProfile, block_norm, chi, interval_mass, nk_squared,
                      weight, weight_profile, weighted_l2_norm)
from .mollify import (VARIANTS, check_resolution, mollified_density,
                      truncated_potential)
from .point_process import (AtomicMeasure, TestFunction,
                            bernoulli_laplace_functional,
                            empirical_laplace_functional,
                            fixed_count_laplace_functional, load_atoms_json,
                            poisson_laplace_functional, sample_bernoulli_crystal,
                            sample_comb, sample_fixed_count, sample_poisson,
                            save_atoms_csv, save_atoms_json, smoothed_indicator)
from .rng import generator, substream, substream_seed
from .solver import (SolverParams, Trajectory, evolve, evolve_regularized,
                     oracle_evolve, save_snapshots, save_trajectory_csv)
from .studies import (StudyReport, eps_convergence_study, laplace_study,
                      moment_study, save_report_csv, save_report_json,
                      stability_study)

__version__ = "0.1.0"
