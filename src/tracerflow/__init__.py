"""tracerflow: spectral Monte-Carlo passive tracer transport and ergodicity diagnostics."""

__version__ = "0.1.0"

from .spectrum import (SpectrumModel, SpectrumError,
                       build_power_law_spectrum, spectrum_from_tables,
                       gamma_star, check_h1, check_h2, h2_tail_bound)
from .field import (NumericalFailure, zero_field, sobolev_norm, evaluate,
                    origin_value, sample_stationary, ou_exact_step,
                    covariance_oracle, noiseless_flow_step)
from .tracer import (TrajectoryRecord, shift_field, advect_step, run_lagrangian,
                     stokes_drift_estimate, displacement_identity_gap)
from .ergodic import (ObservableSpec, ErgodicReport, occupation_fraction,
                      summarize_run, moment_scan, stability_probe,
                      e_property_probe, lln_test, stationary_norm_moment)
from .chain import (contraction_map, climb_probability, ladder_weights,
                    ladder_survival_limit, exact_distribution,
                    kernel_power_profile, kernel_power_closed_form,
                    simulate_paths)
from .config import (ExperimentConfig, ConfigError, parse_config,
                     serialize_config, config_hash)
from ._ensemble import run_trajectory_ensemble

__all__ = [name for name in dir() if not name.startswith("_")]
