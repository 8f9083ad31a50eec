"""Simulation and analysis of optical-rotation measurements with
polarization-entangled photon pairs: evolved Bell states, joint
observables, seeded coincidence Monte Carlo, rotation-angle extraction,
state tomography, CHSH tests and Fisher-information sensitivity."""

__version__ = "0.1.0"

from .channels import apply_noise, rotate_arm
from .config import ExperimentConfig, config_hash, load_config, loads_config
from .measure import (CoincidenceTable, Detection, chsh_from_counts,
                      estimate_observables, exact_observables, exact_table,
                      extract_thetas, outcome_probabilities, parse_setting,
                      read_table, rotation_from_observables, scan_theta_a,
                      simulate_counts, write_table)
from .metrology import probe_state, qfi, variance_scaling
from .states import (BELL_KINDS, bell_state, cosine_similarity, fidelity, ket,
                     maximally_mixed, save_state, separable_state, validate_state)
from .sweeps import SweepResult, fit_line, run_sweep, write_sweep, zero_crossing
from .tomography import (BASIS_LABELS, DESIGN, KETS, MleResult,
                         linear_inversion, mle_reconstruct, predicted_counts,
                         read_tomo_counts, bootstrap_sigmas, write_tomo_counts)
