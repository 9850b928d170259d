"""Kicked two-mode Jahn-Teller model: classical map, bifurcations, Floquet
spectra, Husimi functions and entanglement measures."""

from .errors import (ComputeError, ConfigError, EigFailure, KickJTError,
                     NonFiniteState, OutOfRange, StepUnderflow, TruncationLoss)
from .model import ValidatedConfig, acot, checked_coupling
from .classical_map import (SubMap, composed_step, inverse_step,
                            jacobian_canonical, spin_rotation_matrix,
                            step_arrays, step_jacobian, submap)
from .bifurcation import (CriticalCoupling, CriticalCouplings, FixedPoint,
                          PortraitGrid, Stability, critical_couplings,
                          default_seeds, find_fixed_points, portrait,
                          reflection_symmetry_score)
from .quantum_floquet import (FloquetSpectrum, FockBasis, TrackedPath,
                              TrackedSample, apply_floquet, apply_kick,
                              build_basis, floquet_operator, floquet_spectrum,
                              h0_phases, pes_seed, pgs_seed,
                              phase_space_expectations, sector_leakage,
                              track_eigenstate)
from .observables import (SpinDirection, approx_bifurcated_states,
                          coherent_amplitudes, coherent_state, curve_derivative,
                          detection_probability, entanglement_measures,
                          husimi_on_section, husimi_product_grid,
                          husimi_values, log_negativity, reduced_density,
                          section_amplitudes, section_peaks, spin_state,
                          state_tensor, von_neumann_entropy)

__version__ = "0.1.0"
