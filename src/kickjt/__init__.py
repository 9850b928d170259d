"""Kicked two-mode Jahn-Teller model: classical map, bifurcations, Floquet
spectra, Husimi functions and entanglement measures."""

from .errors import (ComputeError, ConfigError, DimensionMismatch, EigFailure,
                     GridTooSmall, KickJTError, NoConvergence, OutOfRange,
                     PoleProximity, StepUnderflow, TruncationLoss)
from .model import (ModelParams, NumericsConfig, ValidatedConfig, acot,
                    make_config, validate_params)
from .classical_map import (OscillatorPoint, PhasePoint, SpinVector, SubMap,
                            Trajectory, composed_step, inverse_step, iterate,
                            jacobian_canonical, spin_rotation_matrix, step,
                            step_arrays, step_jacobian, submap)
from .bifurcation import (CriticalCoupling, CriticalCouplings, FixedPoint,
                          PortraitGrid, Stability, bifurcation_residual,
                          branch_scan, critical_couplings, default_seeds,
                          find_fixed_points, portrait,
                          reflection_symmetry_score)
from .quantum_floquet import (FloquetSpectrum, FockBasis, Operator,
                              OperatorSet, QuantumState, TrackedPath,
                              TrackedSample, apply_floquet, apply_kick,
                              build_basis, build_operators, diagonalize,
                              expectation, floquet_operator, h0_phases,
                              pes_seed, pgs_seed,
                              phase_space_expectations, sector_leakage,
                              track_eigenstate)
from .observables import (DensityMatrix, EntanglementMeasures, HusimiGrid,
                          PhaseSection, SpinDirection,
                          approx_bifurcated_states, coherent_amplitudes,
                          coherent_state, curve_derivative,
                          detection_probability, diagonal_line_section,
                          entanglement_measures, husimi, husimi_on_section,
                          husimi_product_grid, husimi_values, log_negativity,
                          plane_section, product_state, reduced_density,
                          section_peaks, spin_state, state_tensor,
                          von_neumann_entropy)

__version__ = "0.1.0"
