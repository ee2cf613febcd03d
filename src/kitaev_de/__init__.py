"""Diagonal entropy and topological transitions in extended Kitaev chains.

A numpy library for the exact momentum-space solution of extended
Kitaev chains (variable-range pairing, optionally variable-range hopping),
their winding numbers and Majorana zero modes, diagonal-entropy scaling laws
in the Z and X measurement bases, global entanglement, and
susceptibility-based detection of topological phase transitions.  A small
exact-diagonalization oracle (N <= 12, a numpy Lanczos solve that returns
the ground state in its fermion-parity block) ships with the library and
anchors every sign convention in the test suite.  Nothing in the package
imports scipy.
"""

from .analysis import (CriticalPointReport, ScalingFit, SusceptibilityCurve,
                       block_coefficients, comparative_scan,
                       detect_critical_points, fit_block_law, fit_volume_law,
                       susceptibility)
from .entropy import (DiagonalDistribution, EntropyReport,
                      block_diagonal_distribution, block_diagonal_entropy,
                      de_density, global_entanglement,
                      pure_state_diagonal_entropy)
from .errors import (DegenerateGroundStateError, GaplessSpecError,
                     IllConditionedError, InsufficientPointsError,
                     InvalidParameterError, KitaevDEError, NonUniformGridError,
                     NormalizationFailureError, NumericalWindingWarning,
                     OddDimensionError, SpectrumOverflowError,
                     TolAmbiguousError)
from .gaussian import (CorrelatorKernel, DenseCorrelations, correlator_kernel,
                       open_chain_correlations, pair_correlation, pfaffian,
                       sigma_x_correlator, sigma_z_correlator)
from .majorana import Side, ZeroMode, build_coupling, mode_count, zero_modes
from .model import (ModeData, ModelSpec, Variant, dispersion, minimum_gap,
                    momentum_grid, solve_chain)
from .topology import (PhaseScan, Trajectory, WindingResult,
                       nu_change_locations, phase_boundary_scan, trajectory,
                       winding_number)

__version__ = "0.1.0"
