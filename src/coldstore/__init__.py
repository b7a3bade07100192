"""Exact finite-N simulation of collective atomic storage states.

Sparse labeled state vectors over (field Fock occupations) x (atomic level
assignments), collective transition operators with spatial phases, storage
and dark-state constructions, adiabatic control sweeps, and resonant
photon/excitation transfer — every approximation quantified against exact
finite-N references.
"""

import types as _types

from ._version import __version__
from .errors import (
    BudgetExceededError,
    CapacityError,
    ColdstoreError,
    ConfigError,
    FockOverflowError,
    IntegrationError,
    NotNormalizedError,
    SectorOverflowError,
    SpaceMismatchError,
    ZeroNormError,
)
from .states import (
    DROP_TOL,
    AtomConfig,
    JointLabel,
    SparseKet,
    StateSpace,
    atomic_space,
    fidelity,
    inner_product,
    level_population,
    normalize,
    photon_expectation,
)
from .geometry import (
    ConditionReport,
    Geometry,
    ModeSet,
    PhaseSumReport,
    check_mode_conditions,
    continuum_phase_sum,
    lattice_phase_sum_closed,
    mode_spacing_estimate,
    phase_sum,
    phase_sum_crosscheck,
)
from .operators import (
    AngularMomentumCheck,
    angular_momentum_eigencheck,
    apply_field,
    apply_population,
    apply_r1,
    apply_r2,
    apply_r3,
    apply_r_squared,
    apply_rho_ab,
    apply_rho_ac,
    apply_sigma,
    commutator_matrix_element,
    sigma_commutator_element,
)
from .storage import (
    NormalizationAudit,
    StorageSpec,
    asymptotic_coefficient,
    ladder_prefactor,
    normalization_audit,
    storage_direct,
    storage_ladder,
    vacuum,
    with_field_occupation,
)
from .propagate import (
    enumerate_basis,
    enumerate_sector,
    estimate_basis_size,
    estimate_sector_size,
    operator_matrix,
    present_totals,
    rk4_propagate,
)
from .eit import (
    EitParams,
    RampSchedule,
    Trajectory,
    adiabatic_sweep,
    apply_hamiltonian,
    apply_polariton,
    control_amplitude,
    dark_state,
    excited_level_state,
    joint_space,
    mixing_angle,
    multimode_dark_state,
    null_eigenvalue_residual,
)
from .transfer import (
    BosonicState,
    SwapCheckpoint,
    SwapReport,
    associate_state,
    bosonic_to_joint,
    evolve_analytic,
    evolve_exact_atoms,
    evolve_numeric,
    exact_vs_analytic_deviation,
    expected_swap_state,
    rotation_grids,
    subsystem_purity,
    swap_check,
    transfer_curve,
    transfer_space,
    write_transfer_csv,
)
from .harness import Report, run, scan, validate_config

# every public name imported above
__all__ = ["__version__", *(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType))]
