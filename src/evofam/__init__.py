"""evofam: perturbed substochastic evolution families on weighted grids.

Builds perturbation-series iterates for two-parameter evolution families,
tracks the mass ledger and defect sequence that decide honesty (no mass
lost past every finite iterate), and ships collision and fragmentation
application models plus a lifted-space (evolution semigroup) cross-check
suite and a config-driven CLI.
"""
from .errors import (
    ConfigError,
    EvaluationError,
    EvofamError,
    ModelContractError,
    PreconditionError,
    SizeCapError,
    StructureError,
)
from .state_space import (
    Grid,
    StateVector,
    abstract_grid,
    decompose,
    l1_norm,
    mass,
    uniform_mass_grid,
    uniform_velocity_grid,
)
from .evolution import (
    DysonPhillipsTable,
    EvolutionFamily,
    PerturbationFamily,
    PerturbedModel,
    SeriesResult,
    TimeGrid,
    cocycle_residual,
    duhamel_residual,
    iterate_binomial_check,
    iterate_left,
    iterate_right,
    left_right_discrepancy,
    loss_gain_model,
    partial_sum_states,
    series_sum,
    summed_family_values,
    validate_family,
)
from .honesty import (
    BalanceCertificate,
    DefectSeries,
    MassLedger,
    defect,
    defect_sequence,
    detailed_balance_certificate,
    honesty_verdict,
    mass_ledger,
    table_verdict,
)
from .coefficients import (
    SeparableCoefficient,
    TimeProfile,
    time_profile_from_params,
)
from .boltzmann import (
    CollisionKernel,
    CollisionModel,
    MassBalanceResult,
    apply_gain,
    apply_loss_flow,
    collision_model,
    collision_perturbed_model,
    frequency_matching_kernel,
    gain_mass_rate,
    gaussian_kernel_matrix,
    mass_balance_identity,
    outflow_kernel_matrix,
    uniform_kernel_matrix,
    validation_times,
)
from .fragmentation import (
    FragmentationModel,
    ShatteringReport,
    ShatteringRow,
    apply_breakup_decay,
    apply_fragment_gain,
    binary_fragmentation_model,
    daughter_matrix,
    fragmentation_model,
    fragmentation_perturbed_model,
    fragmentation_rate,
    grid_leakage,
    kernel_mass_check,
    mol_reference,
    shattering_experiment,
    vn_identity_residual,
)
from .config import ExperimentConfig, parse_config
from .lifted import (
    CheckRow,
    LiftedVector,
    apply_lifted_free,
    apply_lifted_iterate,
    apply_lifted_series,
    kick_block_norm,
    laplace_kick,
    laplace_transform_check,
    lifted_duhamel_residual,
    lifted_generator_matrix,
    lifted_norm,
    lifted_resolvent,
    lifted_zero,
    required_horizon,
    resolvent_factorization_check,
    resolvent_series_check,
    write_check_suite_csv,
)
from .presets import matrix_exchange_model, two_state_exchange

__version__ = "0.1.0"
