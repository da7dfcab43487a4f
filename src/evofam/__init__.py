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
    abstract_grid,
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
    iterate_left,
    iterate_right,
    left_right_discrepancy,
    loss_gain_model,
    series_sum,
)
from .honesty import (
    BalanceCertificate,
    DefectSeries,
    MassLedger,
    defect,
    detailed_balance_certificate,
    honesty_verdict,
    mass_ledger,
    table_verdict,
)
from .coefficients import SeparableCoefficient, TimeProfile
from .boltzmann import (
    CollisionKernel,
    CollisionModel,
    collision_model,
    collision_perturbed_model,
    frequency_matching_kernel,
    gaussian_kernel_matrix,
    outflow_kernel_matrix,
    uniform_kernel_matrix,
    validation_times,
)
from .fragmentation import (
    FragmentationModel,
    binary_fragmentation_model,
    daughter_factors,
    daughter_matrix,
    fragmentation_model,
    fragmentation_perturbed_model,
    fragmentation_rate,
    grid_leakage,
    kernel_mass_check,
    mol_reference,
)
from .config import ExperimentConfig, parse_config
from .lifted import (
    CheckRow,
    LiftedVector,
    kick_block_norm,
    laplace_transform_check,
    lifted_norm,
    resolvent_factorization_check,
    resolvent_series_check,
)
from .presets import two_state_exchange

__version__ = "0.1.0"
