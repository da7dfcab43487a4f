"""The package's public names, pinned so that any growth or removal of the
API shows in review."""
from __future__ import annotations

import inspect

import evofam

PUBLIC_NAMES = [
    "BalanceCertificate", "CheckRow", "CollisionKernel", "CollisionModel", "ConfigError",
    "DefectSeries", "DysonPhillipsTable", "EvaluationError", "EvofamError",
    "ExperimentConfig", "FragmentationModel", "Grid", "LiftedVector", "MassLedger",
    "ModelContractError", "PerturbedModel", "PreconditionError",
    "SeparableCoefficient", "SeriesResult", "SizeCapError", "StructureError",
    "TimeGrid", "TimeProfile", "abstract_grid", "binary_fragmentation_model",
    "cocycle_residual", "collision_model", "collision_perturbed_model", "daughter_factors",
    "daughter_matrix", "defect", "detailed_balance_certificate", "duhamel_residual",
    "fragmentation_model", "fragmentation_perturbed_model", "fragmentation_rate",
    "frequency_matching_kernel", "gaussian_kernel_matrix", "grid_leakage", "honesty_verdict",
    "iterate_left", "iterate_right", "kernel_mass_check", "kick_block_norm",
    "laplace_transform_check", "left_right_discrepancy", "lifted_norm", "loss_gain_model",
    "mass_ledger", "mol_reference", "outflow_kernel_matrix",
    "parse_config", "resolvent_factorization_check", "resolvent_series_check", "series_sum",
    "table_verdict", "two_state_exchange",
    "uniform_kernel_matrix", "uniform_mass_grid", "uniform_velocity_grid", "validation_times",
]


def test_public_names_are_pinned():
    # every name the package exports but its submodules and dunders
    names = sorted(name for name, value in vars(evofam).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES
    assert len(names) == 61
