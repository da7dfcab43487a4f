"""Exception taxonomy shared across the package."""


class EvofamError(Exception):
    """Base class for all package-specific errors."""


class StructureError(EvofamError, ValueError):
    """Malformed grid/vector data: length mismatches, bad weights, bad kinds."""


class ModelContractError(EvofamError, ValueError):
    """A model violates its contract (negative rates, NaN kernel entries,
    subcriticality failures in strict mode)."""


class EvaluationError(EvofamError, RuntimeError):
    """An operator evaluation failed inside the iteration engine.

    Carries the iterate index, the time node and, where one is known, the
    grid node at which the failure occurred so runs on large tables remain
    diagnosable.
    """

    def __init__(self, message: str, n: int | None = None, tau: float | None = None,
                 node: int | None = None):
        super().__init__(message)
        self.n = n
        self.tau = tau
        self.node = node


class SizeCapError(EvofamError, ValueError):
    """A request exceeds a hard size cap (left-recursion table, memory guard)."""


class PreconditionError(EvofamError, ValueError):
    """Operation preconditions not met (off-grid split point, nonpositive
    reference density, too-short Laplace horizon, ...)."""


class ConfigError(EvofamError, ValueError):
    """Bad experiment configuration: unknown keys, missing sections, bad values."""
