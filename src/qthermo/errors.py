"""Exception types shared across the package."""


class QThermoError(Exception):
    """Base class for every error raised by qthermo."""


class InvariantViolationError(QThermoError):
    """An input broke a structural invariant (Hermiticity, trace, positivity)."""


class DimensionMismatchError(QThermoError):
    """Operands with incompatible shapes."""


class NumericalConsistencyError(QThermoError):
    """A quantity that must be real (or otherwise constrained) drifted past tolerance."""


class AmbiguousGroupingError(QThermoError):
    """Transition-frequency grouping tolerance is incompatible with the spectrum."""


class UnsupportedModelError(QThermoError):
    """Model requires a diverging zero-frequency rate (flat spectral density with
    a nonvanishing zero-frequency coupling component)."""


class AccuracyError(QThermoError):
    """A trajectory lost accuracy over a grid interval (trace drift, an entry
    above 1, non-finite entries)."""


class NonUniqueSteadyStateError(QThermoError):
    """Numerical null space of the generator has dimension above one."""

    def __init__(self, message: str, dimension: int):
        super().__init__(message)
        self.dimension = dimension


class SolverFailureError(QThermoError):
    """Null-space extraction produced no usable stationary state."""


class DegenerateInputError(QThermoError):
    """Parameters leave the model with no dynamics (for instance all baths at T = 0
    where a closed form divides by the mean occupation)."""


class ConfigError(QThermoError):
    """Invalid or unknown configuration input."""
