"""Exception hierarchy shared by all qpmaps modules."""

from __future__ import annotations


class QPError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(QPError, ValueError):
    """An argument is outside the values the called function accepts."""


class DimensionMismatchError(QPError):
    """Matrix or vector shapes are inconsistent for the requested operation."""


class SingularMatrixError(QPError):
    """A square matrix required to be invertible has rank below its dimension."""


class RankDeficientInputError(QPError):
    """An input that must have full row or column rank does not."""


class IllConditionedBlockError(QPError):
    """The structured block layout needed by a decoupling transform is unreachable.

    A loud guard against construction bugs: the variables a decoupling
    transform should decouple still appear in B or in (lam | A).
    """


class NonPositiveStateError(QPError, ValueError):
    """A state vector has a component that is not strictly positive and finite."""


class DuplicateQuasimonomialsError(QPError, ValueError):
    """Two rows of an exponent matrix are identical.

    Equal rows describe one and the same quasimonomial; build the map through
    merge_degenerate_qms instead.
    """


class OverflowDivergenceError(QPError):
    """An exponent argument left the configured floating-point safety range.

    Signals a diverging orbit, not a bug. `step_index` is filled in when the
    overflow happens inside an iteration loop, and `states` then holds the
    orbit computed before it.
    """

    def __init__(self, message: str, *, argument: float | None = None,
                 step_index: int | None = None):
        super().__init__(message)
        self.argument = argument
        self.step_index = step_index
        self.states: list | None = None


class FixedPointNotFound(QPError):
    """No interior fixed point exists for the map (or it cannot be certified)."""


class NotNonRedundantError(QPError):
    """The map violates the non-redundant-form rank conditions required here."""


class NotSameClassError(QPError):
    """The two maps are not related by the supplied change of variables."""


class NotApplicableError(QPError):
    """The operation's structural precondition does not hold for this input."""


class OrbitEscapedError(QPError):
    """A simulated orbit left the positive orthant or the float range.

    `scheme` names which discretization escaped ('qp' or 'euler'),
    `step_index` when.
    """

    def __init__(self, message: str, *, scheme: str, step_index: int):
        super().__init__(message)
        self.scheme = scheme
        self.step_index = step_index


class ModelFileError(QPError, ValueError):
    """A model file, command-line value or time step failed to validate.

    Carries the offending path and a field locator such as 'A[0][1]' so the
    CLI can print a precise diagnostic.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 field: str | None = None):
        parts = []
        if path:
            parts.append(str(path))
        if field:
            parts.append(field)
        prefix = ": ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.path = path
        self.field = field
