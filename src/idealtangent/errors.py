"""Error taxonomy shared across the engine.

Exit-code mapping used by the CLI:
  ValidationError -> 1, BudgetError -> 2, compare mismatch -> 3,
  InternalCheckError -> 4.
"""


class IdealTangentError(Exception):
    """Base class for all engine errors."""


class ValidationError(IdealTangentError):
    """Bad input: parse errors, inhomogeneous generators, non-ideals, ..."""


class NotASubschemeError(ValidationError):
    """Z's ideal does not contain X's ideal degreewise."""


class NotAHomomorphismError(ValidationError):
    """A linear map failed the multiplicativity check."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetError(IdealTangentError):
    """A configured cap fired (Harrison weight, operad arity, ...)."""


class InternalCheckError(IdealTangentError):
    """An exact internal assertion failed (d*d != 0 class of bugs)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
