"""Exception types shared across the package.

Every error raised on a contract violation derives from :class:`RidgeprecError`,
so callers (including the CLI) can distinguish data/numeric problems from plain
bugs with a single except clause.
"""


class RidgeprecError(Exception):
    """Base class for all contract violations raised by this package."""


class InvalidMatrixError(RidgeprecError):
    """Input matrix is non-finite, non-square, or not symmetric."""


class NotPositiveDefiniteError(RidgeprecError):
    """A matrix required to be positive definite is not."""


class InvalidPenaltyError(RidgeprecError):
    """Penalty value outside the estimator's domain."""


class InvalidTargetError(RidgeprecError):
    """Target matrix/specification violates its variant's constraints."""


class EmptyDataError(RidgeprecError):
    """A data matrix with zero rows was supplied."""


class InvalidFoldsError(RidgeprecError):
    """Cross-validation fold structure is impossible for the data size."""


class InsufficientDataError(RidgeprecError):
    """Too few values to fit the requested model."""


class DegenerateFitError(RidgeprecError):
    """Inputs admit no meaningful fit (e.g. all values identical)."""


class ConstructionFailedError(RidgeprecError):
    """A constructed object failed its own validity check."""


class InvalidParameterError(RidgeprecError):
    """A scalar or structural parameter is outside its documented domain."""


def whole(value, name: str, low: int = 1, error=InvalidParameterError) -> int:
    """``value`` as an ``int``, if it is a whole number ``>= low``.

    Counts and RNG seeds enter the package through this one check. Anything
    else, including NaN, infinities, strings and ``None``, raises ``error``.
    """
    try:
        if int(value) == value and value >= low:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    what = {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")
    raise error(f"{name} must be {what}, got {value!r}")
