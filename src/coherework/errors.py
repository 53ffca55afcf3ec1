"""Exception types shared across the library.

Every validation failure raises a subclass of :class:`CohereworkError`, so the
CLI can map any physics-level problem to a single exit code while keeping the
specific error name in the message.
"""


class CohereworkError(Exception):
    """Base class for all coherework errors."""


class NonSquareError(CohereworkError):
    """Matrix operation received a non-square (or non 2-d) array."""


class NonFiniteError(CohereworkError, ValueError):
    """A matrix entry or a report value is NaN or infinite.

    Also a :class:`ValueError`, the type numeric code raises for a bad value.
    """


class ParameterRangeError(CohereworkError, ValueError):
    """A numeric parameter (a probability, a count, a factor index) lies
    outside its documented range.

    Also a :class:`ValueError`, the type numeric code raises for a bad value.
    """


class NonHermitianError(CohereworkError):
    """Matrix is not Hermitian within the requested tolerance."""


class NotUnitaryError(CohereworkError):
    """Matrix is not unitary within the requested tolerance."""


class DimMismatchError(CohereworkError):
    """Operands have incompatible dimensions."""


class StateValidationError(CohereworkError):
    """A state-like object violates one of its construction invariants."""


class RankError(CohereworkError):
    """Projector rank requirement violated (rank-1 needed)."""


class EnergyOutOfRangeError(CohereworkError):
    """Target energy lies outside the open spectral interval of H."""


class ClampRequiredError(CohereworkError):
    """State has a zero eigenvalue and no purity clamp was allowed."""


class SupportError(CohereworkError, ValueError):
    """A distribution lacks the full support a computation needs, such as a
    thermal state whose populations underflow at a large beta.

    Also a :class:`ValueError`, the type numeric code raises for a bad value.
    """


class AlphabetTooLargeError(CohereworkError):
    """Distribution alphabet too large for exact computation."""


class ConsistencyError(CohereworkError, ValueError):
    """Cross-check between two quantities that must agree failed."""
