"""Exceptions shared across the library.

Every failure mode gets its own class so callers can react precisely;
nothing here carries state beyond the message except where noted.
"""


class ConecertError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(ConecertError):
    """Operands have incompatible lengths or shapes."""


class SingularMatrix(ConecertError):
    """Exact elimination hit a structurally singular system."""


class NotSymmetric(ConecertError):
    """A Gram matrix candidate is not symmetric."""


class NotPositiveDefinite(ConecertError):
    """A Gram matrix candidate has a non-positive leading principal minor.

    Attributes: order (1-based size of the failing minor), minor (its exact
    determinant value).
    """

    def __init__(self, order, minor):
        self.order = order
        self.minor = minor
        super().__init__(f"leading principal minor {order} is {minor}, not > 0")


class NotNested(ConecertError):
    """A subset pair or triple violates the required containment."""


class EmptyGroundSet(ConecertError):
    """Ordered partitions need a non-empty ground set."""


class GroundMismatch(ConecertError):
    """Partition blocks do not tile the expected ground set."""


class RankMismatch(ConecertError):
    """A vector or subset refers to a different rank than the basis, or a
    basis description (a dict or a JSON file) is malformed."""


class InvalidRank(ConecertError):
    """Requested rank is outside the family's legal range."""


class InvalidMode(ConecertError):
    """A --mode token is not one of the known basis or strictness tokens."""


class MissingParam(ConecertError):
    """An identity was invoked without a parameter it requires."""


class HypothesisViolated(ConecertError):
    """Strict-mode verification of a conditional identity: hypothesis fails."""


class NonRegularLambda(ConecertError):
    """A direction parameter lies on one of the identity's walls."""


class WitnessNotInterior(ConecertError):
    """A chamber witness fails substitution into its own sign vector."""


class CellBudgetExceeded(ConecertError):
    """Chamber enumeration would exceed the configured form or cell budget."""


class SamplingExhausted(ConecertError):
    """Rejection sampling failed to find a regular point within the budget."""
