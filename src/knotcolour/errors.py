"""Exception hierarchy.

Every domain error raised by this package subclasses ArtifactError, so
callers (and the CLI) can catch one type and map it to an error report.
"""


class ArtifactError(Exception):
    """Base class for all domain errors."""


class BadParameters(ArtifactError):
    """Malformed or out-of-range arguments (sizes, moduli, ranges)."""


class NotOrderM(ArtifactError):
    """The action matrix does not satisfy N^m = I on A."""


class FixedPoints(ArtifactError):
    """The action has a nonzero fixed point (phi - id is singular)."""


class GroupMismatch(ArtifactError):
    """Operands belong to different group specs."""


class BudgetExceeded(ArtifactError):
    """A search would exceed its budget: for the colouring enumerators,
    the linear system has more solutions than the budget allows."""


class NotUnimodular(ArtifactError):
    """A matrix required to have determinant +-1 does not."""


class PatternMismatch(ArtifactError):
    """Data does not match the stabilization pattern being inverted."""


class NotSymplecticable(ArtifactError):
    """The alternating form cannot be brought to the standard block form."""


class DivisibilityFailure(ArtifactError):
    """A lift-and-divide step hit a non-divisible entry."""


class LiftFailure(ArtifactError):
    """No structured lift of the action matrix exists in the search range."""


class InvalidData(ArtifactError):
    """Surface data fails validation where validity is required."""


class InternalInconsistency(ArtifactError):
    """Two formulas that must agree did not; signals a bug, not bad input."""


class UnsupportedM(ArtifactError):
    """The requested formula is only stated for a specific cyclic order m."""


class NotA4(ArtifactError):
    """The operation is specific to the alternating-group spec."""


class NonGenerating(ArtifactError):
    """A purported generating set does not generate A."""
