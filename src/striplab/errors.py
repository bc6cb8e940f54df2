"""Exception types raised by striplab operations."""


class StripLabError(Exception):
    """Base class for all striplab errors."""


class InvalidParam(StripLabError):
    """A constructor or operation argument violates its documented bounds."""


class CapExceeded(StripLabError):
    """Requested geometry exceeds the configured hard site cap."""


class ShapeMismatch(StripLabError):
    """An array or field does not match the grid it is used with."""


class TailTooLarge(StripLabError):
    """Power-law lattice sum cannot meet the truncation tolerance."""


class NoConvergence(StripLabError):
    """Iterative eigensolver failed to reach the requested residual."""

    def __init__(self, msg, achieved=None):
        super().__init__(msg)
        self.achieved = achieved


class DenominatorNonpositive(StripLabError):
    """Temple bound precondition failed: gap floor does not exceed the mean."""


class ZeroVector(StripLabError):
    """A trial vector with zero norm was supplied."""


class HypothesisViolated(StripLabError):
    """A verified-internally precondition of a certified bound failed."""


class GramDegenerate(StripLabError):
    """Gram matrix of trial vectors is numerically singular."""


class IncompatibleRef(StripLabError):
    """Ground-state reference does not cover the requested ghost sites."""


class NotPositive(StripLabError):
    """Computed ground state has non-positive entries after sign fixing."""


class NearDegenerate(StripLabError):
    """Ground energy is too close to the next level for a stable reference."""


class DivisionUnderflow(StripLabError):
    """Averaged ground-state entry below the underflow guard."""


class GapTooSmall(StripLabError):
    """Reducing profile violates the gap-fraction cap required by Temple."""


class InequalityViolated(StripLabError):
    """A per-realization or statistical ordering check failed.

    Carries the witness (e.g. the offending energy) in the message.
    """


class S4Violated(StripLabError):
    """The periodic background operator has nonnegative ground energy."""


class ProfileUnderflow(StripLabError):
    """All layers of a decay profile are below the underflow guard."""


class ConfigInvalid(StripLabError):
    """Experiment config failed schema validation.

    The message starts with a JSON-pointer-style path to the offending field.
    """
