"""Exception types shared across the package."""
from __future__ import annotations


class NhsLabError(Exception):
    """Base class for all nhslab errors."""


class DimensionMismatch(NhsLabError):
    """Input arrays do not have mutually consistent shapes."""


class NonPositiveWeight(NhsLabError):
    """An atom weight is zero or negative."""


class MetricViolation(NhsLabError):
    """The distance data violates a metric axiom; the message names the witness."""


class DegenerateRadii(NhsLabError):
    """A power fit cannot be made on the candidate radii (too few distinct radii,
    or powers of them outside the float range)."""


class NotNested(NhsLabError):
    """A ball pair handed to the discrete coefficient is not nested."""


class InvalidExponent(NhsLabError):
    """An integrability exponent is outside its admissible range."""


class InvalidParams(NhsLabError):
    """Operator parameters are outside their admissible ranges."""


class ZeroNorm(NhsLabError):
    """An operation that divides by a function norm received a constant function."""


class ZeroNormB(NhsLabError):
    """The commutator symbol has zero oscillation norm."""


class NotNormalized(NhsLabError):
    """A check requiring a unit-norm input received something larger."""


class NonMonotoneTheta(NhsLabError):
    """A kernel modulus must be nondecreasing on (0, 1]."""


class NoDoublingBall(NhsLabError):
    """No doubling ball contains the evaluation point (structurally impossible)."""


class SpecError(NhsLabError):
    """An experiment configuration is malformed."""
