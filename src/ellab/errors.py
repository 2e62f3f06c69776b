"""Exception types shared across the lab."""


class LabError(Exception):
    """Base class for all ellab errors."""


class NonPositiveArgument(LabError):
    """Nonlinearity evaluated at t <= 0."""


class SignChange(LabError):
    """f vanishes on (0, inf) although it was declared positive."""


class RhoUndefined(LabError):
    """rho(N, Lambda) requested for N = 1, where it has no definition."""


class HypothesisViolation(LabError):
    """The nonlinearity fails a hypothesis of the requested theorem."""


class Infeasible(LabError):
    """No admissible parameter tuple exists, or a floor check failed."""


class NegativeRadicand(LabError):
    """A square-root argument in a coefficient combination is negative."""


class InvalidDelta(LabError):
    """delta outside (0, 4/(sqrt(N)(sqrt(N)-1)))."""


class InvalidAlpha(LabError):
    """Exponent outside the admissible range of the exact-solution family."""


class DimensionMismatch(LabError):
    """Point dimension does not match the ambient dimension."""


class NoRoot(LabError):
    """The scalar equation for the regularization size has no root."""


class KindMismatch(LabError):
    """Estimate kind incompatible with the supplied certificate."""


class RangeViolation(LabError):
    """f is not positive on the value range of the profile."""


class NoConvergence(LabError):
    """Newton iteration exhausted its budget."""


class PositivityLost(LabError):
    """No positive Newton iterate could be found by backtracking."""


class BlowUp(LabError):
    """Solution norm exceeded the blow-up cap (supercritical data)."""


class ConfigError(LabError):
    """Malformed run configuration."""


class UnsupportedTheorem(ConfigError):
    """Unknown theorem identifier."""
