"""Exception types shared across the package."""


class PilotwaveError(Exception):
    """Base class for every error raised by this package."""


class SingularMetric(PilotwaveError):
    """Metric determinant is numerically zero; the inverse is meaningless."""


class SignatureViolation(PilotwaveError):
    """Metric is not Lorentzian mostly-plus: wrong negative-eigenvalue count."""


class DegenerateFrame(PilotwaveError):
    """Clock form and spatial vierbein fail to span the tangent space."""


class NodeEncountered(PilotwaveError):
    """Density dropped to (or below) the node threshold.

    Raised from a trajectory integration, it carries the located parameter
    value of the node on ``lam`` and the partially integrated trajectory on
    ``partial``.
    """

    def __init__(self, message, partial=None, lam=None):
        super().__init__(message)
        self.partial = partial
        self.lam = lam


class FormMismatch(PilotwaveError):
    """Two algebraically equivalent forms of one expression disagree."""


class NonFiniteResult(PilotwaveError):
    """A computation overflowed, divided by zero or gave a non-finite value."""


class StepFailure(PilotwaveError):
    """Adaptive step control could not meet the error tolerance."""


class NoConvergence(PilotwaveError):
    """Iterative solver ran out of iterations.

    ``best_residual`` records the smallest residual norm reached.
    """

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class TachyonicInput(PilotwaveError):
    """Velocity is not timelike (xdot . g . xdot >= 0)."""


class ImaginaryMass(PilotwaveError):
    """Effective squared mass m^2 + Q is not positive."""


class DegenerateVelocity(PilotwaveError):
    """tau_mu xdot^mu is zero or negative; absolute-time gauge undefined."""


class MassSingular(PilotwaveError):
    """Effective mass m - q*phi vanishes (or mass is zero where required)."""


class UnknownScenario(PilotwaveError):
    """Requested scenario name is not in the registry."""


class ConfigError(PilotwaveError):
    """Run configuration failed validation.

    ``field`` names the offending config entry.
    """

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class BadParameter(ConfigError):
    """Scenario parameter ``scenario.params.<key>`` of the wrong kind or out of range."""
