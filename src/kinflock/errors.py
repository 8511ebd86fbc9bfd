"""Exception hierarchy shared across the package.

Exit-code mapping (used by the CLI): ConfigError -> 2, assertion
failures -> 1, everything else below -> 3.
"""


class KinflockError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(KinflockError):
    """Invalid or malformed scenario configuration."""


class InvalidInputError(KinflockError):
    """Rejected input to a numerical routine (non-finite data, bad shapes)."""


class IntegrationBlowupError(KinflockError):
    """A time step produced non-finite state."""


class InvariantViolationError(KinflockError):
    """A structurally guaranteed invariant failed at runtime.

    Carries context (step, particle/node id) for the abort report.
    """

    def __init__(self, message, step=None, index=None):
        super().__init__(message)
        self.step = step
        self.index = index


class ResolutionError(KinflockError):
    """Grid resolution insufficient: characteristic feet or support left the
    safe region of the phase grid."""
