"""Exception types shared across the library.

Every exception carries a machine-readable ``code`` used in CLI reports and
mapped to process exit codes by the harness.
"""


class DiscopError(Exception):
    """Base class for all library errors."""

    code = "E_INTERNAL"


class ParamError(DiscopError):
    """A parameter violates its admissibility constraint."""

    code = "E_PARAM"


class SymbolError(DiscopError):
    """A symbol is not a verified self-map of the disc.

    ``angle`` (when set) is a boundary angle at which the violation was found.
    """

    code = "E_SYMBOL"

    def __init__(self, message, angle=None):
        super().__init__(message)
        self.angle = angle


class ConvergenceError(DiscopError):
    """A refinement or extrapolation loop failed to stabilize.

    ``partial`` holds the last computed value and ``trace`` the refinement
    history, so callers can diagnose the failure.
    """

    code = "E_CONVERGENCE"

    def __init__(self, message, partial=None, trace=None):
        super().__init__(message)
        self.partial = partial
        self.trace = trace


class ConfigError(DiscopError):
    """A run configuration could not be parsed; ``field`` names the bad entry."""

    code = "E_CONFIG"

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
