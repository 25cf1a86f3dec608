"""Exception types shared across the lab."""


class BallbotLabError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(BallbotLabError):
    """Invalid or unknown configuration entry. Carries the offending key path."""

    def __init__(self, key_path, message):
        self.key_path = key_path
        super().__init__(f"config error at '{key_path}': {message}")


class StabilizabilityError(BallbotLabError):
    """Riccati iteration failed to converge; (A, B) is likely not stabilizable."""


class MassMatrixSingularError(BallbotLabError):
    """The configuration-dependent mass matrix is singular at the query point."""


class PlantFellOverError(BallbotLabError):
    """Tilt left the validity envelope; the planar model is meaningless beyond it."""

    def __init__(self, t, state):
        self.t = t
        self.state = state
        super().__init__(f"plant fell over at t={t:.3f} s (|theta| >= envelope), state={state}")


class PlantBlowUpError(BallbotLabError):
    """A non-finite derivative or state was produced during integration."""

    def __init__(self, state):
        self.state = state
        super().__init__(f"non-finite dynamics at state={state}")


class IdentificationFailedError(BallbotLabError):
    """The initial guess or the fitted model diverged, or a channel is constant."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)
