"""Exception types shared across the package."""


class SprinkledNLSError(Exception):
    """Base class for package errors."""


class ConfigError(SprinkledNLSError, ValueError):
    """Invalid configuration file, key, or value, a smoothing width outside
    (0, 1], a window outside -2**52 <= lo < hi <= 2**52, a Poisson
    intensity that is not finite and positive or whose mean atom count is
    too large to draw, or a study input outside its domain; a ValueError,
    so callers that catch ValueError see it too."""


class ResolutionError(SprinkledNLSError):
    """Grid too coarse to represent the requested mollification width."""


class BlowUpError(SprinkledNLSError):
    """Non-finite values appeared during time stepping."""

    def __init__(self, step: int, time: float):
        self.step = step
        self.time = time
        super().__init__(f"non-finite field values at step {step} (t = {time:.6g})")


class OracleInstabilityError(SprinkledNLSError):
    """Reference integrator norm grew beyond its stability tolerance."""
