"""Exception types shared across the package."""


class AglabError(Exception):
    """Base class for all package-specific errors."""


class AmbiguousProjection(AglabError):
    """Closest-point projection queried on (or too close to) the ridge."""


class NoConvergence(AglabError):
    """An iterative solve (closest point, exit time) did not reach its tolerance."""


class NonClosed(AglabError):
    """Generator does not close up on the circle (resonant first harmonic)."""


class QuadratureFailure(AglabError):
    """1D adaptive quadrature missed its error target."""


class BetaOutOfRange(AglabError):
    """Jump half-angle outside the open interval (0, pi)."""


class NonFiniteEnergy(AglabError):
    """A nodal energy term evaluated to NaN or infinity."""


class ConfigError(AglabError):
    """Experiment configuration failed to parse or validate."""
