"""Exception types shared across the package."""


class RelMotionError(Exception):
    """Base class for errors raised by this package."""


class OrbitDefinitionError(RelMotionError, ValueError):
    """Chief orbit parameters violate the closed-orbit preconditions."""


class KeplerConvergenceError(RelMotionError, RuntimeError):
    """Kepler equation iteration failed to converge."""


class NearSingularMatrixError(RelMotionError, ValueError):
    """A matrix that must be inverted is numerically near-singular."""


class InclinationSingularityError(RelMotionError, ValueError):
    """Equatorial chief with out-of-plane acceleration: node undefined."""


class IntegrationError(RelMotionError, RuntimeError):
    """Numerical integration failed (step-size underflow or solver abort)."""


class MatrixLogError(RelMotionError, RuntimeError):
    """Real matrix logarithm does not exist or could not be computed."""


class PeriodicityError(RelMotionError, ValueError):
    """Plant matrix is too far from periodic for the requested reduction."""
