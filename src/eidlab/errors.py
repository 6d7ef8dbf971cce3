"""Exception hierarchy shared by all eidlab modules; every check in the package raises
one of these.  DimensionMismatchError, NonSquareError and DomainError reject an argument,
so they are also ValueErrors; UnknownNameError, a failed lookup, is an AttributeError."""


class EidLabError(Exception):
    """Base class for all errors raised by this package."""


class NonSymmetricError(EidLabError):
    """Matrix expected to be symmetric exceeds the asymmetry tolerance."""


class NonFiniteError(EidLabError):
    """A NaN or Inf appeared where a finite value is required."""


class NoConvergenceError(EidLabError):
    """An iterative solve failed to reach the requested tolerance."""


class SingularJacobianError(EidLabError):
    """Newton step could not be computed from a (near-)singular Jacobian."""


class DimensionMismatchError(EidLabError, ValueError):
    """Operands have incompatible shapes."""


class UnknownSystemError(EidLabError):
    """Requested catalog family does not exist."""


class MissingParamError(EidLabError):
    """A required catalog or config parameter is absent."""


class NotAssignableError(EidLabError):
    """State is not an assignable equilibrium within tolerance."""


class IllPosedError(EidLabError):
    """Feedback interconnection violates the well-posedness condition."""


class NonSquareError(EidLabError, ValueError):
    """Operation requires a square (m == p) system."""


class NonzeroFeedthroughError(EidLabError):
    """Operation requires J = 0."""


class RhatNotPsdError(EidLabError):
    """A matrix required to be PSD has a negative eigenvalue: the effective
    feedthrough-matched matrix (so no constant factor W exists), a storage
    matrix P, a model's R or K, or the argument of a PSD square root."""


class DomainError(EidLabError, ValueError):
    """An argument outside its domain, e.g. a nonpositive parameter or an empty sample."""


class RankDeficientError(EidLabError):
    """Matrix does not have the rank required by the operation."""


class ConditionsNotMetError(EidLabError):
    """Preconditions of a solver (e.g. strong monotonicity) do not hold."""


class ConfigError(EidLabError):
    """Malformed or incomplete configuration / JSON input."""


class UnknownNameError(EidLabError, AttributeError):
    """The package exports no name of this spelling."""
