"""Exception types shared across the package."""


class LgorbError(Exception):
    """Base class for all package-specific errors."""


class ConductorMismatchError(LgorbError, ValueError):
    """Raised when two cyclotomic numbers of different conductors are combined."""


class ShapeError(LgorbError, ValueError):
    """Raised on incompatible matrix/polynomial dimensions."""


class NonIsolatedSingularityError(LgorbError, ValueError):
    """Raised when a Jacobian quotient is infinite-dimensional or has wrong graded dimensions."""


class SingularMatrixError(LgorbError, ValueError):
    """Raised when an invertible matrix is required but det = 0."""


class ClosureCapExceededError(LgorbError, RuntimeError):
    """Raised when group closure exceeds the element cap."""


class InadmissibleGroupError(LgorbError, ValueError):
    """Raised when a group contains an element with determinant not in {1, -1}."""


class NotASymmetryError(LgorbError, ValueError):
    """Raised when a matrix does not preserve the polynomial it should act on."""


class GradingError(LgorbError, ValueError):
    """Raised when a fixed locus or a sector action does not respect the weight grading."""


class WordParseError(LgorbError, ValueError):
    """Raised on malformed generator words."""


class CharacterError(LgorbError, ValueError):
    """Raised when a character average is not a non-negative integer, or
    disagrees with the dimension of a computed invariant subspace."""
