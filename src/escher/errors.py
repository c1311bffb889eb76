"""Exception types shared across the package."""


class EscherError(Exception):
    """Base class for all package errors."""


class OffSurface(EscherError):
    """A point expected on the zero level set is not on it."""


class WrongSurfaceKind(EscherError):
    """Mesh generator called with an incompatible surface kind."""


class LevelOutOfRange(EscherError):
    """Hierarchy level index outside the stored range."""


class BadConnectivity(EscherError):
    """Triangles do not form a closed, consistently oriented surface."""


class DegenerateTriangle(EscherError):
    """Triangle area below the degeneracy threshold."""


class UnsupportedDegree(EscherError):
    """No quadrature rule stored for the requested polynomial degree."""


class SingularMatrix(EscherError):
    """Direct sparse factorisation detected a singular matrix."""


class IterativeBreakdown(EscherError):
    """Iterative linear solver broke down or stalled."""


class NewtonDivergence(EscherError):
    """Newton iteration exceeded the iteration budget without converging."""


class ZeroError(EscherError):
    """An error value of exactly zero makes the convergence order undefined."""


class LengthMismatch(EscherError):
    """Nodal vector length does not match the mesh node count."""


class ParseError(EscherError):
    """Configuration text could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(EscherError):
    """Configuration value rejected by validation."""

    def __init__(self, field, message=""):
        super().__init__(f"{field}: {message}" if message else field)
        self.field = field
        self.reason = message


class IoError(EscherError):
    """File emission failed."""
