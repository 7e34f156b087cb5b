"""Exception types shared across the package."""


class RenormlabError(Exception):
    """Base class for all errors raised by renormlab."""


class DomainError(RenormlabError):
    """An argument lies outside the domain an operation is defined on."""


class ResolutionError(RenormlabError):
    """The sampling grid is too coarse to represent a requested result."""


class GeometryError(RenormlabError):
    """An interval geometry violates its admissibility constraints."""


class DepthMismatch(RenormlabError):
    """Two tree-indexed objects of different depths were combined."""


class NoFixedPoint(RenormlabError):
    """The observed map has no fixed point right of the critical point."""


class NoSideInterval(RenormlabError):
    """The side interval equation f(b) = -p cannot be bracketed."""


class NoWindow(RenormlabError):
    """No renormalizable peak values were found in the scan range."""


class BracketError(RenormlabError):
    """A sign change needed to start a bisection was not found."""


class ConfigError(RenormlabError):
    """A solver configuration value or a stored report is invalid."""


class NonConvergence(RenormlabError):
    """An iteration exhausted its budget; carries the residual trace."""

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)
