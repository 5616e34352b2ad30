"""Exception types shared across the package."""


class ComblabError(Exception):
    """Base class for all package-specific errors."""


class CapExceeded(ComblabError):
    """An enumeration would exceed its explicit size cap."""


class SolverFailure(ComblabError):
    """An iterative solver did not reach its tolerance.

    Carries diagnostic info in ``residual`` and ``iterations`` when available.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DomainError(ComblabError):
    """A point lies outside the domain of a regularizer (e.g. negative coordinate)."""


class ValidationError(ComblabError):
    """A loss vector violates the unit action-loss bound.

    ``report`` holds the structured violation (value and witness vertex).
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class PreconditionError(ComblabError):
    """An operation's stated precondition does not hold."""


class DegenerateVertex(ComblabError):
    """Markovian path sampling reached a vertex with no outgoing flow."""


class ShatteringNotFound(ComblabError):
    """No index subset of the requested size is shattered by the decision set."""


class InternalConsistencyError(ComblabError):
    """A mathematical invariant that should hold by theorem was violated.

    Raised instead of silently continuing, since such violations signal bugs.
    """
