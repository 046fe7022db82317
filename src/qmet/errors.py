"""Exception types shared across the package."""


class QmetError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(QmetError):
    """A Cholesky pivot fell at or below the pivot tolerance."""


class SingularQfim(QmetError):
    """A quantum Fisher information matrix is singular or not positive definite."""


class TooManyParameters(QmetError):
    """Parameter count exceeds the guard of an ordering-search routine."""


class NotApplicable(QmetError):
    """A closed-form bound was requested outside its domain of validity."""


class Infeasible(QmetError):
    """The local-unbiasedness constraint system has no solution."""


class NoConvergence(QmetError):
    """A computed result failed to reach its convergence targets.

    The best result found is attached as ``.result`` when available.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class ConfigParseError(QmetError):
    """A configuration file line could not be parsed."""


class UnknownKeyError(QmetError):
    """A configuration file contains an unrecognized key."""
