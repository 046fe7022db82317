"""Exception types shared across the package."""


class QmetError(Exception):
    """Base class for all package-specific errors."""


class SingularQfim(QmetError):
    """A QFIM, or any matrix factored under the pivot rule, is singular.

    The one error of the package's one singularity rule: a squared
    Cholesky or QR pivot is non-finite or at or below ``linalg.pivot_tol``.
    """


class TooManyParameters(QmetError):
    """Parameter count exceeds the guard of an order search or of holevo_bound."""


class NotApplicable(QmetError):
    """A closed-form bound was requested outside its domain of validity."""


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
