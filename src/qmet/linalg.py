"""Dense symmetric/Hermitian matrix kernels used throughout the package.

All matrices are plain numpy arrays, and information matrices have
n <= 20.  Every decision on whether a QFIM is singular goes through one
rule, :func:`_require_pivots`: a squared pivot diag(L)^2 of Q = L L^T, from
LAPACK's Cholesky (:func:`_cholesky`) or a QR of L^T, is non-finite or at or
below :func:`pivot_tol`.

A QFIM is validated and factored once, by :func:`qfim`, into a read-only
:class:`Qfim` that carries Q, its factor L and L^-1.  Every function of
the package that takes a QFIM accepts either a matrix or a ``Qfim``.  The
rule has one error, ``SingularQfim``, raised by :func:`_require_pivots`;
:func:`cholesky`, :func:`spd_inverse` and :func:`determinant` are read off
a ``Qfim``, so they raise it alike.
Weights are one positive vector w, W = diag(w), validated by :func:`weights`.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .errors import SingularQfim

PIVOT_TOL_FACTOR = 1e-12


def pivot_tol(m) -> float:
    """Absolute tolerance below which a squared Cholesky pivot counts as zero.

    Scaled to the matrix: ``1e-12 * max(diag)``, floored at zero.  It does
    not change when the matrix is symmetrically permuted.
    """
    return _diagonal_tol(np.asarray(m, dtype=float).diagonal())


def _diagonal_tol(diagonal) -> float:  # pivot_tol of a matrix with this diagonal
    return PIVOT_TOL_FACTOR * max(float(diagonal.max()), 0.0)


def _require_pivots(squared, diagonal):
    """The singularity rule: raise SingularQfim at the first squared pivot of a matrix with
    this diagonal that is non-finite or at or below its :func:`pivot_tol`."""
    tol = _diagonal_tol(diagonal)
    ok = squared > tol  # NaN compares False
    if not ok.all():
        j = int(np.argmin(ok))  # the first False
        raise SingularQfim(f"squared pivot at index {j} is non-finite or at or below tolerance "
                           f"{tol:.3e}")


def symmetrize(m) -> np.ndarray:
    """Return ``(m + m.T) / 2`` as a new float array."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def _require_square(m, name="matrix"):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def _checked_symmetric(m) -> np.ndarray:
    """The symmetrized float array of ``m``, checked to be a non-empty, finite, symmetric QFIM."""
    m = np.asarray(m, dtype=float)
    _require_square(m, "QFIM")
    if m.size == 0:
        raise ValueError("QFIM is empty")
    peak = float(np.abs(m).max())  # NaN if any entry is NaN, inf if any is infinite
    if not math.isfinite(peak):
        raise ValueError("QFIM has non-finite entries")
    if np.abs(m - m.T).max() > 1e-8 * (1.0 + peak):
        raise ValueError("QFIM is not symmetric")
    return symmetrize(m)


def _cholesky(a) -> np.ndarray:
    """Lower Cholesky factor of the symmetric float matrix ``a``, without validation.

    Raises SingularQfim under :func:`_require_pivots`, also at a pivot where LAPACK stops.
    """
    L, info = lapack.dpotrf(a, lower=1)
    squared = L.diagonal() ** 2
    if info:  # LAPACK stops at the 1-based pivot ``info``; it and later ones fail as NaN
        squared[info - 1:] = np.nan
    _require_pivots(squared, a.diagonal())
    return L


def _read_only(a) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Qfim:
    """A validated, nonsingular QFIM with its Cholesky factor, built by :func:`qfim`.

    ``q`` is the symmetrized matrix, ``L`` its lower factor under the pivot
    rule and ``linv`` = L^-1; all three are read-only.
    """

    q: np.ndarray
    L: np.ndarray
    linv: np.ndarray

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @cached_property
    def inverse(self) -> np.ndarray:
        """Q^-1 = L^-T L^-1, symmetrized, read-only."""
        return _read_only(symmetrize(self.linv.T @ self.linv))


def qfim(m) -> Qfim:
    """Validate, factor and invert the factor of a QFIM once; a Qfim is returned as is.

    Raises ValueError for empty, non-square, non-finite or asymmetric input
    and SingularQfim, from :func:`_cholesky`, for a matrix that is singular
    under the pivot rule.
    """
    if isinstance(m, Qfim):
        return m
    q = _checked_symmetric(m)
    L = _cholesky(q)
    linv = lapack.dtrtri(L, lower=1)[0]
    return Qfim(q=_read_only(q), L=_read_only(L), linv=_read_only(linv))


def qfim_matrix(m) -> np.ndarray:
    """The validated, symmetrized QFIM array, taken from a Qfim without refactoring.

    For routines such as the order searches that never need the factor of
    the natural order.
    """
    return m.q if isinstance(m, Qfim) else _checked_symmetric(m)


def pivot_product(L) -> float:
    """``sqrt(det(L @ L.T))`` as the product of the pivots diag(L).

    Dividing by it rather than by its square keeps quotients finite on Q of
    scale down to ~1e-300 / n, where :func:`pivot_determinant` underflows.
    """
    return float(L.diagonal().prod())


def pivot_determinant(L) -> float:
    """``det(L @ L.T)`` as the product of the squared pivots diag(L)^2."""
    return pivot_product(L) ** 2


def cholesky(m) -> np.ndarray:
    """The read-only lower Cholesky factor L of ``qfim(m)``, with ``L @ L.T == m``.

    Raises what :func:`qfim` raises: SingularQfim when m is singular under
    the pivot rule of :func:`_cholesky`.
    """
    return qfim(m).L


def spd_inverse(m) -> np.ndarray:
    """The read-only inverse ``qfim(m).inverse`` of a symmetric positive-definite m.

    Raises what :func:`qfim` raises: SingularQfim for a matrix that is
    singular under the pivot rule.
    """
    return qfim(m).inverse


def determinant(m) -> float:
    """``det(m)`` as :func:`pivot_determinant` of ``qfim(m).L``; raises what :func:`qfim` raises."""
    return pivot_determinant(qfim(m).L)


def weights(w, n) -> np.ndarray:
    """The weight vector of n parameters: ones when ``w`` is None.

    W = diag(w) is the only weight matrix of the package, since the
    stepwise bound is defined for diagonal W alone.  Raises ValueError
    unless ``w`` is a finite, positive vector of length n.
    """
    if w is None:
        return np.ones(n)
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must be a vector of length {n}, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if not (w > 0).all():
        raise ValueError("weights must be positive")
    return w


def nuclear_norm(m) -> float:
    """Sum of singular values, ``Tr[sqrt(A^dag A)]``."""
    m = np.asarray(m)
    _require_square(m)
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))
