"""Dense symmetric/Hermitian matrix kernels used throughout the package.

All matrices are plain numpy arrays, and information matrices have
n <= 20.  Every decision on whether a QFIM is singular goes through one
LAPACK Cholesky factorization (:func:`_cholesky`) and one rule: a
matrix is singular when a squared pivot diag(L)^2 is non-finite or at or
below :func:`pivot_tol`.
"""

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefinite, SingularQfim

PIVOT_TOL_FACTOR = 1e-12


def pivot_tol(m) -> float:
    """Absolute tolerance below which a squared Cholesky pivot counts as zero.

    Scaled to the matrix: ``1e-12 * max(diag)``, floored at zero.  It does
    not change when the matrix is symmetrically permuted.
    """
    m = np.asarray(m, dtype=float)
    return PIVOT_TOL_FACTOR * max(float(m.diagonal().max()), 0.0)


def symmetrize(m) -> np.ndarray:
    """Return ``(m + m.T) / 2`` as a new float array."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def _require_square(m, name="matrix"):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def _checked_symmetric(m, name="matrix") -> np.ndarray:
    """``m`` as a symmetrized float array, after checking it is non-empty, finite and symmetric."""
    m = np.asarray(m, dtype=float)
    _require_square(m, name)
    if m.size == 0:
        raise ValueError(f"{name} is empty")
    peak = float(np.abs(m).max())  # NaN if any entry is NaN, inf if any is infinite
    if not np.isfinite(peak):
        raise ValueError(f"{name} has non-finite entries")
    if np.abs(m - m.T).max() > 1e-8 * (1.0 + peak):
        raise ValueError(f"{name} is not symmetric")
    return symmetrize(m)


def _cholesky(a) -> np.ndarray:
    """Lower Cholesky factor of the symmetric float matrix ``a``, without validation.

    Applies the package's singularity rule and raises NotPositiveDefinite
    naming the first squared pivot that is non-finite or at or below
    :func:`pivot_tol`, or at which LAPACK stops.
    """
    tol = pivot_tol(a)
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        # numpy does not say where LAPACK stopped; dpotrf's info does.  The
        # pivots before that index are complete and the one at it failed.
        c, info = lapack.dpotrf(a, lower=1)
        ok = np.append(np.diag(c)[:info - 1] ** 2 > tol, False)
    else:
        ok = np.diag(L) ** 2 > tol  # NaN compares False
    if not ok.all():
        j = int(np.flatnonzero(~ok)[0])
        raise NotPositiveDefinite(
            f"squared pivot at index {j} is non-finite or at or below tolerance {tol:.3e}"
        )
    return L


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with ``L @ L.T == m`` for symmetric positive-definite m.

    Raises NotPositiveDefinite when m is singular under the pivot rule of
    :func:`_cholesky`, the rule by which a singular or invalid QFIM is
    detected everywhere else in the package.
    """
    return _cholesky(_checked_symmetric(m))


def _qfim_factor(q) -> np.ndarray:
    """:func:`cholesky` of a QFIM, raising SingularQfim where it raises NotPositiveDefinite."""
    try:
        return cholesky(q)
    except NotPositiveDefinite as exc:
        raise SingularQfim(str(exc)) from exc


def pivot_product(L) -> float:
    """``sqrt(det(L @ L.T))`` as the product of the pivots diag(L).

    Dividing by it rather than by its square keeps quotients finite on Q of
    scale down to ~1e-300 / n, where :func:`pivot_determinant` underflows.
    """
    return float(np.prod(np.diag(L)))


def pivot_determinant(L) -> float:
    """``det(L @ L.T)`` as the product of the squared pivots diag(L)^2."""
    return pivot_product(L) ** 2


def spd_inverse(m) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky.

    Raises NotPositiveDefinite for non-SPD input.
    """
    linv = lapack.dtrtri(cholesky(m), lower=1)[0]
    return symmetrize(linv.T @ linv)


def determinant(m) -> float:
    """Determinant of a symmetric matrix.

    SPD input is evaluated as :func:`pivot_determinant` of its Cholesky
    factor; anything else falls back to an LU determinant (which may be
    zero or negative).
    """
    a = _checked_symmetric(m)
    try:
        return pivot_determinant(_cholesky(a))
    except NotPositiveDefinite:
        return float(np.linalg.det(a))


def nuclear_norm(m) -> float:
    """Sum of singular values, ``Tr[sqrt(A^dag A)]``."""
    m = np.asarray(m)
    _require_square(m)
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))
