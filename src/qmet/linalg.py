"""Dense symmetric/Hermitian matrix kernels used throughout the package.

All matrices are plain numpy arrays.  Dimensions are tiny (information
matrices have n <= 20, operators have d <= 3), so the routines favour
clarity and strict error semantics over throughput.
"""

import numpy as np

from .errors import NotPositiveDefinite

PIVOT_TOL_FACTOR = 1e-12


def pivot_tol(m) -> float:
    """Absolute tolerance below which a Cholesky pivot counts as zero.

    Scaled to the matrix: ``1e-12 * max(diag)``, floored at zero.
    """
    m = np.asarray(m, dtype=float)
    return PIVOT_TOL_FACTOR * max(float(np.max(np.diag(m))), 0.0)


def symmetrize(m) -> np.ndarray:
    """Return ``(m + m.T) / 2`` as a new float array."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def _require_square(m, name="matrix"):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def _require_symmetric(m, name="matrix"):
    _require_square(m, name)
    scale = 1.0 + float(np.max(np.abs(m)))
    if np.max(np.abs(m - m.T)) > 1e-8 * scale:
        raise ValueError(f"{name} is not symmetric")


def cholesky(m, tol=None) -> np.ndarray:
    """Lower-triangular L with ``L @ L.T == m`` for symmetric positive-definite m.

    Raises NotPositiveDefinite as soon as a pivot falls at or below ``tol``
    (default :func:`pivot_tol`), which is how a singular or invalid QFIM is
    detected everywhere else in the package.
    """
    m = np.asarray(m, dtype=float)
    _require_symmetric(m)
    a = symmetrize(m)
    n = a.shape[0]
    if tol is None:
        tol = pivot_tol(a)
    L = np.zeros((n, n))
    for j in range(n):
        piv = a[j, j] - L[j, :j] @ L[j, :j]
        if not np.isfinite(piv) or piv <= tol:
            raise NotPositiveDefinite(
                f"pivot {piv:.3e} at index {j} is at or below tolerance {tol:.3e}"
            )
        L[j, j] = np.sqrt(piv)
        if j + 1 < n:
            L[j + 1:, j] = (a[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def lower_inverse(L) -> np.ndarray:
    """Inverse of a lower-triangular matrix by forward substitution."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    inv = np.zeros_like(L)
    for j in range(n):
        inv[j, j] = 1.0 / L[j, j]
        for i in range(j + 1, n):
            inv[i, j] = -(L[i, j:i] @ inv[j:i, j]) / L[i, i]
    return inv


def spd_inverse(m) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky.

    Raises NotPositiveDefinite for non-SPD input.
    """
    Linv = lower_inverse(cholesky(m))
    return symmetrize(Linv.T @ Linv)


def trailing_submatrix(m, j) -> np.ndarray:
    """Lower-right block of ``m`` obtained by dropping the first ``j - 1`` rows/columns.

    ``j`` is 1-based: ``trailing_submatrix(m, 1)`` is ``m`` itself and
    ``trailing_submatrix(m, n)`` is the single bottom-right entry.
    """
    m = np.asarray(m, dtype=float)
    _require_square(m)
    n = m.shape[0]
    if not 1 <= j <= n:
        raise IndexError(f"j={j} out of range for dimension {n}")
    return m[j - 1:, j - 1:].copy()


def determinant(m) -> float:
    """Determinant of a symmetric matrix.

    SPD input is evaluated as the squared product of its Cholesky pivots;
    anything else falls back to an LU determinant (which may be zero or
    negative).
    """
    m = np.asarray(m, dtype=float)
    _require_symmetric(m)
    try:
        L = cholesky(m)
    except NotPositiveDefinite:
        return float(np.linalg.det(symmetrize(m)))
    return float(np.prod(np.diag(L)) ** 2)


def is_hermitian(m, rtol=1e-10) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    scale = 1.0 + float(np.max(np.abs(m)))
    return bool(np.max(np.abs(m - m.conj().T)) <= rtol * scale)


def spectral_norm(m) -> float:
    """Largest absolute eigenvalue for Hermitian input, else the largest singular value."""
    m = np.asarray(m)
    _require_square(m)
    if is_hermitian(m):
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))
    return float(np.linalg.svd(m, compute_uv=False)[0])


def nuclear_norm(m) -> float:
    """Sum of singular values, ``Tr[sqrt(A^dag A)]``."""
    m = np.asarray(m)
    _require_square(m)
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))
