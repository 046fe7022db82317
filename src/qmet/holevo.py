"""Numerical Holevo bound via a self-contained interior-point SDP.

The bound minimizes ``Tr[W Re Z] + ||sqrt(W) Im Z sqrt(W)||_1`` with
``Z_uv = Tr[rho X_u X_v]`` over Hermitian observable families satisfying
the local unbiasedness conditions ``Tr[d_v rho X_u] = delta_uv`` and
``Tr[rho X_u] = 0``, following Albarelli, Friel & Datta, PRL 123, 200503
(2019).  Expanding each X_u in an orthonormal Hermitian operator basis
turns this into the equivalent semidefinite program

    minimize  Tr[W V]   over real symmetric V and coefficients X
    subject to  [[V, (R X)^dag], [R X, I]] >= 0  (complex Hermitian),

where R x = vec(X V_r Lambda_r^1/2) for rho = V_r Lambda_r V_r^dag at its
numerical rank r, so Z = (R X)^dag (R X) and the Schur block has complex
size n + d r.  One eigendecomposition of rho serves both the PSD check and
R.  Minimizing Tr[W V] over V >= Z recovers exactly the Re/Im-nuclear-norm
objective.  The unbiasedness constraints are affine and eliminated up
front by one SVD: X = X0 + N xi, with X0 their least-norm solution and N
an orthonormal basis of the null-space directions that R sees.  Directions
R maps to zero change X but not Z, so they are dropped.  The three rank
decisions (rho, the constraints, R N) share the relative cut RANK_TOL.

The cone constraint is realified ([[Re M, -Im M], [Im M, Re M]] >= 0) and
solved by a primal-dual path-following method in the dual-scaling flavor:
the search direction in the variables z comes from the Newton system
M dz = mu tr[G_k G^-1] - c with M_kl = tr[G_k Y G_l G^-1] symmetrized,
and the cone multiplier Y is updated from the linearized complementarity
condition.  Each iterate factors G and Y once (LAPACK dpotrf and dtrtri);
G^-1 and both step lengths come from those factors.  The p constraint
matrices G_k (m x m; p = 9 and m = 12 for the three-parameter qutrit with
a pure probe) are kept as one flattened p x m^2 stack: M is one batched
matmul T_k = Y G_k G^-1 followed by one GEMM with the stack, and every
other term of an iteration is a product with it.  The G_k have one or two
nonzero blocks each; that sparsity is not exploited.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .bounds import c_sld, c_t
from .errors import Infeasible
from .linalg import qfim, symmetrize, weights
from .models import hermitian_operator_basis

SDP_TOL = 1e-6
CONSTRAINT_TOL = 1e-8
MAX_ITERATIONS = 500
RANK_TOL = 1e-12
SANDWICH_TOL = 1e-6
_POLISH_TOL = 1e-11
_BOUNDARY_FRACTION = 0.98


@dataclass(frozen=True)
class HolevoSolution:
    """The bound and the optimal locally unbiased observables X_u (n x d x d).

    ``status`` is "converged" or "max_iter"; ``gap`` is the last duality gap
    and ``constraint_residual`` the largest violation of
    Tr[d_v rho X_u] = delta_uv and Tr[rho X_u] = 0 by the operators.
    """

    value: float
    operators: np.ndarray
    status: str
    gap: float
    iterations: int
    constraint_residual: float

    def to_json(self):
        keys = ("value", "status", "gap", "iterations", "constraint_residual")
        return {key: getattr(self, key) for key in keys}


def _realify(m):
    """[[Re M, -Im M], [Im M, Re M]] of each complex k x k matrix in a stack."""
    k = m.shape[-1]
    out = np.empty(m.shape[:-2] + (2, k, 2, k))
    out[..., 0, :, 0, :] = out[..., 1, :, 1, :] = m.real
    out[..., 1, :, 0, :] = m.imag
    out[..., 0, :, 1, :] = -m.imag
    return out.reshape(m.shape[:-2] + (2 * k, 2 * k))


def _validate_inputs(rho, drho):
    """Checked rho, its eigenvalues and eigenvectors, and drho; eigh(rho) also gives R."""
    if len(drho) == 0:
        raise ValueError("drho must hold at least one derivative")
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    scale = 1.0 + float(np.max(np.abs(rho)))
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10 * scale:
        raise ValueError("rho must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("rho must have unit trace")
    evals, evecs = np.linalg.eigh(rho)
    if evals[0] < -1e-10:
        raise ValueError("rho must be positive semidefinite")
    out = []
    for k, dr in enumerate(drho):
        dr = np.asarray(dr, dtype=complex)
        if dr.shape != (d, d):
            raise ValueError("derivative shapes must match rho")
        dscale = 1.0 + float(np.max(np.abs(dr)))
        if np.max(np.abs(dr - dr.conj().T)) > 1e-8 * dscale:
            raise ValueError(f"drho[{k}] must be Hermitian")
        if abs(np.trace(dr)) > 1e-8 * dscale:
            raise ValueError(f"drho[{k}] must be traceless")
        out.append(dr)
    return rho, evals, evecs, out


def _linv(a):
    """L^-1 for the lower Cholesky factor L of ``a``, or None where LAPACK's dpotrf stops."""
    L, info = lapack.dpotrf(a, lower=1)
    return None if info else lapack.dtrtri(L, lower=1)[0]


def _max_step(linv, dp):
    """Largest step keeping L L^T + a*dp positive definite, within the boundary fraction.

    ``linv`` is the inverse Cholesky factor of the current iterate.
    """
    lam_min = float(np.linalg.eigvalsh(linv @ dp @ linv.T)[0])
    if lam_min >= -1e-14:
        return 1.0
    return min(1.0, -_BOUNDARY_FRACTION / lam_min)


def _newton_system(gflat, y, ginv):
    """Newton matrix M_kl = tr[G_k Y G_l G^-1], symmetrized, and tr[G_k G^-1].

    ``gflat`` stacks the symmetric G_k as rows, so tr[G_k A] = ``gflat[k] @ A.ravel()``
    for any A, and M is one GEMM of the stack with the products T_l = Y G_l G^-1.
    """
    p, m = gflat.shape[0], y.shape[0]
    t_mats = y @ gflat.reshape(p, m, m) @ ginv
    mm = gflat @ t_mats.reshape(p, m * m).T
    return 0.5 * (mm + mm.T), gflat @ ginv.ravel()


def holevo_bound(rho, drho, w=None):
    """Holevo bound of a (pure or mixed) model given rho and its derivatives.

    ``w`` is the weight vector of :func:`linalg.weights`, W = diag(w).
    Raises ValueError for invalid input, including an empty ``drho``, and
    Infeasible when the unbiasedness system has no solution (the model is
    not locally identifiable).  A run that exhausts the iteration budget
    returns its best value with status "max_iter" and the reached duality
    gap, rather than raising.
    """
    rho, evals, evecs, drho = _validate_inputs(rho, drho)
    n = len(drho)
    w = weights(w, n)
    stacked = np.array(hermitian_operator_basis(rho.shape[0]))  # nb x d x d
    nb = len(stacked)
    e_ops = np.array(drho + [rho])  # d_1 rho, ..., d_n rho, rho

    # unbiasedness constraints E x_u = (e_u; 0), stacked over the basis: one
    # SVD gives the least-norm solution X0 and the null space; X0 is
    # feasible when it satisfies the constraints as evaluated in floating point
    e_mat = np.einsum("kab,iba->ki", e_ops, stacked).real
    rhs = np.vstack([np.eye(n), np.zeros((1, n))])
    u_e, sv, vt = np.linalg.svd(e_mat)
    rank = int(np.sum(sv > RANK_TOL * sv[0]))
    x0 = vt[:rank].T @ ((u_e[:, :rank].T @ rhs) / sv[:rank, None])  # nb x n
    if np.max(np.abs(e_mat @ x0 - rhs)) > CONSTRAINT_TOL:
        raise Infeasible("local unbiasedness constraints have no solution")

    # Gram factor R: column i is vec(b_i V_r Lambda_r^1/2), so R^dag R = Tr[rho b_i b_j]
    keep = evals > RANK_TOL * evals[-1]
    r_fact = (stacked @ (evecs[:, keep] * np.sqrt(evals[keep]))).reshape(nb, -1).T
    r_rank = r_fact.shape[0]  # d r

    # orthonormal basis of the null-space directions R sees, cut relative to
    # sqrt(lambda_max(rho)), which bounds the norm of R
    r_null = r_fact @ vt[rank:].T
    _, sv_r, wt = np.linalg.svd(np.vstack([r_null.real, r_null.imag]), full_matrices=False)
    wt = wt[: int(np.sum(sv_r > RANK_TOL * np.sqrt(evals[-1])))]
    nullspace = vt[rank:].T @ wt.T  # nb x f
    f = nullspace.shape[1]

    mc = n + r_rank
    m = 2 * mc
    upper = np.triu_indices(n)  # the V_ab, a <= b, in row-major order
    nv = len(upper[0])
    p = nv + n * f

    # complex Schur blocks of the G_k: V_ab first, then xi_(mu, l) at nv + mu f + l
    blk = np.zeros((p, mc, mc), dtype=complex)
    blk[np.arange(nv), upper[0], upper[1]] = blk[np.arange(nv), upper[1], upper[0]] = 1.0
    xi_blk = blk[nv:].reshape(n, f, mc, mc)  # a view into blk
    cols = wt @ r_null.T  # f x (d r): R applied to each null-space basis direction
    xi_blk[np.arange(n), :, n:, np.arange(n)] = cols
    xi_blk[np.arange(n), :, np.arange(n), n:] = cols.conj()
    gflat = _realify(blk).reshape(p, m * m)
    cvec = np.zeros(p)
    cvec[:nv][upper[0] == upper[1]] = w  # Tr[W V] = sum_a w_a V_aa

    rx0 = r_fact @ x0
    g0_blk = np.zeros((mc, mc), dtype=complex)
    g0_blk[n:, :n] = rx0
    g0_blk[:n, n:] = rx0.conj().T
    g0_blk[n:, n:] = np.eye(r_rank)
    g0 = _realify(g0_blk)

    # strictly feasible start: V beyond the largest eigenvalue of (R X0)^dag (R X0)
    k0 = rx0.conj().T @ rx0
    v_shift = 2.0 * max(float(np.max(np.linalg.eigvalsh(k0))), 0.0) + 1.0
    z = np.zeros(p)
    z[:nv][upper[0] == upper[1]] = v_shift
    g = g0 + (z @ gflat).reshape(m, m)
    y = np.eye(m)

    status = "max_iter"
    gap = np.inf
    iterations = 0
    sigma = 0.3
    prev_gap = np.inf
    for iterations in range(1, MAX_ITERATIONS + 1):
        gap = float(np.sum(y * g))
        obj = float(cvec @ z)
        scale = 1.0 + abs(obj)
        resid = float(np.max(np.abs(gflat @ y.ravel() - cvec)))  # y is symmetric
        if gap <= SDP_TOL * scale and resid <= CONSTRAINT_TOL * scale:
            status = "converged"
            if gap <= _POLISH_TOL * scale:
                break
        if gap <= 0.5 * _POLISH_TOL * scale:
            break
        g_linv, y_linv = _linv(g), _linv(y)
        if g_linv is None or y_linv is None:
            break
        ginv = symmetrize(g_linv.T @ g_linv)
        mu = sigma * gap / m
        mm, tr_gk_ginv = _newton_system(gflat, y, ginv)
        rhs_vec = mu * tr_gk_ginv - cvec
        try:
            dz = np.linalg.solve(mm + 1e-14 * np.trace(mm) / p * np.eye(p), rhs_vec)
        except np.linalg.LinAlgError:
            break
        dg = (dz @ gflat).reshape(m, m)
        dy = mu * ginv - y - 0.5 * (ginv @ dg @ y + y @ dg @ ginv)
        dy = 0.5 * (dy + dy.T)
        alpha_z = _max_step(g_linv, dg)
        alpha_y = _max_step(y_linv, dy)
        if max(alpha_z, alpha_y) < 1e-10:
            break
        z = z + alpha_z * dz
        g = g0 + (z @ gflat).reshape(m, m)
        y = y + alpha_y * dy
        sigma = 0.15 if min(alpha_z, alpha_y) > 0.9 else 0.5
        if prev_gap / max(gap, 1e-300) < 1.000001 and gap < 1e3 * SDP_TOL * scale:
            break  # stalled after reaching the useful accuracy range
        prev_gap = gap

    value = float(cvec @ z)
    xi = z[nv:].reshape(n, f)
    coeffs = (x0 + nullspace @ xi.T).T  # n x nb
    operators = np.tensordot(coeffs, stacked, axes=1)  # n x d x d
    # residual of Tr[d_v rho X_u] = delta_uv and Tr[rho X_u] = 0, from the operators
    traces = np.einsum("kab,uba->uk", e_ops, operators).real
    resid = float(np.max(np.abs(traces - np.eye(n, n + 1))))
    return HolevoSolution(
        value=value,
        operators=operators,
        status=status,
        gap=gap,
        iterations=iterations,
        constraint_residual=resid,
    )


def z_matrix(rho, operators):
    """Z_uv = Tr[rho X_u X_v]: Hermitian, with Re Z positive semidefinite.

    At the optimum Re Z dominates Q^-1 (the matrix Re Z - Q^-1 is PSD up to
    solver tolerance), which callers can check diagnostically.
    """
    ops = np.asarray(operators, dtype=complex)
    return np.einsum("ab,ubc,vca->uv", np.asarray(rho, dtype=complex), ops, ops)


def verify_sandwich(solution, q, u, w=None):
    """Check C_S - tol <= value <= (1 + T(W)) C_S + tol, tol = SANDWICH_TOL (1 + |C_T|)."""
    q = qfim(q)
    low = c_sld(q, w)
    high = c_t(q, u, w)
    slack = SANDWICH_TOL * (1.0 + abs(high))
    return bool(low - slack <= solution.value <= high + slack)
