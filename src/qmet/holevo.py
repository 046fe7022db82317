"""Numerical Holevo bound: an exact solve where Im Z is affine, else an interior-point SDP.

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

Some models skip the loop and are solved exactly.  With A = R X0 and
B = R N, every feasible family has R x_u = A_u + B xi_u, so
Z = (A + B xi)^dag (A + B xi).  When Im(B^dag B) = 0 (within RANK_TOL of
its largest entry), Im Z is affine in xi.  This always holds for f = 0
(the pure qubit) and f = 1: the pure three-parameter qutrit, whose family
is Matsumoto's vector form x_u = X_u|psi> (Matsumoto, J. Phys. A 35, 3111
(2002)), and the two-parameter mixed qubit.  For n = 1, Im Z vanishes
outright.  For n <= 3 the nuclear norm ||sqrt(W) Im Z sqrt(W)||_1 of the
antisymmetric matrix is twice the Euclidean norm of its k = n(n-1)/2
entries above the diagonal.  Whitening the real part (Re(B^dag B) is the
diagonal of the squared singular values that cut N) turns the bound into
const + min_eta |eta|^2 + 2|c + L eta|, whose dual is the trust-region
subproblem max_{|e| <= 1} 2 c^T e - e^T L L^T e.  One k x k eigh and a
safeguarded Newton root of its secular equation solve that, with
eta = -L^T e.  There ``status`` is "converged", ``gap`` is the KKT residual
measured as the duality gap between eta and e, and ``iterations`` counts
the root steps (0 when the solution is interior).  Every other model (the
two-parameter qutrit, with f = 2 and a non-isotropic null space, most mixed
states, n > 3) runs the interior-point loop.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

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
_ROOT_TOL = 1e-14
_PAIRS = np.array([[0, 0, 1], [1, 2, 2]])  # (u, v), u < v; the first n(n-1)/2 cover range(n)


@dataclass(frozen=True)
class HolevoSolution:
    """The bound and the optimal locally unbiased observables X_u (n x d x d).

    ``status`` is "converged"; "max_iter" when the interior-point loop used
    all MAX_ITERATIONS iterations without converging; or "stalled" when it
    stopped earlier without converging (a failed factorization, both step
    lengths below 1e-10, or no progress in the gap).  On the exact path
    (n <= 3 and Im Z affine in the free directions) the status is always
    "converged", ``gap`` is the KKT residual, measured as the duality gap of
    the trust-region subproblem, and ``iterations`` is the number of root
    steps of its secular equation.  On the loop, ``gap`` is the last duality
    gap and ``iterations`` the number of interior-point iterations.
    ``constraint_residual`` is the largest violation of
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
    out = [np.asarray(dr, dtype=complex) for dr in drho]
    if any(dr.shape != (d, d) for dr in out):
        raise ValueError("derivative shapes must match rho")
    stack = np.array(out)
    dscale = 1e-8 * (1.0 + np.abs(stack).max(axis=(1, 2)))
    skew = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2)) > dscale
    traced = np.abs(stack.trace(axis1=1, axis2=2)) > dscale
    bad = np.flatnonzero(skew | traced)
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"drho[{k}] must be " + ("Hermitian" if skew[k] else "traceless"))
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


@lru_cache(maxsize=None)
def _operator_basis(d):
    """:func:`models.hermitian_operator_basis` of dimension d as one read-only nb x d x d array."""
    stacked = np.array(hermitian_operator_basis(d))
    stacked.flags.writeable = False
    return stacked


def holevo_bound(rho, drho, w=None):
    """Holevo bound of a (pure or mixed) model given rho and its derivatives.

    ``w`` is the weight vector of :func:`linalg.weights`, W = diag(w).
    Raises ValueError for invalid input, including an empty ``drho``, and
    Infeasible when the unbiasedness system has no solution (the model is
    not locally identifiable).  Models with n <= 3 whose Im Z is affine in
    the free directions (n = 1, every pure qubit and pure three-parameter
    qutrit) are solved exactly; the others run the interior-point loop.  A
    loop that stops without converging returns its best value with status
    "max_iter" or "stalled" and the reached duality gap, rather than raising.
    """
    rho, evals, evecs, drho = _validate_inputs(rho, drho)
    n = len(drho)
    w = weights(w, n)
    stacked = _operator_basis(rho.shape[0])  # nb x d x d
    nb = len(stacked)
    e_ops = np.array(drho + [rho])  # d_1 rho, ..., d_n rho, rho

    # unbiasedness constraints E x_u = (e_u; 0), stacked over the basis: one
    # SVD gives the least-norm solution X0 and the null space; X0 is
    # feasible when it satisfies the constraints as evaluated in floating point
    e_mat = np.einsum("kab,iba->ki", e_ops, stacked).real
    rhs = np.eye(n + 1, n)
    u_e, sv, vt = np.linalg.svd(e_mat)
    rank = int(np.sum(sv > RANK_TOL * sv[0]))
    x0 = vt[:rank].T @ ((u_e[:, :rank].T @ rhs) / sv[:rank, None])  # nb x n
    if np.max(np.abs(e_mat @ x0 - rhs)) > CONSTRAINT_TOL:
        raise Infeasible("local unbiasedness constraints have no solution")

    # Gram factor R: column i is vec(b_i V_r Lambda_r^1/2), so R^dag R = Tr[rho b_i b_j]
    keep = evals > RANK_TOL * evals[-1]
    r_fact = (stacked @ (evecs[:, keep] * np.sqrt(evals[keep]))).reshape(nb, -1).T

    # orthonormal basis of the null-space directions R sees, cut relative to
    # sqrt(lambda_max(rho)), which bounds the norm of R
    r_null = r_fact @ vt[rank:].T
    _, sv_r, wt = np.linalg.svd(np.vstack([r_null.real, r_null.imag]), full_matrices=False)
    f = int(np.sum(sv_r > RANK_TOL * np.sqrt(evals[-1])))
    wt = wt[:f]
    nullspace = vt[rank:].T @ wt.T  # nb x f
    cols = wt @ r_null.T  # f x (d r): B = R N, one row per null-space basis direction
    rx0 = r_fact @ x0  # A = R X0

    # Im Z_uv, u != v, is affine in xi exactly when Im(B^dag B) vanishes (n = 1 has no such entry)
    bb = cols.conj() @ cols.T
    isotropic = np.max(np.abs(bb.imag), initial=0.0) <= RANK_TOL * np.max(np.abs(bb), initial=0.0)
    if n == 1 or (n <= 3 and isotropic):
        value, xi, status, gap, iterations = _exact(rx0, cols.T, sv_r[:f], w)
    else:
        value, xi, status, gap, iterations = _interior_point(rx0, cols, w)

    coeffs = (x0 + nullspace @ xi.T).T  # n x nb
    operators = (coeffs @ stacked.reshape(nb, -1)).reshape((n,) + stacked.shape[1:])  # n x d x d
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


def _exact(a, b, sv, w):
    """(value, xi, status, gap, iterations) of the bound for n <= 3 when Im Z is affine in xi.

    ``a`` = R X0 is (d r) x n and ``b`` = R N is (d r) x f, with Re(b^dag b) =
    diag(sv^2) by construction of N; xi is n x f, as from the loop.
    """
    n, f = a.shape[1], b.shape[1]
    sw = np.sqrt(w)
    # along beta = b / sv (orthonormal in the real inner product), zeta = sv xi
    proj = (b / sv).conj().T @ a  # f x n: <beta_l|a_u>
    g, s = proj.real, proj.imag
    aa = a.conj().T @ a  # A^dag A, the Z of X0
    # Re Z_uu = |a_u|^2 + 2 g_u.zeta_u + |zeta_u|^2, so eta_u = sqrt(w_u) (zeta_u + g_u)
    # gives Tr[W Re Z] = const + |eta|^2
    const = float(w @ (aa.real.diagonal() - (g * g).sum(axis=0)))
    # Im Z_uv = Im Z0_uv + s_v.zeta_u - s_u.zeta_v, with Z0 the Z at eta = 0 (zeta = -g);
    # its entries above the diagonal, scaled by sqrt(w_u w_v), are c + L eta
    k = n * (n - 1) // 2
    iu, iv = _PAIRS[:, :k]
    im_z0 = aa.imag + s.T @ g - g.T @ s
    c = sw[iu] * sw[iv] * im_z0[iu, iv]
    s_w = s * sw
    l_mat = np.zeros((k, n, f))
    l_mat[np.arange(k), iu] = s_w[:, iv].T
    l_mat[np.arange(k), iv] = -s_w[:, iu].T
    eta, objective, gap, steps = _trust_region(c, l_mat.reshape(k, n * f))
    xi = (eta.reshape(n, f) / sw[:, None] - g.T) / sv
    return const + objective, xi, "converged", gap, steps


def _trust_region(c, l_mat):
    """(eta, min, gap, root steps) of min_eta |eta|^2 + 2|c + L eta|.

    The dual is the trust-region subproblem max_{|e| <= 1} 2 c^T e - e^T H e
    with H = L L^T, and eta = -L^T e.  With H = V diag(lam) V^T and gam = V^T c,
    e = V (gam / (lam + sigma)): sigma = 0 and the least-norm e when c lies in
    the range of H and |H^+ c| <= 1 (interior), else the root sigma in
    (0, |c|] of |e(sigma)| = 1.  1/|e(sigma)| is concave and increasing, so
    Newton steps from the lower bound max(0, max_i |gam_i| - lam_i) rise
    monotonically to the root; the bracket [lo, hi] only guards against
    rounding.  ``gap`` is the duality gap of (eta, e), zero at a KKT point.
    """
    steps = 0
    c_norm = float(np.linalg.norm(c))
    if c_norm == 0.0:
        e = np.zeros(len(c))
    else:
        lam, vecs = np.linalg.eigh(l_mat @ l_mat.T)
        lam = np.maximum(lam, 0.0).tolist()
        gam = (c @ vecs).tolist()
        cut = RANK_TOL * lam[-1]
        coef = [gi / li if li > cut else 0.0 for li, gi in zip(lam, gam)]
        off_range = sum(gi * gi for li, gi in zip(lam, gam) if li <= cut)
        if off_range > (RANK_TOL * c_norm) ** 2 or sum(x * x for x in coef) > 1.0:
            lo = max(0.0, max(abs(gi) - li for li, gi in zip(lam, gam)))
            hi = c_norm
            sigma = lo if lo > 0.0 else hi
            for steps in range(1, MAX_ITERATIONS + 1):
                coef = [gi / (li + sigma) for li, gi in zip(lam, gam)]
                norm2 = sum(x * x for x in coef)
                norm = math.sqrt(norm2)
                if abs(norm - 1.0) <= _ROOT_TOL:
                    break
                if norm > 1.0:
                    lo = sigma
                else:
                    hi = sigma
                cube = sum(x * x / (li + sigma) for li, x in zip(lam, coef))
                sigma += (norm - 1.0) * norm2 / cube
                if not lo < sigma <= hi:
                    sigma = max(math.sqrt(lo * hi), 1e-3 * hi)
        e = vecs @ np.array(coef)
    eta = -(l_mat.T @ e)
    r = c + l_mat @ eta
    r_norm = float(np.linalg.norm(r))
    return eta, float(eta @ eta) + 2.0 * r_norm, 2.0 * (r_norm - float(e @ r)), steps


def _interior_point(rx0, cols, w):
    """(value, xi, status, gap, iterations) of the SDP by the interior-point loop.

    ``rx0`` = R X0 is (d r) x n and ``cols`` = (R N)^T is f x (d r); xi is n x f.
    """
    r_rank, n = rx0.shape
    f = cols.shape[0]
    mc = n + r_rank
    m = 2 * mc
    upper = np.triu_indices(n)  # the V_ab, a <= b, in row-major order
    nv = len(upper[0])
    p = nv + n * f

    # complex Schur blocks of the G_k: V_ab first, then xi_(mu, l) at nv + mu f + l
    blk = np.zeros((p, mc, mc), dtype=complex)
    blk[np.arange(nv), upper[0], upper[1]] = blk[np.arange(nv), upper[1], upper[0]] = 1.0
    xi_blk = blk[nv:].reshape(n, f, mc, mc)  # a view into blk
    xi_blk[np.arange(n), :, n:, np.arange(n)] = cols
    xi_blk[np.arange(n), :, np.arange(n), n:] = cols.conj()
    gflat = _realify(blk).reshape(p, m * m)
    cvec = np.zeros(p)
    cvec[:nv][upper[0] == upper[1]] = w  # Tr[W V] = sum_a w_a V_aa

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

    status = "stalled"  # until converged, or the budget runs out below
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
    else:
        if status != "converged":
            status = "max_iter"

    return float(cvec @ z), z[nv:].reshape(n, f), status, gap, iterations


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
