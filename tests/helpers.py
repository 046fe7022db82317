"""Shared oracles and samplers for the test suite.

Everything here is deliberately independent of the implementation paths it
checks: determinants by cofactor expansion, stepwise values by numerical
minimization over the resource simplex, derivatives by central differences,
the Holevo bound by an interior-point SDP and by direct minimization.  It
also holds the reference constructions the package itself does not use:
spin-1/2 operators, the Bloch vector of a qubit state, the generalized
Gell-Mann basis and the qutrit coherence vector, the three-parameter
direction triple and the Holevo Z matrix.
"""

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import minimize

from qmet.linalg import pivot_tol, qfim_matrix, weights
from qmet.stepwise import _subset_logdets


# Pauli matrices
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def spin_half_operators():
    """(Jx, Jy, Jz) for a qubit, i.e. the Pauli matrices over two."""
    return 0.5 * _SX, 0.5 * _SY, 0.5 * _SZ


def state_to_bloch(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.array(
        [np.real(np.vdot(psi, s @ psi)) for s in (_SX, _SY, _SZ)], dtype=float
    )


def gell_mann_basis():
    """Orthonormal Hermitian qutrit basis {Gamma_1/sqrt2, ..., Gamma_8/sqrt2, I/sqrt3}.

    Satisfies ``Tr[b_i b_j] = delta_ij``; the identity element comes last so a
    pure state's coefficient vector has r_9 = 1/sqrt(3).
    """
    return hermitian_operator_basis(3)


def hermitian_operator_basis(d):
    """Orthonormal Hermitian operator basis of a d-dimensional space.

    Generalized Gell-Mann construction, in Gell-Mann order: for j = 1..d-1
    the symmetric and antisymmetric pair of every i < j, then
    diag(1, ..., 1, -j) / sqrt(j (j + 1) / 2), each over sqrt(2); the
    identity over sqrt(d) comes last.  For d = 3 these are the Gell-Mann
    matrices Gamma_1..Gamma_8.
    """
    basis = []
    for j in range(1, d):
        for i in range(j):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            basis.append(m / np.sqrt(2.0))
            m = np.zeros((d, d), dtype=complex)
            m[i, j], m[j, i] = -1.0j, 1.0j
            basis.append(m / np.sqrt(2.0))
        diag = np.zeros(d, dtype=complex)
        diag[:j] = 1.0
        diag[j] = -j
        basis.append(np.diag(diag) / np.sqrt(j * (j + 1) / 2.0) / np.sqrt(2.0))
    basis.append(np.eye(d, dtype=complex) / np.sqrt(d))
    return basis


def qutrit_coherence(psi):
    """Coefficients r_i = Tr[|psi><psi| b_i] in the normalized Gell-Mann basis.

    Not a Bloch vector: for pure states |r|^2 = 1 and r_9 = 1/sqrt(3).
    """
    from qmet.models import normalize_state

    psi = normalize_state(psi, 3)
    return np.array(
        [np.real(np.vdot(psi, b @ psi)) for b in gell_mann_basis()], dtype=float
    )


def geometry_vectors3(B, theta, phi, t):
    """Direction triple of the three-parameter model (field spanning all directions)."""
    c, s = np.cos(B * t / 2.0), np.sin(B * t / 2.0)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    n_theta = np.array([ct * cp, ct * sp, st])
    n_1 = np.array([s * sp + c * st * cp, -s * cp + c * st * sp, -c * ct])
    n_2 = np.array([c * sp - s * st * cp, -c * cp - s * st * sp, s * ct])
    return n_theta, n_1, n_2


def z_matrix(rho, operators):
    """Z_uv = Tr[rho X_u X_v]: Hermitian, with Re Z positive semidefinite.

    At the optimum Re Z dominates Q^-1 (the matrix Re Z - Q^-1 is PSD up to
    solver tolerance), which callers can check diagnostically.
    """
    ops = np.asarray(operators, dtype=complex)
    return np.einsum("ab,ubc,vca->uv", np.asarray(rho, dtype=complex), ops, ops)


def det_cofactor(m):
    """Determinant by recursive cofactor expansion (small n only)."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * det_cofactor(minor)
    return total


def rand_spd(rng, n, shift=0.3):
    """Random SPD matrix A^T A + shift*I."""
    a = rng.standard_normal((n, n))
    return a.T @ a + shift * np.eye(n)


def rand_antisym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a - a.T)


def step_terms_by_inversion(q, order):
    """A_j = [Q_{j..n}^{-1}]_{11} on the permuted matrix, via direct inversion."""
    idx = [o - 1 for o in order]
    qp = np.asarray(q, dtype=float)[np.ix_(idx, idx)]
    n = qp.shape[0]
    return np.array([np.linalg.inv(qp[j:, j:])[0, 0] for j in range(n)])


def dp_costs_by_loop(q, tol):
    """Held-Karp costs by an explicit loop over (subset, candidate) pairs.

    Reference for the batched search: one solve per pair, candidates with a
    Schur complement at or below ``tol`` infeasible, masks as plain ints.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    cost = np.full(1 << n, np.inf)
    cost[0] = 0.0
    for mask in sorted(range(1, 1 << n), key=lambda m: m.bit_count()):
        bits = [k for k in range(n) if mask >> k & 1]
        for j in bits:
            if not np.isfinite(cost[mask ^ (1 << j)]):
                continue
            others = [k for k in bits if k != j]
            qij = q[others, j]
            schur = q[j, j] - qij @ np.linalg.solve(q[np.ix_(others, others)], qij)
            if schur > tol:
                cost[mask] = min(cost[mask], cost[mask ^ (1 << j)] + 1.0 / np.sqrt(schur))
    return cost


def dp_tables_by_layers(q, w=None):
    """Held-Karp tables by the layer loop the search replaced; a bit-exact referee.

    Each population-count layer is found by scanning a popcount array, and
    every subset of it is tried against all n candidates in chunks of 4096
    subsets, the candidates outside the subset reading the still-infinite
    cost of a mask of the next layer.  The step-cost arithmetic, the pivot
    rule and the smallest-j tie-break are the search's, so the tables must
    agree bit for bit.  It reads the package's ``_subset_logdets``, which
    ``TestSubsetLogdets`` checks on its own: this referees the search alone.
    """
    q = qfim_matrix(q)
    n = q.shape[0]
    root_w = np.sqrt(weights(w, n))
    bits = 1 << np.arange(n)
    size = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        size = np.concatenate((size, size + 1))  # popcount of every mask
    cost = np.full(1 << n, np.inf)
    cost[0] = 0.0
    choice = np.full(1 << n, -1, dtype=np.intp)
    ld = _subset_logdets(q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_tol = np.log(pivot_tol(q))
        for k in range(1, n + 1):
            layer = np.flatnonzero(size == k)
            for lo in range(0, layer.size, 4096):
                sub = layer[lo:lo + 4096]
                prev = sub[:, None] ^ bits
                log_schur = ld[sub][:, None] - ld[prev]
                vals = np.where(
                    log_schur > log_tol,
                    cost[prev] + root_w * np.exp(-0.5 * log_schur),
                    np.inf,
                )
                best = np.argmin(vals, axis=1)
                best_vals = vals[np.arange(sub.size), best]
                cost[sub] = best_vals
                choice[sub] = np.where(np.isfinite(best_vals), best, -1)
    return cost, choice


def simplex_min_csep(a_terms, n_starts=3, seed=0):
    """Minimize sum_j a_j / gamma_j over the probability simplex numerically.

    Independent oracle for the closed-form stepwise value: SLSQP from a few
    starting points with an explicit normalization constraint, given the
    exact gradients -a_j / gamma_j^2 and (1, ..., 1).
    """
    a = np.asarray(a_terms, dtype=float)
    n = a.size
    if n == 1:
        return float(a[0])
    rng = np.random.default_rng(seed)

    def f(g):
        return float(np.sum(a / g))

    def grad(g):
        return -a / g**2

    best = np.inf
    starts = [np.full(n, 1.0 / n)]
    for _ in range(n_starts - 1):
        starts.append(rng.dirichlet(np.ones(n)))
    for g0 in starts:
        res = minimize(
            f,
            np.clip(g0, 1e-6, None),
            method="SLSQP",
            jac=grad,
            bounds=[(1e-9, 1.0)] * n,
            constraints=[
                {"type": "eq", "fun": lambda g: np.sum(g) - 1.0, "jac": lambda g: np.ones(n)}
            ],
            options={"ftol": 1e-14, "maxiter": 500},
        )
        if res.fun < best:
            best = float(res.fun)
    return best


def qubit_instance(rng, b_range=(0.3, 3.0), t_range=(0.3, 3.0), det_floor=1e-3):
    """Random pure-qubit 2-parameter instance (alpha, beta, B, t) with invertible Q.

    The probe Bloch vector is alpha*n_theta + beta*n_1 + sqrt(1-a^2-b^2)*n_2,
    so det Q = 4 t^2 sin^2(Bt/2) (1 - alpha^2 - beta^2); instances below the
    determinant floor are rejected.
    """
    while True:
        r = np.sqrt(rng.uniform(0.0, 1.0))
        ang = rng.uniform(0.0, 2.0 * np.pi)
        alpha, beta = r * np.cos(ang), r * np.sin(ang)
        B = rng.uniform(*b_range)
        t = rng.uniform(*t_range)
        det_q = 4.0 * t**2 * np.sin(B * t / 2.0) ** 2 * (1.0 - alpha**2 - beta**2)
        if det_q >= det_floor:
            return alpha, beta, B, t


def direct_holevo_min(rho, drho, n_starts=3, seed=0, budget=120_000):
    """Minimize the Holevo functional directly over unbiased observable families.

    Oracle for the Holevo solver: the objective
    Tr[Re Z] + ||Im Z||_1 is evaluated from its definition and minimized
    with Nelder-Mead over the null-space coordinates of the unbiasedness
    constraints (the problem is convex, so a generic local minimizer
    suffices).
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    n = len(drho)
    basis = hermitian_operator_basis(d)
    d_mat = np.array([[np.trace(dr @ b).real for b in basis] for dr in drho])
    r_vec = np.array([np.trace(rho @ b).real for b in basis])
    e_mat = np.vstack([d_mat, r_vec])
    rhs = np.vstack([np.eye(n), np.zeros((1, n))])
    x0, *_ = np.linalg.lstsq(e_mat, rhs, rcond=None)
    _, sv, vt = np.linalg.svd(e_mat)
    nullspace = vt[int(np.sum(sv > 1e-12 * sv[0])):].T
    f = nullspace.shape[1]
    b_stack = np.stack(basis)

    def objective(xi):
        x = x0 + nullspace @ xi.reshape(n, f).T
        ops = np.einsum("iu,iab->uab", x, b_stack)
        z = np.einsum("ab,ubc,vca->uv", rho, ops, ops)
        return float(
            np.trace(z.real) + np.sum(np.abs(np.linalg.eigvalsh(1j * z.imag)))
        )

    rng = np.random.default_rng(seed)
    best = np.inf
    for k in range(n_starts):
        start = np.zeros(n * f) if k == 0 else 0.5 * rng.standard_normal(n * f)
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "xatol": 1e-11,
                "fatol": 1e-14,
                "maxiter": budget,
                "maxfev": budget,
                "adaptive": True,
            },
        )
        best = min(best, res.fun)
    return best


_SDP_TOL = 1e-6
_SDP_POLISH_TOL = 1e-11
_SDP_CONSTRAINT_TOL = 1e-8
_SDP_MAX_ITERATIONS = 500
_SDP_BOUNDARY_FRACTION = 0.98


def _realify(m):
    """[[Re M, -Im M], [Im M, Re M]] of each complex k x k matrix in a stack."""
    k = m.shape[-1]
    out = np.empty(m.shape[:-2] + (2, k, 2, k))
    out[..., 0, :, 0, :] = out[..., 1, :, 1, :] = m.real
    out[..., 1, :, 0, :] = m.imag
    out[..., 0, :, 1, :] = -m.imag
    return out.reshape(m.shape[:-2] + (2 * k, 2 * k))


def _linv(a):
    """L^-1 for the lower Cholesky factor L of ``a``, or None where LAPACK's dpotrf stops."""
    L, info = lapack.dpotrf(a, lower=1)
    return None if info else lapack.dtrtri(L, lower=1)[0]


def _max_step(linv, dp):
    """Largest step keeping L L^T + a*dp positive definite, within the boundary fraction."""
    lam_min = float(np.linalg.eigvalsh(linv @ dp @ linv.T)[0])
    if lam_min >= -1e-14:
        return 1.0
    return min(1.0, -_SDP_BOUNDARY_FRACTION / lam_min)


def holevo_interior_point(rx0, cols, w):
    """(value, xi, status, gap, iterations) of the Holevo SDP by an interior-point loop.

    Oracle for the library's dual solve, on its own coordinates: ``rx0`` = X0
    is d x n and ``cols`` = N^T is f x d, the least-norm family and the free
    directions as complex d-vectors, so xi is n x f.  The SDP

        minimize  Tr[W V]  subject to  [[V, X^dag], [X, I]] >= 0,

    with V real symmetric and x_u = rx0_u + N xi_u, is realified
    ([[Re M, -Im M], [Im M, Re M]] >= 0) and solved by a primal-dual
    path-following method in the dual-scaling flavor: the direction in the
    variables z comes from M dz = mu tr[G_k G^-1] - c with
    M_kl = tr[G_k Y G_l G^-1] symmetrized, and the cone multiplier Y follows
    the linearized complementarity condition.  Its "converged" means the
    duality gap is within _SDP_TOL and the dual residual within
    _SDP_CONSTRAINT_TOL, both relative to 1 + |objective|.
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

    # strictly feasible start: V beyond the largest eigenvalue of X0^dag X0
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
    for iterations in range(1, _SDP_MAX_ITERATIONS + 1):
        gap = float(np.sum(y * g))
        obj = float(cvec @ z)
        scale = 1.0 + abs(obj)
        resid = float(np.max(np.abs(gflat @ y.ravel() - cvec)))  # y is symmetric
        if gap <= _SDP_TOL * scale and resid <= _SDP_CONSTRAINT_TOL * scale:
            status = "converged"
            if gap <= _SDP_POLISH_TOL * scale:
                break
        if gap <= 0.5 * _SDP_POLISH_TOL * scale:
            break
        g_linv, y_linv = _linv(g), _linv(y)
        if g_linv is None or y_linv is None:
            break
        ginv = g_linv.T @ g_linv
        ginv = 0.5 * (ginv + ginv.T)
        mu = sigma * gap / m
        t_mats = y @ gflat.reshape(p, m, m) @ ginv
        mm = gflat @ t_mats.reshape(p, m * m).T
        mm = 0.5 * (mm + mm.T)
        rhs_vec = mu * (gflat @ ginv.ravel()) - cvec
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
        if prev_gap / max(gap, 1e-300) < 1.000001 and gap < 1e3 * _SDP_TOL * scale:
            break  # stalled after reaching the useful accuracy range
        prev_gap = gap
    else:
        if status != "converged":
            status = "max_iter"

    return float(cvec @ z), z[nv:].reshape(n, f), status, gap, iterations


def _spin1_moments(psi, *directions):
    """<J_n> and the symmetrized covariance 1/2 <{J_a, J_b}> - <J_a><J_b> of spin-1 J_n."""
    from qmet.models import spin_one_operators

    j = np.stack(spin_one_operators())
    ops = [np.tensordot(n, j, axes=1) for n in directions]
    mean = np.array([np.real(np.vdot(psi, a @ psi)) for a in ops])
    second = np.array([[np.real(np.vdot(psi, (a @ b + b @ a) @ psi)) for b in ops] for a in ops])
    return mean, 0.5 * second - np.outer(mean, mean)


def qutrit2_closed_qu(B, theta, t, psi):
    """The paper's closed-form two-parameter qutrit (Q, U) from spin-1 expectations."""
    from qmet.models import geometry_vectors

    mean, cov = _spin1_moments(psi, *geometry_vectors(B, theta, t))
    s = np.sin(B * t / 2.0)
    q_bt = -8.0 * t * s * cov[1, 0]
    q = np.array([[4.0 * t**2 * cov[0, 0], q_bt], [q_bt, 16.0 * s**2 * cov[1, 1]]])
    u_bt = -4.0 * t * s * mean[2]
    return q, np.array([[0.0, u_bt], [-u_bt, 0.0]])


def qutrit3_closed_q(B, theta, phi, t, psi):
    """The paper's closed-form three-parameter qutrit QFIM from spin-1 expectations."""
    _, cov = _spin1_moments(psi, *geometry_vectors3(B, theta, phi, t))
    s, ct = np.sin(B * t / 2.0), np.cos(theta)
    q = np.empty((3, 3))
    q[0, 0] = 4.0 * t**2 * cov[0, 0]
    q[1, 1] = 16.0 * s**2 * cov[1, 1]
    q[2, 2] = 16.0 * s**2 * ct**2 * cov[2, 2]
    q[0, 1] = q[1, 0] = -8.0 * t * s * cov[1, 0]
    q[0, 2] = q[2, 0] = -8.0 * t * s * ct * cov[2, 0]
    q[1, 2] = q[2, 1] = 16.0 * s**2 * ct * cov[1, 2]
    return q


def qfim_muc_by_loop(psi, dpsi):
    """(Q, U) from one vdot per pair: 4 Re/Im of <d_u|d_v> - <d_u|psi><psi|d_v>."""
    n = len(dpsi)
    g = np.zeros((n, n), dtype=complex)
    for mu in range(n):
        for nu in range(n):
            g[mu, nu] = np.vdot(dpsi[mu], dpsi[nu]) - np.vdot(dpsi[mu], psi) * np.vdot(
                psi, dpsi[nu]
            )
    return 4.0 * g.real, 4.0 * g.imag


def central_diff_state_derivatives(state_fn, p, h=1e-5):
    """Phase-aligned central differences of a state map, for use as an oracle."""
    p = np.asarray(p, dtype=float)
    psi = state_fn(p)

    def aligned(q):
        phi = state_fn(q)
        ov = np.vdot(psi, phi)
        return phi * (np.conj(ov) / abs(ov))

    derivs = []
    for k in range(p.size):
        hk = h * max(1.0, abs(p[k]))
        e = np.zeros_like(p)
        e[k] = hk
        derivs.append((aligned(p + e) - aligned(p - e)) / (2.0 * hk))
    return psi, derivs
