"""Shared oracles and samplers for the test suite.

Everything here is deliberately independent of the implementation paths it
checks: determinants by cofactor expansion, stepwise values by numerical
minimization over the resource simplex, derivatives by central differences.
"""

import numpy as np
from scipy.optimize import minimize


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

    Oracle for the interior-point solver: the objective
    Tr[Re Z] + ||Im Z||_1 is evaluated from its definition and minimized
    with Nelder-Mead over the null-space coordinates of the unbiasedness
    constraints (the problem is convex, so a generic local minimizer
    suffices).
    """
    from qmet.models import hermitian_operator_basis

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


def newton_system_by_einsum(gk, y, ginv):
    """Interior-point Newton matrix M_kl = tr[G_k Y G_l G^-1], symmetrized, and tr[G_k G^-1].

    Reference for the solver's batched build: every trace is an einsum over
    the p x m x m constraint stack, with no use of the symmetry of G_k.
    """
    tr_gk_ginv = np.einsum("kij,ji->k", gk, ginv)
    t_mats = np.einsum("ab,kbc,cd->kad", y, gk, ginv)
    mm = np.einsum("kab,lba->kl", gk, t_mats)
    return 0.5 * (mm + mm.T), tr_gk_ginv


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
