"""Numerical Holevo bound of a pure model with n <= 3 parameters, by its concave dual.

The bound minimizes ``Tr[W Re Z] + ||sqrt(W) Im Z sqrt(W)||_1`` over
Hermitian families X_u with ``Tr[d_v rho X_u] = delta_uv`` and
``Tr[rho X_u] = 0`` (Albarelli, Friel & Datta, PRL 123, 200503 (2019)).
For rho = |psi><psi| it takes Matsumoto's vector form (J. Phys. A 35,
3111 (2002)): with x_u = X_u psi, Z_uv = <x_u|x_v>, and in the real
inner product of r(x) = [Re x; Im x] the family is feasible when each
x_u is orthogonal to r(psi) and r(i psi) and F x_u = e_u, where
F_v = 2 r(P d_v psi), P = 1 - rho; X_u = |x_u><psi| + |psi><x_u|.

One eigh of rho checks it and gives psi, and P d_v psi = (1 - rho) d_v rho
psi.  One Householder QR of the 2d x (n + 2) matrix [r(psi), r(i psi), F^T]
gives the rest: Q = F F^T = R_F^T R_F, whose squared pivots diag(R_F)^2 go
through the package's singularity rule (``linalg._require_pivots``); the
least-norm family X0 = Q_F R_F^-T; and in the last f = 2d - 2 - n columns an
orthonormal basis N of the free directions.  As complex d-vectors A = X0 and
B = N, every feasible family is x_u = A_u + B xi_u, xi n x f, Re(B^dag B) = I.

For n <= 3 the nuclear norm of the antisymmetric sqrt(W) Im Z sqrt(W) is
2|m|, with m_k = sqrt(w_u w_v) Im Z_uv over the k = n(n-1)/2 pairs u < v,
and 2|m| = max_{|e| <= 1} 2 e.m.  So the bound is the saddle value of
Phi(xi, e) = Tr[W Re Z] + 2 e.m, which is affine in e and a quadratic in
xi with Hessian H(e) = W (x) Re(B^dag B) + K(e) (x) Im(B^dag B), where
K(e) is antisymmetric with entries e_k sqrt(w_u w_v); H(e) is PSD for
|e| <= 1.  By Sion's minimax theorem the bound is the maximum over the
unit ball of the concave g(e) = min_xi Phi(xi, e), attained at
xi*(e) = -H^+ h(e).  The gradient of g is 2m at xi*, and its Hessian is
-2 D^T H^+ D, where column d_k is the gradient of m_k in xi.  Each Newton
step maximizes that quadratic model of g over the ball: the trust-region
subproblem max_{|e| <= 1} 2 c^T e - e^T L L^T e with L L^T = D^T H^+ D,
solved by one k x k eigh and a safeguarded root of its secular equation.
A step is halved until g rises or the gap narrows, where the gap is the
primal objective at xi* minus g(e), zero at the saddle point.  H is
factored by eigh with the RANK_TOL cut.

When Im(B^dag B) = 0 (within RANK_TOL of its largest entry), and always
for n = 1, H = W (x) I does not depend on e and needs no factorization, and
g is quadratic, so the first step is exact and the solve stops.  That
covers every pure qubit (f = 0) and pure three-parameter qutrit (f = 1).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .bounds import c_sld, c_t
from .errors import NotApplicable, TooManyParameters
from .linalg import _require_pivots, qfim, weights

CONSTRAINT_TOL = 1e-8
GAP_TOL = 1e-12
MAX_ITERATIONS = 500
RANK_TOL = 1e-12
SANDWICH_TOL = 1e-6
_ROOT_TOL = 1e-14
# _PAIR_UNITS[k] is the antisymmetric unit matrix of the pair (u, v) = (0, 1), (0, 2),
# (1, 2); n parameters use the first n(n-1)/2 pairs and their top-left n x n block
_PAIR_UNITS = np.zeros((3, 3, 3))
_PAIR_UNITS[[0, 1, 2], [0, 0, 1], [1, 2, 2]] = 1.0
_PAIR_UNITS -= _PAIR_UNITS.transpose(0, 2, 1)


@dataclass(frozen=True)
class HolevoSolution:
    """The bound and the optimal locally unbiased observables X_u (n x d x d).

    ``value`` is the objective attained by ``operators``.  ``gap`` is that
    value minus the dual value g(e) at the last point e of the unit ball,
    zero at the optimum.  ``status`` is "converged" when the result is
    certified: |gap| <= GAP_TOL * value and ``constraint_residual`` <=
    CONSTRAINT_TOL.  Otherwise it is "max_iter" when MAX_ITERATIONS Newton
    steps ran out, or "stalled" when the solve stopped earlier: a step,
    however far halved, neither raised g nor narrowed the gap, or the
    operators miss the constraints.
    ``iterations`` counts the root steps of the secular equations, summed
    over the Newton steps (0 when every step is interior, as for n = 1).
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


def _validate_inputs(rho, drho):
    """Checked rho, its eigenvalues and eigenvectors, and drho; eigh(rho) also gives psi."""
    if len(drho) == 0:
        raise ValueError("drho must hold at least one derivative")
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    scale = 1.0 + float(np.abs(rho).max())
    if np.abs(rho - rho.conj().T).max() > 1e-10 * scale:
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


def holevo_bound(rho, drho, w=None):
    """Holevo bound of a pure model given rho = |psi><psi| and its n <= 3 derivatives.

    ``w`` is the weight vector of :func:`linalg.weights`, W = diag(w).  Raises, in
    this order: ValueError for invalid input, including an empty ``drho``;
    TooManyParameters for n > 3; NotApplicable when rho's second eigenvalue is
    above RANK_TOL times its largest; and SingularQfim when the QFIM breaks the
    package's pivot rule, so no unbiased family exists.  A solve that stops
    without a certificate returns its last value, status "max_iter" or "stalled"
    and the reached gap.
    """
    rho, evals, evecs, drho = _validate_inputs(rho, drho)
    n = len(drho)
    w = weights(w, n)
    if n > 3:
        raise TooManyParameters(f"holevo_bound is defined for n <= 3, got n = {n}")
    if evals[:-1].max(initial=0.0) > RANK_TOL * evals[-1]:
        raise NotApplicable("holevo_bound takes a pure state: rho has rank above one")
    d, psi = len(evals), evecs[:, -1]
    e_ops = np.array(drho + [rho])  # d_1 rho, ..., d_n rho, rho

    # realified columns r(psi), r(i psi) and F_v = 2 r(P d_v psi); zero rows pad
    # a model with n > 2d - 2, whose QFIM is singular, to a square R
    drho_psi = e_ops[:n] @ psi  # row v is d_v rho psi
    cols = np.column_stack([psi, 1j * psi, 2.0 * (drho_psi - drho_psi @ rho.T).T])
    m = np.zeros((max(2 * d, n + 2), n + 2))
    m[:d], m[d : 2 * d] = cols.real, cols.imag
    q_fact, r_fact = np.linalg.qr(m, mode="complete")
    r_f = r_fact[2 : n + 2, 2:]
    _require_pivots(r_f.diagonal() ** 2, (m[:, 2:] ** 2).sum(axis=0))  # diag Q = |F_v|^2
    x0 = lapack.dtrtrs(r_f, q_fact[:, 2 : n + 2].T)[0].T  # Q_F R_F^-T
    null = q_fact[:, n + 2 :]
    a, b = x0[:d] + 1j * x0[d:], null[:d] + 1j * null[d:]  # A = X0, B = N as d-vectors
    value, xi, status, gap, iterations = _dual(a, b, w)
    ket_bra = (a + b @ xi.T).T[:, :, None] * psi.conj()  # |x_u><psi|, x_u = A_u + B xi_u
    operators = ket_bra + ket_bra.conj().transpose(0, 2, 1)  # n x d x d
    # residual of Tr[d_v rho X_u] = delta_uv and Tr[rho X_u] = 0, from the operators
    traces = np.einsum("kab,uba->uk", e_ops, operators).real
    resid = float(np.abs(traces - np.eye(n, n + 1)).max())
    if status == "converged" and resid > CONSTRAINT_TOL:
        status = "stalled"
    return HolevoSolution(value, operators, status, gap, iterations, constraint_residual=resid)


def _dual(a, b, w):
    """(value, xi, status, gap, iterations) of the bound by Newton steps on g(e).

    ``a`` = X0 is d x n and ``b`` = N is d x f, as complex d-vectors; xi is n x f.
    ``status`` is "converged" when |gap| <= GAP_TOL * value.
    """
    n, f = a.shape[1], b.shape[1]
    k = n * (n - 1) // 2
    # K(e) = sum_k e_k units[k], and m_k = sqrt(w_u w_v) Im Z_uv = <units[k], Im Z> / 2
    units = (_PAIR_UNITS[:k, :n, :n] * np.sqrt(w[:, None] * w)).reshape(k, n * n)
    b_dag = b.conj().T
    bb = b_dag @ b  # B^dag B
    ba = b_dag @ a  # B^dag A, f x n
    isotropic = n == 1 or (
        np.abs(bb.imag).max(initial=0.0) <= RANK_TOL * np.abs(bb).max(initial=0.0)
    )
    # Phi(xi, e) = xi.H xi + 2 h.xi + const, with h = W Re(B^dag A)^T + K Im(B^dag A)^T
    h_re, h_im = w[:, None] * ba.real.T, ba.imag.T

    def inner(e):
        """xi*(e), H^+1/2 (zero columns where cut), L with L L^T = D^T H^+ D, m, g(e), gap."""
        kmat = (e @ units).reshape(n, n)
        if isotropic:  # H = W (x) Re(B^dag B), diagonal because N diagonalizes Re(B^dag B)
            lam, vecs = (w[:, None] * bb.real.diagonal()).ravel(), np.eye(n * f)
        else:
            lam, vecs = np.linalg.eigh(np.kron(np.diag(w), bb.real) + np.kron(kmat, bb.imag))
        half = vecs * np.where(lam > RANK_TOL * lam.max(initial=0.0), lam, np.inf) ** -0.5
        xi = -(half @ (half.T @ (h_re + kmat @ h_im).ravel())).reshape(n, f)
        y = a + b @ xi.T
        z = y.conj().T @ y
        m = 0.5 * (units @ z.imag.ravel())
        # D^T: row k is the gradient of m_k in xi, units[k] times the rows Im B^dag y_u
        l_mat = (units.reshape(k, n, n) @ (b_dag @ y).imag.T).reshape(k, n * f) @ half
        # g(e) = Phi(xi*, e); the primal value Tr[W Re Z] + 2|m| exceeds it by the gap
        e_m = float(e @ m)
        g = float(w @ z.real.diagonal()) + 2.0 * e_m
        return xi, half, l_mat, m, g, 2.0 * (math.sqrt(m @ m) - e_m)

    e = np.zeros(k)
    xi, half, l_mat, m, g, gap = inner(e)
    iterations = 0
    status = "stalled"
    for _ in range(MAX_ITERATIONS):
        eta, tr_min, tr_gap, roots, e_step = _trust_region(m + l_mat @ (l_mat.T @ e), l_mat)
        iterations += roots
        if isotropic:
            # g is quadratic, so the step is exact: xi moves by H^+1/2 eta, Tr[W Re Z]
            # by |eta|^2, and the trust region's duality gap is the bound's
            xi = xi + (half @ eta).reshape(n, f)
            g, gap = g + tr_min - tr_gap, tr_gap
            break
        # safeguard: halve the step until g rises or the gap narrows; below
        # 2^-52 of the Newton step nothing changes
        for frac in 0.5 ** np.arange(53):
            e_try = e + frac * (e_step - e)
            trial = inner(e_try)
            if trial[-2] > g or trial[-1] < gap:
                break
        else:
            break
        e, (xi, half, l_mat, m, g, gap) = e_try, trial
        if gap <= GAP_TOL * (g + gap):
            break
    else:
        status = "max_iter"
    value = g + gap
    if abs(gap) <= GAP_TOL * value:
        status = "converged"
    return value, xi, status, gap, iterations


def _trust_region(c, l_mat):
    """(eta, min, gap, root steps, e) of min_eta |eta|^2 + 2|c + L eta|.

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
    c_norm = math.sqrt(c @ c)
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
    r_norm = math.sqrt(r @ r)
    return eta, float(eta @ eta) + 2.0 * r_norm, 2.0 * (r_norm - float(e @ r)), steps, e


def verify_sandwich(solution, q, u, w=None):
    """Check C_S - tol <= value <= (1 + T(W)) C_S + tol, tol = SANDWICH_TOL (1 + |C_T|)."""
    q = qfim(q)
    low = c_sld(q, w)
    high = c_t(q, u, w)
    slack = SANDWICH_TOL * (1.0 + abs(high))
    return bool(low - slack <= solution.value <= high + slack)
