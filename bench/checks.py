"""Correctness checks of the benchmark, computed apart from the program.

Nothing here imports ``qmet``.  Information matrices are rebuilt from exact
state derivatives (the Frechet derivative of the matrix exponential), and
every bound is recomputed with numpy inversions, SVDs and closed forms, or
with mpmath where float arithmetic cannot decide.  Each function returns a
list of failure messages, empty when the check passes.
"""

from itertools import permutations

import mpmath
import numpy as np
from scipy.linalg import expm, expm_frechet

EPS = np.finfo(float).eps

# spin-1 generators in the |m = 1, 0, -1> basis, and the Pauli matrices
_S1 = 1.0 / np.sqrt(2.0)
SPIN1 = np.array(
    [
        [[0, _S1, 0], [_S1, 0, _S1], [0, _S1, 0]],
        [[0, -1j * _S1, 0], [1j * _S1, 0, -1j * _S1], [0, 1j * _S1, 0]],
        [[1, 0, 0], [0, 0, 0], [0, 0, -1]],
    ],
    dtype=complex,
)
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


# ---------------------------------------------------------------- models


def qu_from_derivatives(psi, dpsi):
    """Q and U from a state and its parameter derivatives (rows of ``dpsi``)."""
    dpsi = np.asarray(dpsi)
    proj = dpsi.conj() @ psi  # <d_u psi|psi>
    g = dpsi.conj() @ dpsi.T - np.outer(proj, proj.conj())
    return 4.0 * g.real, 4.0 * g.imag


def _field(theta, phi):
    ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    n = np.array([ct * cp, ct * sp, st])
    dn_theta = np.array([-st * cp, -st * sp, ct])
    dn_phi = np.array([-ct * sp, ct * cp, 0.0])
    return n, dn_theta, dn_phi


def _spin1_qu(b, t, probe, n, dns):
    """(Q, U) of psi = exp(-i B t n.J) probe in (B, field angles), from exact derivatives.

    ``dns`` holds the derivatives of the unit field vector ``n`` by each angle.
    """
    gen = np.tensordot(n, SPIN1, axes=1)
    a = -1j * b * t * gen
    unitary = expm(a)
    derivs = [(-1j * t * gen) @ unitary @ probe]
    for dn in dns:
        e = -1j * b * t * np.tensordot(dn, SPIN1, axes=1)
        derivs.append(expm_frechet(a, e, compute_expm=False) @ probe)
    return qu_from_derivatives(unitary @ probe, derivs)


def qutrit3_qu(b, theta, phi, t, probe):
    """(Q, U) of the three-parameter qutrit model, parameters (B, theta, phi)."""
    n, dn_theta, dn_phi = _field(theta, phi)
    return _spin1_qu(b, t, probe, n, [dn_theta, dn_phi])


def qutrit2_qu(b, theta, t, probe):
    """(Q, U) of the (B, theta) qutrit model, field in the x-z plane."""
    n, dn_theta, _ = _field(theta, 0.0)
    return _spin1_qu(b, t, probe, n, [dn_theta])


def qubit_bloch(alpha, beta, b, t):
    """Probe Bloch vector alpha n_theta + beta n_1 + gamma n_2 of the theta = 0 frame."""
    c, s = np.cos(b * t / 2.0), np.sin(b * t / 2.0)
    gamma = np.sqrt(max(0.0, 1.0 - alpha**2 - beta**2))
    return np.array([alpha, -beta * s + gamma * c, -beta * c - gamma * s])


def qubit_qu(alpha, beta, b, t):
    """(Q, U) of the qubit model at theta = 0, from the state derivatives.

    psi(B, theta) = [cos(Bt/2) - i sin(Bt/2) n(theta).sigma] psi0 with
    n(theta) = (cos theta, 0, sin theta).
    """
    r = qubit_bloch(alpha, beta, b, t)
    polar = np.arccos(np.clip(r[2], -1.0, 1.0))
    azim = np.arctan2(r[1], r[0])
    psi0 = np.array([np.cos(polar / 2.0), np.exp(1j * azim) * np.sin(polar / 2.0)])
    c, s = np.cos(b * t / 2.0), np.sin(b * t / 2.0)
    sig_n, sig_dn = PAULI[0], PAULI[2]
    unitary = c * np.eye(2) - 1j * s * sig_n
    d_b = (-0.5 * t * s * np.eye(2) - 0.5j * t * c * sig_n) @ psi0
    d_theta = (-1j * s * sig_dn) @ psi0
    return qu_from_derivatives(unitary @ psi0, [d_b, d_theta])


# ---------------------------------------------------------------- stepwise


def stepwise_value(q, order):
    """(sum_j sqrt(A_j))^2 with A_j = [Q_{j..n}^-1]_11 by trailing-block inversion."""
    idx = [o - 1 for o in order]
    qp = np.asarray(q, dtype=float)[np.ix_(idx, idx)]
    n = qp.shape[0]
    terms = [np.linalg.inv(qp[j:, j:])[0, 0] for j in range(n)]
    return float(np.sum(np.sqrt(terms)) ** 2)


def stepwise_value_mp(q, order, dps=60):
    """Stepwise value of one ordering in mpmath, at the float entries of ``q``.

    Returns None when a trailing determinant is not positive.
    """
    idx = [o - 1 for o in order]
    n = len(idx)
    with mpmath.workdps(dps):
        m = mpmath.matrix([[mpmath.mpf(float(q[i][j])) for j in idx] for i in idx])
        dets = [mpmath.det(m[j:n, j:n]) for j in range(n)] + [mpmath.mpf(1)]
        if any(d <= 0 for d in dets):
            return None
        total = mpmath.fsum(mpmath.sqrt(dets[j + 1] / dets[j]) for j in range(n))
        return float(total**2)


def order_tolerance(q):
    """Relative tolerance for stepwise values of ``q``: rounding grows with cond(Q)."""
    return 1e-12 + 1e3 * EPS * float(np.linalg.cond(q))


def check_order_result(q, value, ordering, expansions=None):
    """Failures of one minimum-order search on a well-posed QFIM."""
    n = q.shape[0]
    fails = []
    rtol = order_tolerance(q)
    ref = stepwise_value(q, ordering)
    if abs(value - ref) > rtol * ref:
        fails.append(f"value {value!r} != stepwise value {ref!r} of {ordering}")
    order = list(ordering)
    for k in range(n - 1):
        swapped = order[:k] + [order[k + 1], order[k]] + order[k + 2:]
        other = stepwise_value(q, swapped)
        if other < ref * (1.0 - rtol):
            fails.append(f"adjacent swap {tuple(swapped)} lowers {ref!r} to {other!r}")
            break
    lower = n**3 / np.trace(q)
    upper = n * np.trace(np.linalg.inv(q))
    if not lower * (1.0 - rtol) <= value <= upper * (1.0 + rtol):
        fails.append(f"value {value!r} outside [{lower!r}, {upper!r}]")
    if expansions is not None and expansions != n * 2 ** (n - 1):
        fails.append(f"{expansions} DP expansions, expected {n * 2 ** (n - 1)}")
    return fails


def check_existence(q, dp_outcome, brute_outcome):
    """Near-singular items: both searches agree on existence, and values are exact.

    Each outcome is either an exception or a (value, ordering) pair.
    """
    fails = []
    dp_ok = not isinstance(dp_outcome, Exception)
    brute_ok = not isinstance(brute_outcome, Exception)
    if dp_ok != brute_ok:
        shown = [
            type(o).__name__ if isinstance(o, Exception) else f"{o[0]!r} for {o[1]}"
            for o in (dp_outcome, brute_outcome)
        ]
        fails.append(f"DP gives {shown[0]} but brute force gives {shown[1]}")
    for label, outcome in (("DP", dp_outcome), ("brute force", brute_outcome)):
        if isinstance(outcome, Exception):
            continue
        value, ordering = outcome
        exact = stepwise_value_mp(q, ordering)
        if exact is None:
            fails.append(f"{label} returns {value!r} for {ordering}, which has no bound")
        elif abs(value - exact) > 1e-6 * exact:
            fails.append(f"{label} returns {value!r} for {ordering}, exact {exact!r}")
    return fails


def expected_order_minimum(q):
    """(value, ordering) minimizing the stepwise value over all orderings."""
    n = q.shape[0]
    best = min(permutations(range(1, n + 1)), key=lambda o: stepwise_value(q, o))
    return stepwise_value(q, best), best


# ---------------------------------------------------------------- bounds


def sld_and_t(q, u):
    """C_S = Tr Q^-1 and T = ||Q^-1 U Q^-1||_1 / C_S (unit weights)."""
    qinv = np.linalg.inv(q)
    c_s = float(np.trace(qinv))
    t = float(np.sum(np.linalg.svd(qinv @ u @ qinv, compute_uv=False))) / c_s
    return c_s, t


def check_sandwich(q, u, c_h):
    """C_S - tol <= C_H <= (1 + T) C_S + tol, with tol for the SDP and for cond(Q)."""
    c_s, t = sld_and_t(q, u)
    high = (1.0 + t) * c_s
    tol = 1e-5 * high + order_tolerance(q) * high
    if not c_s - tol <= c_h <= high + tol:
        return [f"C_H {c_h!r} outside [C_S, (1+T) C_S] = [{c_s!r}, {high!r}]"]
    return []


def check_scatter_row(q, u, c_h, c_sep_min, best_ordering):
    """Failures of one scatter row, given the independently computed (Q, U)."""
    fails = check_sandwich(q, u, c_h)
    rtol = order_tolerance(q)
    exact, _ = expected_order_minimum(q)
    if abs(c_sep_min - exact) > rtol * exact:
        fails.append(f"c_sep_min {c_sep_min!r} != minimum {exact!r} over the orderings")
    if best_ordering is None:
        fails.append("no best ordering")
    else:
        attained = stepwise_value(q, best_ordering)
        if attained > exact * (1.0 + rtol):
            fails.append(f"ordering {best_ordering} gives {attained!r} > minimum {exact!r}")
    return fails


def check_qubit_row(row, q, u):
    """Pure-qubit identities of one qubit-sweep row against (Q, U) from derivatives."""
    fails = []
    rtol = order_tolerance(q)
    det_q = float(np.linalg.det(q))
    if abs(row["R"] - 1.0) > 1e-8:
        fails.append(f"R = {row['R']!r}, not 1")
    if abs(det_q - u[0, 1] ** 2) > 1e-8 * det_q:
        fails.append(f"det Q = {det_q!r} but U_12^2 = {u[0, 1] ** 2!r}")
    qinv = np.linalg.inv(q)
    c_h = float(np.trace(qinv) + 2.0 * np.sqrt(np.linalg.det(qinv)))
    q11, q22 = q[0, 0], q[1, 1]
    closed = {
        "c_s": float(np.trace(qinv)),
        "c_h": c_h,
        "c_t": c_h,
        "c_sep_12": float((np.sqrt(q22 / det_q) + np.sqrt(1.0 / q22)) ** 2),
        "c_sep_21": float((np.sqrt(q11 / det_q) + np.sqrt(1.0 / q11)) ** 2),
    }
    for key, want in closed.items():
        if abs(row[key] - want) > (1e-9 + rtol) * want:
            fails.append(f"{key} = {row[key]!r}, closed form {want!r}")
    if min(row["c_sep_12"], row["c_sep_21"]) > row["c_h"] * (1.0 + 1e-9 + rtol):
        fails.append("min(c_sep_12, c_sep_21) exceeds C_H")
    return fails


def check_probe(b, theta, t, probe):
    """||U|| <= 1e-6 and ||Q - diag(4t^2, 16 sin^2(Bt/2))|| <= 1e-4."""
    q, u = qutrit2_qu(b, theta, t, np.asarray(probe))
    target = np.diag([4.0 * t**2, 16.0 * np.sin(b * t / 2.0) ** 2])
    fails = []
    if np.linalg.norm(u) > 1e-6:
        fails.append(f"||U|| = {np.linalg.norm(u):.3e}")
    if np.linalg.norm(q - target) > 1e-4:
        fails.append(f"||Q - Q*|| = {np.linalg.norm(q - target):.3e}")
    return fails
