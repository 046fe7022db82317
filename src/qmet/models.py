"""Pure-state parametric models and their information matrices.

A model maps a real parameter vector to a normalized state vector.  From
the state and its derivatives one Gram product builds the two matrices
every bound in this package consumes:

* the quantum Fisher information matrix
  ``Q_uv = 4 Re(<d_u psi|d_v psi> - <d_u psi|psi><psi|d_v psi>)``,
* the mean Uhlmann curvature
  ``U_uv = 4 Im(<d_u psi|d_v psi> - <d_u psi|psi><psi|d_v psi>)``,

both gauge invariant under a global phase of the state.

The module ships three built-in SU(2) unitary-encoding models: a qubit and
a qutrit probe under ``H = B (cos(theta) Jx + sin(theta) Jz)`` estimating
(B, theta), whose (Q, U) have closed forms in the probe's spin
expectations, and a qutrit probe under the full three-direction field
estimating (B, theta, phi), whose (Q, U) come from analytic state
derivatives through the same Gram product as any other model.  Evolution
time ``t`` is a known constant of the model.  Parameter ordering is
(B, theta, phi) throughout.

Evaluators return Q as computed, singular or not; a caller that must
reject a degenerate model calls ``linalg.qfim(ev.q)``, which applies the
package's one pivot rule.  :func:`hermitian_operator_basis` is the
generalized Gell-Mann basis used by the Holevo SDP.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

DEFAULT_STEP = 1e-5

# spin-1/2 generators J_i = sigma_i / 2
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# spin-1 generators in the |m = 1, 0, -1> basis
_J1X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
_J1Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2.0)
_J1Z = np.diag([1.0, 0.0, -1.0]).astype(complex)


def spin_half_operators():
    """(Jx, Jy, Jz) for a qubit, i.e. the Pauli matrices over two."""
    return 0.5 * _SX, 0.5 * _SY, 0.5 * _SZ


def spin_one_operators():
    """(Jx, Jy, Jz) for a qutrit in the |m=1,0,-1> basis."""
    return _J1X.copy(), _J1Y.copy(), _J1Z.copy()


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


def bloch_to_state(r):
    """Unit qubit state vector with Bloch vector ``r`` (normalized on input)."""
    r = np.asarray(r, dtype=float)
    norm = np.linalg.norm(r)
    if norm == 0:
        raise ValueError("Bloch vector must be nonzero")
    x, y, z = r / norm
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
    )


def state_to_bloch(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.array(
        [np.real(np.vdot(psi, s @ psi)) for s in (_SX, _SY, _SZ)], dtype=float
    )


def qutrit_coherence(psi):
    """Coefficients r_i = Tr[|psi><psi| b_i] in the normalized Gell-Mann basis.

    Not a Bloch vector: for pure states |r|^2 = 1 and r_9 = 1/sqrt(3).
    """
    psi = normalize_state(psi, 3)
    return np.array(
        [np.real(np.vdot(psi, b @ psi)) for b in gell_mann_basis()], dtype=float
    )


def normalize_state(psi, dim=None):
    psi = np.asarray(psi, dtype=complex).ravel()
    if dim is not None and psi.size != dim:
        raise ValueError(f"expected a state of dimension {dim}, got {psi.size}")
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        raise ValueError("state vector has (near-)zero norm")
    return psi / norm


def geometry_vectors(B, theta, t):
    """Direction triple (n_theta, n_1, n_2 = n_theta x n_1) of the planar model."""
    c, s = np.cos(B * t / 2.0), np.sin(B * t / 2.0)
    n_theta = np.array([np.cos(theta), 0.0, np.sin(theta)])
    n_1 = np.array([c * np.sin(theta), -s, -c * np.cos(theta)])
    n_2 = np.array([s * np.sin(theta), c, -s * np.cos(theta)])
    return n_theta, n_1, n_2


def geometry_vectors3(B, theta, phi, t):
    """Direction triple of the three-parameter model (field spanning all directions)."""
    c, s = np.cos(B * t / 2.0), np.sin(B * t / 2.0)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    n_theta = np.array([ct * cp, ct * sp, st])
    n_1 = np.array([s * sp + c * st * cp, -s * cp + c * st * sp, -c * ct])
    n_2 = np.array([c * sp - s * st * cp, -c * cp - s * st * sp, s * ct])
    return n_theta, n_1, n_2


@dataclass(frozen=True)
class ModelEvaluation:
    """QFIM and mean Uhlmann curvature at one parameter point."""

    q: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class PureStateModel:
    """A map from a parameter vector to a normalized pure state.

    ``state_fn(p) -> complex ndarray`` must return unit vectors.  When
    ``deriv_fn`` is None, derivatives are taken by phase-aligned central
    differences with per-coordinate step ``step * max(1, |p_k|)``: each
    displaced state is rotated so its overlap with the central state is
    real positive before differencing, which removes gauge contamination
    from discontinuous phase conventions in ``state_fn``.
    """

    dim: int
    n_params: int
    state_fn: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Callable[[np.ndarray], list] | None = None
    step: float = DEFAULT_STEP

    def state(self, p):
        psi = np.asarray(self.state_fn(np.asarray(p, dtype=float)), dtype=complex)
        if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
            raise ValueError("state_fn returned a non-normalized vector")
        return psi

    def derivatives(self, p):
        """Return (psi, [d_psi/d_p_k for each k])."""
        p = np.asarray(p, dtype=float)
        psi = self.state(p)
        if self.deriv_fn is not None:
            return psi, [np.asarray(d, dtype=complex) for d in self.deriv_fn(p)]

        def aligned(q):
            phi = self.state(q)
            ov = np.vdot(psi, phi)
            if abs(ov) < 1e-12:
                return phi
            return phi * (np.conj(ov) / abs(ov))

        derivs = []
        for k in range(self.n_params):
            h = self.step * max(1.0, abs(p[k]))
            e = np.zeros_like(p)
            e[k] = h
            derivs.append((aligned(p + e) - aligned(p - e)) / (2.0 * h))
        return psi, derivs

    def numeric(self):
        """Copy of this model that differentiates by central differences."""
        return replace(self, deriv_fn=None)


def qfim_muc_from_derivatives(psi, dpsi):
    """(Q, U) = 4 (Re G, Im G) from a state and its parameter derivatives.

    With the derivatives as the rows of D and o = conj(D) psi, the gauge
    invariant Gram matrix is ``G = conj(D) D^T - o o^H``.
    """
    d = np.asarray(dpsi, dtype=complex)
    d_bar = d.conj()
    o = d_bar @ psi
    g = d_bar @ d.T - np.outer(o, o.conj())
    q = 4.0 * np.real(g)
    u = 4.0 * np.imag(g)
    return 0.5 * (q + q.T), 0.5 * (u - u.T)


def eval_generic(model, p):
    """Evaluate Q and U of any pure-state model from its state derivatives.

    Degeneracy is the caller's concern (a constant model legitimately
    returns Q = U = 0); ``qfim(ev.q)`` rejects a singular Q under the
    package's pivot rule.
    """
    psi, dpsi = model.derivatives(p)
    q, u = qfim_muc_from_derivatives(psi, dpsi)
    return ModelEvaluation(q=q, u=u)


def _expect(psi, op):
    return float(np.real(np.vdot(psi, op @ psi)))


def _variance(psi, op):
    return _expect(psi, op @ op) - _expect(psi, op) ** 2


def _covariance(psi, a, b):
    """<{A, B}> - 2 <A><B> in the given state."""
    return _expect(psi, a @ b + b @ a) - 2.0 * _expect(psi, a) * _expect(psi, b)


def eval_qubit2(B, theta, t, bloch):
    """Closed-form Q and U of the two-parameter qubit model.

    Q_BB = t^2 [1 - (n_theta . r)^2],
    Q_tt = 4 sin^2(Bt/2) [1 - (n_1 . r)^2],
    Q_Bt = 2 t sin(Bt/2) (n_1 . r)(n_theta . r),
    U_Bt = -2 t sin(Bt/2) (n_2 . r).
    """
    r = np.asarray(bloch, dtype=float)
    norm = np.linalg.norm(r)
    if norm < 1e-12:
        raise ValueError("Bloch vector must be nonzero")
    r = r / norm
    n_theta, n_1, n_2 = geometry_vectors(B, theta, t)
    a, b, g = n_theta @ r, n_1 @ r, n_2 @ r
    s = np.sin(B * t / 2.0)
    q = np.array(
        [
            [t**2 * (1.0 - a**2), 2.0 * t * s * b * a],
            [2.0 * t * s * b * a, 4.0 * s**2 * (1.0 - b**2)],
        ]
    )
    d = 2.0 * t * s * g
    u = np.array([[0.0, -d], [d, 0.0]])
    return ModelEvaluation(q=q, u=u)


def eval_qutrit2(B, theta, t, probe):
    """Q and U of the two-parameter qutrit model from spin-1 expectations.

    Q_BB = 4 t^2 Var(J_ntheta),
    Q_tt = 16 sin^2(Bt/2) Var(J_n1),
    Q_Bt = -4 t sin(Bt/2) (<{J_n1, J_ntheta}> - 2 <J_n1><J_ntheta>),
    U_Bt = -4 t sin(Bt/2) <J_n2>,
    all expectations taken in the probe state.
    """
    psi = normalize_state(probe, 3)
    n_theta, n_1, n_2 = geometry_vectors(B, theta, t)
    jx, jy, jz = spin_one_operators()
    j = np.stack([jx, jy, jz])
    j_th = np.tensordot(n_theta, j, axes=1)
    j_1 = np.tensordot(n_1, j, axes=1)
    j_2 = np.tensordot(n_2, j, axes=1)
    s = np.sin(B * t / 2.0)
    q = np.array(
        [
            [4.0 * t**2 * _variance(psi, j_th), -4.0 * t * s * _covariance(psi, j_1, j_th)],
            [-4.0 * t * s * _covariance(psi, j_1, j_th), 16.0 * s**2 * _variance(psi, j_1)],
        ]
    )
    d = 4.0 * t * s * _expect(psi, j_2)
    u = np.array([[0.0, -d], [d, 0.0]])
    return ModelEvaluation(q=q, u=u)


def eval_qutrit3(B, theta, phi, t, probe):
    """Q and U of the three-parameter qutrit model.

    Both come from :func:`qutrit3_model`'s analytic state derivatives.  Q
    equals the closed form whose (B, theta) block is the two-parameter
    expression evaluated with the three-parameter direction vectors, plus

    Q_pp = 16 sin^2(Bt/2) cos^2(theta) Var(J_n2),
    Q_Bp = -4 t sin(Bt/2) cos(theta) (<{J_n2, J_ntheta}> - 2 <J_n2><J_ntheta>),
    Q_tp =  8 sin^2(Bt/2) cos(theta) (<{J_n1, J_n2}>  - 2 <J_n1><J_n2>).
    """
    return eval_generic(qutrit3_model(probe, t), [B, theta, phi])


def _qubit_unitary(n, angle):
    sigma_n = np.tensordot(n, np.stack([_SX, _SY, _SZ]), axes=1)
    return np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * sigma_n


def _spin1_unitary(jn, angle):
    # exp(-i a J_n) for spin 1, where J_n^3 = J_n
    return (
        np.eye(3, dtype=complex)
        - 1j * np.sin(angle) * jn
        + (np.cos(angle) - 1.0) * (jn @ jn)
    )


def qubit2_model(bloch, t):
    """Two-parameter qubit model psi(B, theta) = exp(-i H t) psi0 with analytic derivatives."""
    psi0 = bloch_to_state(bloch)
    sig = np.stack([_SX, _SY, _SZ])

    def n_of(theta):
        return np.array([np.cos(theta), 0.0, np.sin(theta)])

    def state_fn(p):
        B, theta = p
        return _qubit_unitary(n_of(theta), B * t) @ psi0

    def deriv_fn(p):
        B, theta = p
        a = B * t
        n = n_of(theta)
        dn = np.array([-np.sin(theta), 0.0, np.cos(theta)])
        sig_n = np.tensordot(n, sig, axes=1)
        sig_dn = np.tensordot(dn, sig, axes=1)
        du_dB = t * (
            -0.5 * np.sin(a / 2.0) * np.eye(2) - 0.5j * np.cos(a / 2.0) * sig_n
        )
        du_dth = -1j * np.sin(a / 2.0) * sig_dn
        return [du_dB @ psi0, du_dth @ psi0]

    return PureStateModel(dim=2, n_params=2, state_fn=state_fn, deriv_fn=deriv_fn)


def _spin1_model(psi0, t, n_of, dn_of, param_count):
    """Shared builder for the qutrit models: analytic d(exp(-i a J_n)) via J_n^3 = J_n."""
    jx, jy, jz = spin_one_operators()
    j = np.stack([jx, jy, jz])

    def state_fn(p):
        a = p[0] * t
        jn = np.tensordot(n_of(p), j, axes=1)
        return _spin1_unitary(jn, a) @ psi0

    def deriv_fn(p):
        a = p[0] * t
        sin_a, cos_a = np.sin(a), np.cos(a)
        jn = np.tensordot(n_of(p), j, axes=1)
        du_dB = t * (-1j * cos_a * jn - sin_a * (jn @ jn))
        derivs = [du_dB @ psi0]
        for dn in dn_of(p):
            jdn = np.tensordot(dn, j, axes=1)
            du = -1j * sin_a * jdn + (cos_a - 1.0) * (jdn @ jn + jn @ jdn)
            derivs.append(du @ psi0)
        return derivs

    return PureStateModel(
        dim=3, n_params=param_count, state_fn=state_fn, deriv_fn=deriv_fn
    )


def qutrit2_model(probe, t):
    """Two-parameter qutrit model with analytic derivatives."""
    psi0 = normalize_state(probe, 3)

    def n_of(p):
        return np.array([np.cos(p[1]), 0.0, np.sin(p[1])])

    def dn_of(p):
        return [np.array([-np.sin(p[1]), 0.0, np.cos(p[1])])]

    return _spin1_model(psi0, t, n_of, dn_of, 2)


def qutrit3_model(probe, t):
    """Three-parameter qutrit model (B, theta, phi) with analytic derivatives."""
    psi0 = normalize_state(probe, 3)

    def n_of(p):
        _, theta, phi = p
        return np.array(
            [
                np.cos(theta) * np.cos(phi),
                np.cos(theta) * np.sin(phi),
                np.sin(theta),
            ]
        )

    def dn_of(p):
        _, theta, phi = p
        d_theta = np.array(
            [
                -np.sin(theta) * np.cos(phi),
                -np.sin(theta) * np.sin(phi),
                np.cos(theta),
            ]
        )
        d_phi = np.array(
            [-np.cos(theta) * np.sin(phi), np.cos(theta) * np.cos(phi), 0.0]
        )
        return [d_theta, d_phi]

    return _spin1_model(psi0, t, n_of, dn_of, 3)


def density_and_derivatives(model, p):
    """(rho, [d_rho]) for a pure model: d_rho = |d_psi><psi| + |psi><d_psi|."""
    psi, dpsi = model.derivatives(p)
    rho = np.outer(psi, psi.conj())
    drho = [np.outer(d, psi.conj()) + np.outer(psi, d.conj()) for d in dpsi]
    return rho, drho
