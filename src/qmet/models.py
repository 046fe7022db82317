"""Pure-state parametric models and their information matrices.

A model is one function mapping a real parameter vector to a normalized
state vector and its analytic parameter derivatives.  From these one Gram
product builds the two matrices every bound in this package consumes:

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
package's one pivot rule.  Every probe, Bloch or state vector, passes one
rule, :func:`_unit`: a vector with a non-finite entry or of norm below
ZERO_NORM is rejected with ValueError, and any other is divided by its norm
(after dividing by its largest magnitude when the norm overflows).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Pauli matrices
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# spin-1 generators in the |m = 1, 0, -1> basis
_J1X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
_J1Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2.0)
_J1Z = np.diag([1.0, 0.0, -1.0]).astype(complex)

ZERO_NORM = 1e-12  # state and Bloch vectors of smaller norm are rejected


def spin_one_operators():
    """(Jx, Jy, Jz) for a qutrit in the |m=1,0,-1> basis."""
    return _J1X.copy(), _J1Y.copy(), _J1Z.copy()


def _unit(v, name):
    """``v / ||v||``; ValueError when ||v|| is below ZERO_NORM or not finite.

    A finite ``v`` whose norm overflows is divided by max|v| first; any other
    ``v`` takes the plain norm, so its result keeps its bytes.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if norm == np.inf and np.isfinite(v).all():
        v = v / np.max(np.abs(v))
        norm = np.linalg.norm(v)
    if not ZERO_NORM <= norm < np.inf:  # NaN compares False
        raise ValueError(f"{name} has (near-)zero norm or is not finite")
    return v / norm


def bloch_to_state(r):
    """Unit qubit state vector with Bloch vector ``r`` (normalized on input)."""
    x, y, z = _unit(np.asarray(r, dtype=float), "Bloch vector")
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
    )


def normalize_state(psi, dim):
    """The unit vector of ``psi``, which must have ``dim`` entries."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != dim:
        raise ValueError(f"expected a state of dimension {dim}, got {psi.size}")
    return _unit(psi, "state vector")


def geometry_vectors(B, theta, t):
    """Direction triple (n_theta, n_1, n_2 = n_theta x n_1) of the planar model."""
    c, s = np.cos(B * t / 2.0), np.sin(B * t / 2.0)
    n_theta = np.array([np.cos(theta), 0.0, np.sin(theta)])
    n_1 = np.array([c * np.sin(theta), -s, -c * np.cos(theta)])
    n_2 = np.array([s * np.sin(theta), c, -s * np.cos(theta)])
    return n_theta, n_1, n_2


@dataclass(frozen=True)
class ModelEvaluation:
    """QFIM and mean Uhlmann curvature at one parameter point."""

    q: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class PureStateModel:
    """A pure-state model as one function ``fn(p) -> (psi, [d_psi/d_p_k for each k])``.

    ``psi`` must be a unit vector; :meth:`derivatives` checks that and
    returns both as complex arrays.
    """

    fn: Callable[[np.ndarray], tuple]

    def derivatives(self, p):
        """Return (psi, [d_psi/d_p_k for each k]); ValueError if psi is not normalized."""
        psi, dpsi = self.fn(np.asarray(p, dtype=float))
        psi = np.asarray(psi, dtype=complex)
        if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
            raise ValueError("model returned a non-normalized state")
        return psi, [np.asarray(d, dtype=complex) for d in dpsi]


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


def eval_qubit2(B, theta, t, bloch):
    """Closed-form Q and U of the two-parameter qubit model.

    Q_BB = t^2 [1 - (n_theta . r)^2],
    Q_tt = 4 sin^2(Bt/2) [1 - (n_1 . r)^2],
    Q_Bt = 2 t sin(Bt/2) (n_1 . r)(n_theta . r),
    U_Bt = -2 t sin(Bt/2) (n_2 . r).
    """
    r = _unit(np.asarray(bloch, dtype=float), "Bloch vector")
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
    """Q and U of the two-parameter qutrit model.

    Both come from :func:`qutrit2_model`'s analytic state derivatives and
    equal the closed forms

    Q_BB = 4 t^2 Var(J_ntheta),
    Q_tt = 16 sin^2(Bt/2) Var(J_n1),
    Q_Bt = -4 t sin(Bt/2) (<{J_n1, J_ntheta}> - 2 <J_n1><J_ntheta>),
    U_Bt = -4 t sin(Bt/2) <J_n2>,
    all expectations taken in the probe state.
    """
    return eval_generic(qutrit2_model(probe, t), [B, theta])


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


def qubit2_model(bloch, t):
    """Two-parameter qubit model psi(B, theta) = exp(-i H t) psi0 with analytic derivatives."""
    psi0 = bloch_to_state(bloch)
    sig = np.stack([_SX, _SY, _SZ])

    def fn(p):
        B, theta = p
        a = B * t
        c, s = np.cos(a / 2.0), np.sin(a / 2.0)
        ct, st = np.cos(theta), np.sin(theta)
        n = np.array([ct, 0.0, st])
        dn = np.array([-st, 0.0, ct])
        sig_n = np.tensordot(n, sig, axes=1)
        sig_dn = np.tensordot(dn, sig, axes=1)
        u = c * np.eye(2) - 1j * s * sig_n
        du_dB = t * (-0.5 * s * np.eye(2) - 0.5j * c * sig_n)
        du_dth = -1j * s * sig_dn
        return u @ psi0, [du_dB @ psi0, du_dth @ psi0]

    return PureStateModel(fn)


def _spin1_model(psi0, t, directions):
    """Qutrit model psi(p) = exp(-i p_0 t J_n) psi0 with analytic derivatives.

    ``directions(p)`` returns the unit field direction n and its derivatives
    with respect to p_1, p_2, ...  Since J_n^3 = J_n for spin 1,
    exp(-i a J_n) = I - i sin(a) J_n + (cos(a) - 1) J_n^2.
    """
    j = np.stack(spin_one_operators())

    def fn(p):
        a = p[0] * t
        sin_a, cos_a = np.sin(a), np.cos(a)
        n, dns = directions(p)
        jn = np.tensordot(n, j, axes=1)
        jn2 = jn @ jn
        u = np.eye(3, dtype=complex) - 1j * sin_a * jn + (cos_a - 1.0) * jn2
        du_dB = t * (-1j * cos_a * jn - sin_a * jn2)
        derivs = [du_dB @ psi0]
        for dn in dns:
            jdn = np.tensordot(dn, j, axes=1)
            du = -1j * sin_a * jdn + (cos_a - 1.0) * (jdn @ jn + jn @ jdn)
            derivs.append(du @ psi0)
        return u @ psi0, derivs

    return PureStateModel(fn)


def qutrit2_model(probe, t):
    """Two-parameter qutrit model (B, theta) with analytic derivatives."""

    def directions(p):
        ct, st = np.cos(p[1]), np.sin(p[1])
        return np.array([ct, 0.0, st]), [np.array([-st, 0.0, ct])]

    return _spin1_model(normalize_state(probe, 3), t, directions)


def qutrit3_model(probe, t):
    """Three-parameter qutrit model (B, theta, phi) with analytic derivatives."""

    def directions(p):
        _, theta, phi = p
        ct, st = np.cos(theta), np.sin(theta)
        cp, sp = np.cos(phi), np.sin(phi)
        n = np.array([ct * cp, ct * sp, st])
        d_theta = np.array([-st * cp, -st * sp, ct])
        d_phi = np.array([-ct * sp, ct * cp, 0.0])
        return n, [d_theta, d_phi]

    return _spin1_model(normalize_state(probe, 3), t, directions)


def density_and_derivatives(model, p):
    """(rho, [d_rho]) for a pure model: d_rho = |d_psi><psi| + |psi><d_psi|."""
    psi, dpsi = model.derivatives(p)
    rho = np.outer(psi, psi.conj())
    drho = [np.outer(d, psi.conj()) + np.outer(psi, d.conj()) for d in dpsi]
    return rho, drho
