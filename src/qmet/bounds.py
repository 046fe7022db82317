"""Scalar precision bounds built from (Q, U) and a weight matrix W.

All bounds are per probe: callers divide by the number of repetitions
themselves.  The chain

    C_S <= C_H <= (1 + T) C_S <= (1 + R) C_S <= 2 C_S

holds for every pure model with invertible Q, where the quantumness
measures are R = ||i Q^-1 U||_inf and
T(W) = ||sqrt(W) Q^-1 U Q^-1 sqrt(W)||_1 / Tr[W Q^-1].

For two-parameter pure qubit models det Q = det U and the Holevo bound
collapses to the closed form Tr[W Q^-1] + 2 sqrt(det[W Q^-1]).

The threshold predicates compare the stepwise bound estimated first-to-
second against C_S, C_T or C_R through an equivalent condition on the
sloppiness s = 1/det Q; each verdict carries both the algebraic test and
the direct numerical comparison so disagreements are visible.

Every function here that takes a QFIM starts from :func:`linalg.qfim`
(``t2_closed``, which needs no factor, from :func:`linalg.qfim_matrix`), so
a :class:`linalg.Qfim` passed in is validated and factored only once, by
whoever built it, and gives the same results as the matrix it came from.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotApplicable, SingularQfim
from .linalg import nuclear_norm, pivot_determinant, pivot_product, qfim, qfim_matrix
from .stepwise import csep_ordered

COMPARE_RTOL = 1e-9
PURE_QUBIT_RTOL = 1e-8


@dataclass(frozen=True)
class BoundReport:
    """All scalar bounds of one model evaluation under one weight matrix."""

    c_s: float
    c_t: float
    c_r: float
    c_h_closed: float | None
    sloppiness: float
    quantumness_r: float
    quantumness_t: float
    weight: np.ndarray
    t3_unnormalized: float | None = None

    def to_json(self):
        out = {
            "c_s": self.c_s,
            "c_t": self.c_t,
            "c_r": self.c_r,
            "c_h": self.c_h_closed,
            "R": self.quantumness_r,
            "T": self.quantumness_t,
            "s": self.sloppiness,
        }
        if self.t3_unnormalized is not None:
            out["t3_unnormalized"] = self.t3_unnormalized
        return out


@dataclass(frozen=True)
class ThresholdVerdict:
    """Algebraic sloppiness-threshold test next to the direct bound comparison.

    ``predicate_holds`` evaluates s >= threshold_value; ``direct_comparison``
    checks C_sep(1->2) <= target directly.  ``diagnostic_threshold`` carries
    the alternative closed form of the C_S condition, whose value differs
    from the primary one away from the constraint surface even though both
    predicates agree on actual (Q, U) pairs.
    """

    predicate_holds: bool
    threshold_value: float
    direct_comparison: bool
    diagnostic_threshold: float | None = None

    @property
    def consistent(self):
        return self.predicate_holds == self.direct_comparison


def weight_matrix(w, n):
    """Normalize a weight spec (None, diagonal vector, or full matrix) to n x n."""
    if w is None:
        return np.eye(n)
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if w.ndim == 1:
        if w.shape != (n,):
            raise ValueError(f"expected {n} diagonal weights, got {w.shape}")
        if not (w > 0).all():
            raise ValueError("weights must be positive")
        return np.diag(w)
    if w.shape != (n, n):
        raise ValueError(f"weight matrix shape {w.shape} does not match n = {n}")
    if np.any(np.linalg.eigvalsh(0.5 * (w + w.T)) <= 0):
        raise ValueError("weight matrix must be positive definite")
    return 0.5 * (w + w.T)


def c_sld(q, w=None):
    """SLD quantum Cramer-Rao bound Tr[W Q^-1]."""
    qf = qfim(q)
    return float(np.trace(weight_matrix(w, qf.n) @ qf.inverse))


def quantumness_R(q, u):
    """R = ||i Q^-1 U||_inf, the largest eigenvalue of the similar Hermitian pencil.

    Computed as the spectral norm of L^-1 (iU) L^-T with Q = L L^T, which is
    similar to i Q^-1 U but Hermitian.
    """
    linv = qfim(q).linv
    u = np.asarray(u, dtype=float)
    k = linv @ (1j * u) @ linv.T
    return float(np.max(np.abs(np.linalg.eigvalsh(k))))


def _t_and_c_s(qf, u, wm):
    """T(W) and C_S = Tr[W Q^-1] of a Qfim, from its one inverse and one weight matrix."""
    qinv = qf.inverse
    evals, evecs = np.linalg.eigh(wm)
    sqrt_w = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    inner = sqrt_w @ qinv @ np.asarray(u, dtype=float) @ qinv @ sqrt_w
    c_s = float(np.trace(wm @ qinv))
    return nuclear_norm(inner) / c_s, c_s


def quantumness_T(q, u, w=None):
    """T(W) = ||sqrt(W) Q^-1 U Q^-1 sqrt(W)||_1 / Tr[W Q^-1]."""
    qf = qfim(q)
    return _t_and_c_s(qf, u, weight_matrix(w, qf.n))[0]


def r2_closed(q, u):
    """Two-parameter closed form sqrt(det U / det Q) = |U_12| / sqrt(det Q)."""
    root_det_q = pivot_product(qfim(q).L)
    u = np.asarray(u, dtype=float)
    return float(abs(u[0, 1]) / root_det_q)


def t2_closed(q, u, omega=1.0):
    """Two-parameter closed form 2 sqrt(omega det U) / (Q22 + omega Q11)."""
    q = qfim_matrix(q)  # needs no factor
    u = np.asarray(u, dtype=float)
    det_u = u[0, 1] ** 2
    return float(2.0 * np.sqrt(omega * det_u) / (q[1, 1] + omega * q[0, 0]))


def axial_vector(u):
    """u = (U_23, -U_13, U_12) of a 3 x 3 antisymmetric matrix."""
    u = np.asarray(u, dtype=float)
    return np.array([u[1, 2], -u[0, 2], u[0, 1]])


def r3_closed(q, u):
    """Three-parameter closed form sqrt(u^T Q u / det Q)."""
    qf = qfim(q)
    v = axial_vector(u)
    return float(np.sqrt(v @ qf.q @ v) / pivot_product(qf.L))


def t3_unnormalized_value(q, u, w=None):
    """Three-parameter closed form 2 sqrt(u^T Q W~ Q u) / det Q.

    W~ = diag(w2 w3, w1 w3, w1 w2) for W = diag(w1, w2, w3).  This equals
    the nuclear-norm numerator of T(W), i.e. T(W) times Tr[W Q^-1]: it is
    sometimes quoted as "T_3" directly, but that convention violates
    T <= R (take Q = W = I with |u| = 1), so it is reported as a separate
    diagnostic value and never used as T.
    """
    qf = qfim(q)
    wm = weight_matrix(w, 3)
    wd = np.diag(wm)
    if not np.allclose(wm, np.diag(wd)):
        raise ValueError("the printed three-parameter form needs a diagonal weight")
    w_tilde = np.diag([wd[1] * wd[2], wd[0] * wd[2], wd[0] * wd[1]])
    root_det_q = pivot_product(qf.L)
    v = axial_vector(u)
    return float(2.0 * np.sqrt(v @ qf.q @ w_tilde @ qf.q @ v) / root_det_q / root_det_q)


def c_t(q, u, w=None):
    """(1 + T(W)) C_S."""
    qf = qfim(q)
    t_val, c_s = _t_and_c_s(qf, u, weight_matrix(w, qf.n))
    return (1.0 + t_val) * c_s


def c_r(q, u, w=None):
    """(1 + R) C_S."""
    qf = qfim(q)
    return (1.0 + quantumness_R(qf, u)) * c_sld(qf, w)


def is_pure_qubit_pair(q, u, rtol=PURE_QUBIT_RTOL):
    """True when (Q, U) satisfies the pure-qubit identity det Q = U_12^2.

    False for a Q that is singular under the pivot rule or not 2 x 2.
    """
    try:
        qf = qfim(q)
    except SingularQfim:
        return False
    if qf.n != 2:
        return False
    det_q = pivot_determinant(qf.L)
    u12_sq = float(np.asarray(u, dtype=float)[0, 1]) ** 2
    return abs(det_q - u12_sq) <= rtol * max(det_q, u12_sq)


def c_holevo_qubit_pure(q, w=None, u=None):
    """Closed-form Holevo bound Tr[W Q^-1] + 2 sqrt(det[W Q^-1]).

    Valid for two-parameter pure qubit models, where it equals (1 + T) C_S.
    When ``u`` is supplied the pure-qubit certificate det Q = U_12^2 is
    checked and NotApplicable raised on failure.
    """
    qf = qfim(q)
    if qf.n != 2:
        raise NotApplicable("closed form requires a two-parameter model")
    if u is not None and not is_pure_qubit_pair(qf, u):
        raise NotApplicable("det Q = U_12^2 does not hold: not a pure qubit model")
    wq = weight_matrix(w, 2) @ qf.inverse
    det_wq = float(np.linalg.det(wq))
    if det_wq < 0:
        raise SingularQfim("det[W Q^-1] < 0")
    return float(np.trace(wq) + 2.0 * np.sqrt(det_wq))


def sloppiness(q):
    """s = 1 / det Q; +inf when Q is singular under the pivot rule or det Q underflows."""
    try:
        det_q = pivot_determinant(qfim(q).L)
    except SingularQfim:
        return np.inf
    return 1.0 / det_q if det_q > 0.0 else np.inf


def threshold_csep_vs(target, q, u):
    """Does C_sep(1->2) beat the target bound?  Algebraic and direct answers.

    ``target`` is one of "c_s", "c_t", "c_r".  The algebraic route turns the
    comparison into a sloppiness threshold; thresholds that divide by a
    vanishing Q_12 (or by Q_12^2 + 2 Q_22 |U_12| = 0) become +inf, meaning
    the predicate can never hold.
    """
    qf = qfim(q)
    u = np.asarray(u, dtype=float)
    if qf.n != 2:
        raise ValueError("threshold conditions are defined for n = 2")
    s = sloppiness(qf)
    if not np.isfinite(s):
        raise SingularQfim("det Q underflows to 0")
    q11, q22, q12 = qf.q[0, 0], qf.q[1, 1], qf.q[0, 1]
    u12 = abs(u[0, 1])
    with np.errstate(divide="ignore", over="ignore"):
        # 4 Q_22^2 / x^2 is +inf once x^2 underflows, its limit as x -> 0
        c_s_threshold = 4.0 * q22**2 / q12**4
        c_t_threshold = 4.0 * q22**2 / (q12**2 + 2.0 * q22 * u12) ** 2
    diagnostic = None
    if target == "c_s":
        threshold = c_s_threshold
        diagnostic = (1.0 + np.sqrt(1.0 + q11 / q22)) ** 2 / q11**2
        bound = c_sld(qf)
    elif target == "c_t":
        threshold = c_t_threshold
        bound = c_t(qf, u)
    elif target == "c_r":
        a = u12 * (q12**2 + q22**2)
        b = q12**2
        c = u12 - 2.0 * q22
        if a == 0.0:
            # no incompatibility: reduces to the C_S condition
            threshold = c_s_threshold
        elif c >= 0.0:
            threshold = 0.0
        else:
            delta = b**2 - 4.0 * a * c
            threshold = ((np.sqrt(delta) - b) / (2.0 * a)) ** 2
        bound = c_r(qf, u)
    else:
        raise ValueError(f"unknown target {target!r}")
    predicate = bool(s >= threshold * (1.0 - COMPARE_RTOL))
    csep12 = csep_ordered(qf, (1, 2)).value
    direct = bool(csep12 <= bound * (1.0 + COMPARE_RTOL))
    return ThresholdVerdict(
        predicate_holds=predicate,
        threshold_value=float(threshold),
        direct_comparison=direct,
        diagnostic_threshold=diagnostic,
    )


def compute_report(q, u, w=None):
    """Assemble every scalar bound into a BoundReport.

    The Holevo closed form is filled in only when the pure-qubit
    certificate holds; the printed three-parameter T form is attached for
    n = 3 with diagonal weights.
    """
    qf = qfim(q)
    u = np.asarray(u, dtype=float)
    n = qf.n
    wm = weight_matrix(w, n)
    t_val, c_s = _t_and_c_s(qf, u, wm)
    r_val = quantumness_R(qf, u)
    c_h = None
    if n == 2 and is_pure_qubit_pair(qf, u):
        c_h = c_holevo_qubit_pure(qf, wm, u)
    t3 = None
    if n == 3 and np.allclose(wm, np.diag(np.diag(wm))):
        t3 = t3_unnormalized_value(qf, u, wm)
    return BoundReport(
        c_s=c_s,
        c_t=(1.0 + t_val) * c_s,
        c_r=(1.0 + r_val) * c_s,
        c_h_closed=c_h,
        sloppiness=float(sloppiness(qf)),
        quantumness_r=r_val,
        quantumness_t=t_val,
        weight=wm,
        t3_unnormalized=t3,
    )
