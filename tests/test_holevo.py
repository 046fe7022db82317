import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize

from qmet import holevo
from qmet.bounds import c_holevo_qubit_pure, c_sld
from qmet.errors import NotApplicable, SingularQfim, TooManyParameters
from qmet.holevo import holevo_bound, verify_sandwich
from qmet.linalg import spd_inverse
from qmet.models import (
    density_and_derivatives,
    eval_qubit2,
    eval_qutrit2,
    eval_qutrit3,
    geometry_vectors,
    qubit2_model,
    qutrit2_model,
    qutrit3_model,
    spin_one_operators,
)
from qmet.stepwise import best_order_bruteforce, best_order_dp, csep_ordered

from helpers import (
    direct_holevo_min,
    geometry_vectors3,
    holevo_interior_point,
    qubit_instance,
    z_matrix,
)

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def qubit_problem(alpha, beta, B, t, theta=0.0):
    nt, n1, n2 = geometry_vectors(B, theta, t)
    r0 = alpha * nt + beta * n1 + np.sqrt(1.0 - alpha**2 - beta**2) * n2
    model = qubit2_model(r0, t)
    rho, drho = density_and_derivatives(model, [B, theta])
    return rho, drho, eval_qubit2(B, theta, t, r0)


class TestQubitClosedFormAgreement:
    def test_anchor_instance(self):
        rho, drho, ev = qubit_problem(0.0, 0.0, np.pi, 1.0)
        sol = holevo_bound(rho, drho)
        assert sol.status == "converged"
        assert sol.value == pytest.approx(2.25, abs=1e-7)
        assert verify_sandwich(sol, ev.q, ev.u)

    def test_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            alpha, beta, B, t = qubit_instance(rng)
            rho, drho, ev = qubit_problem(alpha, beta, B, t, theta=0.5)
            sol = holevo_bound(rho, drho)
            closed = c_holevo_qubit_pure(ev.q, u=ev.u)
            assert sol.status == "converged"
            assert abs(sol.value - closed) / closed <= 1e-4
            assert verify_sandwich(sol, ev.q, ev.u)

    def test_weighted_instance(self):
        rng = np.random.default_rng(1)
        alpha, beta, B, t = qubit_instance(rng)
        rho, drho, ev = qubit_problem(alpha, beta, B, t)
        w = np.array([1.0, 2.5])
        sol = holevo_bound(rho, drho, w)
        closed = c_holevo_qubit_pure(ev.q, w, ev.u)
        assert abs(sol.value - closed) / closed <= 1e-6


class TestSingleParameter:
    def test_equals_inverse_qfim(self):
        rho, drho, ev = qubit_problem(0.0, 0.0, np.pi, 1.0)
        sol = holevo_bound(rho, [drho[0]])
        assert sol.value == pytest.approx(1.0 / ev.q[0, 0], rel=1e-6)


class TestQutritModels:
    def test_compatible_probe_reaches_sld(self):
        # (|1> - |-1>)/sqrt2 at theta = pi/2: U = 0 and Q = diag(4, 16)
        psi = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        model = qutrit2_model(psi, 1.0)
        rho, drho = density_and_derivatives(model, [np.pi, np.pi / 2.0])
        ev = eval_qutrit2(np.pi, np.pi / 2.0, 1.0, psi)
        assert np.allclose(ev.u, 0.0, atol=1e-12)
        assert np.allclose(ev.q, np.diag([4.0, 16.0]), atol=1e-12)
        sol = holevo_bound(rho, drho)
        assert sol.value == pytest.approx(c_sld(ev.q), rel=1e-6)

    def test_three_parameter_haar_probe(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z /= np.linalg.norm(z)
            model = qutrit3_model(z, 1.0)
            p = [1.0, np.pi / 7.0, np.pi / 5.0]
            rho, drho = density_and_derivatives(model, p)
            sol = holevo_bound(rho, drho)
            ev = eval_qutrit3(*p, 1.0, z)
            assert sol.status == "converged"
            assert verify_sandwich(sol, ev.q, ev.u)


class TestAgainstDirectMinimization:
    """The SDP against the definition-level objective minimized directly."""

    def test_pure_qubit(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            alpha, beta, B, t = qubit_instance(rng)
            rho, drho, _ = qubit_problem(alpha, beta, B, t)
            sol = holevo_bound(rho, drho)
            oracle = direct_holevo_min(rho, drho)
            assert abs(sol.value - oracle) / oracle <= 1e-6

    def test_three_parameter_qutrit(self):
        rng = np.random.default_rng(8)
        for _ in range(2):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z /= np.linalg.norm(z)
            model = qutrit3_model(z, 1.0)
            rho, drho = density_and_derivatives(model, [1.0, np.pi / 7.0, np.pi / 5.0])
            sol = holevo_bound(rho, drho)
            oracle = direct_holevo_min(rho, drho)
            assert abs(sol.value - oracle) / oracle <= 1e-6


def _haar_qutrit3_problem(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    model = qutrit3_model(z / np.linalg.norm(z), 1.0)
    return density_and_derivatives(model, [1.0, np.pi / 7.0, np.pi / 5.0])


def _oracle_only(monkeypatch):
    """Send every solve to the interior-point oracle, on the coordinates the dual solve gets."""
    monkeypatch.setattr(holevo, "_dual", lambda a, b, w: holevo_interior_point(a, b.T, w))


def _assert_certified(sol):
    assert abs(sol.gap) <= 1e-12 * sol.value
    assert sol.constraint_residual <= holevo.CONSTRAINT_TOL


def _count_trust_region(monkeypatch):
    """The list that gets one entry per ``_trust_region`` call from now on."""
    calls = []
    solve = holevo._trust_region
    monkeypatch.setattr(holevo, "_trust_region", lambda c, l: calls.append(1) or solve(c, l))
    return calls


class TestSolverContracts:
    def test_constraint_residuals(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha, beta, B, t = qubit_instance(rng)
            rho, drho, _ = qubit_problem(alpha, beta, B, t)
            sol = holevo_bound(rho, drho)
            assert sol.constraint_residual <= 1e-7
            # re-verify from the reconstructed operator family
            for u_idx, x_u in enumerate(sol.operators):
                assert abs(np.trace(rho @ x_u).real) <= 1e-7
                for v_idx, dr in enumerate(drho):
                    target = 1.0 if u_idx == v_idx else 0.0
                    assert abs(np.trace(dr @ x_u).real - target) <= 1e-7

    def test_weight_homogeneity(self):
        rho, drho, _ = qubit_problem(0.2, 0.3, 1.7, 1.1)
        base = holevo_bound(rho, drho).value
        for c in (0.5, 2.0, 7.0):
            scaled = holevo_bound(rho, drho, c * np.ones(2)).value
            assert abs(scaled - c * base) <= 1e-8 * c * base

    def test_deterministic(self):
        rho, drho, _ = qubit_problem(0.1, -0.4, 2.1, 0.8)
        a = holevo_bound(rho, drho)
        b = holevo_bound(rho, drho)
        assert abs(a.value - b.value) <= 1e-6
        assert a.iterations == b.iterations

    def test_infeasible_model(self):
        # second derivative identically zero: parameter two is invisible, and the
        # QFIM breaks the pivot rule
        rho, drho, _ = qubit_problem(0.0, 0.0, np.pi, 1.0)
        with pytest.raises(SingularQfim):
            holevo_bound(rho, [drho[0], np.zeros((2, 2))])
        # a pure qubit has 2d - 2 = 2 free real directions, so a third parameter
        # leaves Q singular, whatever its derivative
        with pytest.raises(SingularQfim):
            holevo_bound(rho, drho + [0.5j * (drho[0] @ rho - rho @ drho[0]) + drho[1]])

    def test_mixed_state_not_applicable(self):
        # the solver takes pure states only; a rank-2 qubit and a rank-2 qutrit
        # Bloch vectors of the qubit (|r| < 1) and of its two derivatives
        r, d1, d2 = [0.3, -0.2, 0.4], [0.2, 0.1, -0.3], [-0.1, 0.4, 0.2]
        qubit = 0.5 * (np.eye(2) + np.tensordot(r, np.stack(PAULI), axes=1))
        qubit_drho = [0.5 * np.tensordot(d, np.stack(PAULI), axes=1) for d in (d1, d2)]
        for rho, drho in [(qubit, qubit_drho), _mixed_qutrit_problem(14, [0.7, 0.3])]:
            with pytest.raises(NotApplicable):
                holevo_bound(rho, drho)
            # input validation comes first
            with pytest.raises(ValueError, match=r"drho\[1\] must be traceless"):
                holevo_bound(rho, [drho[0], np.eye(len(rho))])
            with pytest.raises(ValueError, match="weights"):
                holevo_bound(rho, drho, [1.0, -1.0])

    def test_input_validation(self):
        rho, drho, _ = qubit_problem(0.0, 0.0, np.pi, 1.0)
        with pytest.raises(ValueError):
            holevo_bound(2.0 * rho, drho)
        with pytest.raises(ValueError):
            holevo_bound(rho, [drho[0], np.eye(2, dtype=complex)])

    def test_validation_names_the_derivative(self):
        rho, drho, _ = qubit_problem(0.0, 0.0, np.pi, 1.0)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match=r"drho\[1\] must be Hermitian"):
            holevo_bound(rho, [drho[0], skew, np.eye(2)])
        with pytest.raises(ValueError, match=r"drho\[1\] must be traceless"):
            holevo_bound(rho, [drho[0], np.eye(2), skew])
        with pytest.raises(ValueError, match="shapes"):
            holevo_bound(rho, [drho[0], np.zeros((3, 3))])

    def test_too_many_parameters(self):
        # the dual rests on the nuclear norm of an antisymmetric n x n matrix with n <= 3
        rho, drho = _random_pure_problem(18, 4, 4)
        with pytest.raises(TooManyParameters):
            holevo_bound(rho, drho)
        # input validation comes first
        with pytest.raises(ValueError, match=r"drho\[3\] must be Hermitian"):
            holevo_bound(rho, drho[:3] + [1j * np.eye(4)])
        with pytest.raises(ValueError):
            holevo_bound(rho, drho, np.ones(3))

    def test_empty_drho(self):
        rho, _, _ = qubit_problem(0.0, 0.0, np.pi, 1.0)
        with pytest.raises(ValueError, match="drho"):
            holevo_bound(rho, [])

    def test_sandwich_rejects_corrupted_value(self):
        rho, drho, ev = qubit_problem(0.0, 0.0, np.pi, 1.0)
        sol = holevo_bound(rho, drho)
        bad = dataclasses.replace(sol, value=3.0 * c_sld(ev.q))
        assert not verify_sandwich(bad, ev.q, ev.u)

    def test_json_shape(self):
        rho, drho, _ = qubit_problem(0.0, 0.0, np.pi, 1.0)
        doc = holevo_bound(rho, drho).to_json()
        assert set(doc) == {"value", "status", "gap", "iterations", "constraint_residual"}

    def test_converged_gap_within_tolerance(self):
        rho, drho, _ = qubit_problem(0.35, 0.1, 1.4, 1.2)
        sol = holevo_bound(rho, drho)
        assert sol.status == "converged"
        assert sol.gap <= 1e-6 * (1.0 + abs(sol.value))

    def test_objective_dominated_by_real_part_plus_nuclear(self):
        # solver optimum matches the Re/Im objective evaluated at its own X
        rng = np.random.default_rng(4)
        alpha, beta, B, t = qubit_instance(rng)
        rho, drho, _ = qubit_problem(alpha, beta, B, t)
        sol = holevo_bound(rho, drho)
        z = z_matrix(rho, sol.operators)
        direct = float(np.trace(z.real) + np.sum(np.abs(np.linalg.eigvalsh(1j * z.imag))))
        assert sol.value == pytest.approx(direct, rel=1e-6, abs=1e-8)

    def test_z_matrix_invariants_at_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            alpha, beta, B, t = qubit_instance(rng)
            rho, drho, ev = qubit_problem(alpha, beta, B, t)
            sol = holevo_bound(rho, drho)
            z = z_matrix(rho, sol.operators)
            assert np.allclose(z, z.conj().T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(z.real)) >= -1e-10
            # Re Z dominates Q^-1 up to solver tolerance
            gap_matrix = z.real - spd_inverse(ev.q)
            assert np.min(np.linalg.eigvalsh(gap_matrix)) >= -1e-6


def _tr_objective(c, l_mat, eta):
    return float(eta @ eta + 2.0 * np.linalg.norm(c + l_mat @ eta))


def _tr_direct_min(c, l_mat):
    """|eta|^2 + 2|c + L eta| at its minimizer, found by BFGS on the smoothed objective
    |eta|^2 + 2 sqrt(|c + L eta|^2 + delta^2) while delta shrinks (the problem is convex)."""
    eta = np.zeros(l_mat.shape[1])
    for delta in (1e-1, 1e-3, 1e-5, 1e-7, 1e-9):

        def smoothed(x, delta=delta):
            r = c + l_mat @ x
            s = np.sqrt(r @ r + delta**2)
            return x @ x + 2.0 * s, 2.0 * x + 2.0 * (l_mat.T @ r) / s

        eta = minimize(smoothed, eta, jac=True, method="BFGS", options={"gtol": 1e-13}).x
    return _tr_objective(c, l_mat, eta)


def _cross(v):
    """The rank-2 cross-product matrix of a 3-vector, the shape L has on a pure qutrit."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


class TestTrustRegion:
    """``_trust_region`` against direct minimization of |eta|^2 + 2|c + L eta|."""

    @pytest.mark.parametrize("shape", [(3, 3), (3, 6), (1, 2), (3, "cross")])
    def test_boundary(self, shape):
        rng = np.random.default_rng(20)
        for _ in range(5):
            k, nf = shape
            c = rng.standard_normal(k)
            if nf == "cross":  # c leaves the range of H = L L^T
                l_mat = _cross(rng.standard_normal(3))
            else:  # c in the range of H, with |H^-1 c| = 3
                l_mat = rng.standard_normal((k, nf))
                c *= 3.0 / np.linalg.norm(np.linalg.solve(l_mat @ l_mat.T, c))
            eta, objective, gap, steps, e = holevo._trust_region(c, l_mat)
            assert steps >= 1
            assert abs(np.linalg.norm(e) - 1.0) <= 1e-13
            np.testing.assert_allclose(eta, -(l_mat.T @ e), rtol=1e-15, atol=1e-15)
            assert objective == pytest.approx(_tr_objective(c, l_mat, eta), rel=1e-14)
            assert abs(gap) <= 1e-13 * objective
            direct = _tr_direct_min(c, l_mat)
            assert objective <= direct + 1e-12 * direct
            assert objective == pytest.approx(direct, rel=1e-7)

    def test_safeguarded_root(self):
        # every |gam_i| <= lam_i, so the root search starts from |c|; its first Newton
        # step leaves the bracket and the safeguard takes over
        c, l_mat = np.array([0.009, 0.9]), np.diag([0.1, 1.0])
        eta, objective, gap, steps, _ = holevo._trust_region(c, l_mat)
        assert steps >= 2
        assert abs(gap) <= 1e-13 * objective
        direct = _tr_direct_min(c, l_mat)
        assert objective <= direct + 1e-12 * direct
        assert objective == pytest.approx(direct, rel=1e-7)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 6), (3, "cross")])
    def test_interior(self, shape):
        # c = L v with |v| small: c + L eta = 0 at eta = -v projected on the row space of L
        rng = np.random.default_rng(22)
        k, nf = shape
        l_mat = _cross(rng.standard_normal(3)) if nf == "cross" else rng.standard_normal((k, nf))
        v = 1e-2 * rng.standard_normal(l_mat.shape[1])
        c = l_mat @ v
        eta, objective, gap, steps, e = holevo._trust_region(c, l_mat)
        assert steps == 0 and np.linalg.norm(e) < 1.0
        np.testing.assert_allclose(eta, -np.linalg.pinv(l_mat) @ c, rtol=1e-10, atol=1e-14)
        assert np.linalg.norm(c + l_mat @ eta) <= 1e-14
        assert objective == pytest.approx(_tr_direct_min(c, l_mat), rel=1e-6)

    def test_zero_c(self):
        l_mat = np.random.default_rng(23).standard_normal((3, 3))
        eta, objective, gap, steps, e = holevo._trust_region(np.zeros(3), l_mat)
        assert not eta.any() and not e.any() and objective == 0.0 and gap == 0.0 and steps == 0

    def test_no_free_directions(self):
        # f = 0, the pure qubit: nothing to minimize over, the minimum is 2|c|
        eta, objective, gap, steps, e = holevo._trust_region(np.array([-0.7]), np.zeros((1, 0)))
        assert eta.shape == (0,) and objective == pytest.approx(1.4, rel=1e-15)
        assert e.tolist() == [-1.0]


def _weighted_objective(rho, operators, w):
    """Tr[W Re Z] + ||sqrt(W) Im Z sqrt(W)||_1 of Z = z_matrix(rho, operators)."""
    z = z_matrix(rho, operators)
    sw = np.sqrt(w)
    im = sw[:, None] * z.imag * sw[None, :]
    return float(w @ np.diag(z.real) + np.sum(np.abs(np.linalg.eigvalsh(1j * im))))


def _qutrit2_problem(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    model = qutrit2_model(z / np.linalg.norm(z), 1.0)
    return density_and_derivatives(model, [1.3, np.pi / 5.0])


def _random_pure_problem(seed, d, n):
    """rho = |psi><psi| of a Haar psi in dimension d with d_k psi = -i H_k psi for
    n Gaussian Hermitian H_k: a pure model with no structure, where Im(B^dag B) != 0."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(2 * d).view(complex)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    drho = []
    for _ in range(n):
        a = rng.standard_normal(2 * d * d).view(complex).reshape(d, d)
        dpsi = -1j * (a + a.conj().T) @ psi
        drho.append(np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj()))
    return rho, drho


def _mixed_qutrit_problem(seed, spectrum):
    rng = np.random.default_rng(seed)
    j = np.stack(spin_one_operators())
    a = rng.standard_normal((3, len(spectrum))) + 1j * rng.standard_normal((3, len(spectrum)))
    v, _ = np.linalg.qr(a)
    rho = v @ np.diag(spectrum) @ v.conj().T
    hams = [np.tensordot(rng.standard_normal(3), j, axes=1) for _ in range(2)]
    return rho, [-1j * (h @ rho - rho @ h) for h in hams]


PSI_EPS_PARAMS = [1.0, np.pi / 7.0, np.pi / 5.0]  # (B, theta, phi), with t = 1


def _psi_eps_probe(eps):
    """psi_0 + eps d: psi_0 the lowest eigenvector of J_n(theta, phi), d a fixed complex
    Gaussian.  As eps falls, Q of the three-parameter qutrit nears singular."""
    n_theta = geometry_vectors3(*PSI_EPS_PARAMS, 1.0)[0]
    psi0 = np.linalg.eigh(np.tensordot(n_theta, np.stack(spin_one_operators()), axes=1))[1][:, 0]
    return psi0 + eps * np.random.default_rng(0).standard_normal(6).view(complex)


def _psi_eps_problem(eps):
    return density_and_derivatives(qutrit3_model(_psi_eps_probe(eps), 1.0), PSI_EPS_PARAMS)


class TestExactPath:
    """The dual solve: exact in one step on isotropic input, Newton steps otherwise."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_interior_point(self, monkeypatch, weighted):
        rng = np.random.default_rng(30)
        problems = [_haar_qutrit3_problem(100 + seed) for seed in range(50)]
        problems += [_qutrit2_problem(300 + seed) for seed in range(10)]
        for d, n in ((4, 2), (4, 3), (5, 3)):
            problems += [_random_pure_problem(400 + 10 * d + n + seed, d, n) for seed in range(5)]
        cases = []
        for rho, drho in problems:
            w = rng.uniform(0.2, 5.0, len(drho)) if weighted else None
            sol = holevo_bound(rho, drho, w)
            assert sol.status == "converged"
            _assert_certified(sol)
            cases.append((rho, drho, w, sol.value))
        _oracle_only(monkeypatch)
        for rho, drho, w, value in cases:
            loop = holevo_bound(rho, drho, w)
            assert loop.status == "converged"
            assert abs(value - loop.value) <= 1e-9 * loop.value

    @pytest.mark.parametrize(
        "problem, isotropic",
        [
            (lambda: _haar_qutrit3_problem(12), True),
            (lambda: qubit_problem(0.2, 0.3, 1.7, 1.1)[:2], True),
            (lambda: _qutrit2_problem(13), False),
            (lambda: _random_pure_problem(14, 4, 3), False),
        ],
        ids=["qutrit3", "pure-qubit", "qutrit2", "pure-d4"],
    )
    def test_path_selection(self, monkeypatch, problem, isotropic):
        # g is quadratic on isotropic input, so its first Newton step is exact and the
        # last; elsewhere the first step is not exact
        calls = _count_trust_region(monkeypatch)
        rho, drho = problem()
        sol = holevo_bound(rho, drho)
        assert sol.status == "converged"
        _assert_certified(sol)
        assert (len(calls) == 1) if isotropic else (len(calls) >= 2)

    def test_operators_attain_value(self):
        rng = np.random.default_rng(31)
        problems = [_haar_qutrit3_problem(200 + seed) for seed in range(10)]
        problems += [qubit_problem(*qubit_instance(rng))[:2] for _ in range(5)]
        for rho, drho in problems:
            for w in (np.ones(len(drho)), rng.uniform(0.2, 5.0, len(drho))):
                sol = holevo_bound(rho, drho, w)
                assert sol.status == "converged"
                assert sol.constraint_residual <= 1e-7
                assert abs(sol.gap) <= 1e-12 * sol.value
                direct = _weighted_objective(rho, sol.operators, w)
                assert abs(sol.value - direct) <= 1e-10 * direct

    def test_single_parameter(self, monkeypatch):
        # n = 1: Im Z vanishes whatever f is, so the bound is min Re Z = 1 / Q, and
        # Q = 2 Tr[(d rho)^2] for a pure state
        calls = _count_trust_region(monkeypatch)
        rho, drho = _haar_qutrit3_problem(16)
        sol = holevo_bound(rho, [drho[0]])
        assert len(calls) == 1 and sol.iterations == 0
        q = 2.0 * np.trace(drho[0] @ drho[0]).real
        assert sol.value == pytest.approx(1.0 / q, rel=1e-10)


class TestNearlyDegenerateProbe:
    """psi_eps rows: C_H, C_S and the stepwise routes agree on whether the bound exists.

    Each applies the package's one pivot rule, C_H to the QR pivots of its
    realified derivatives and the rest to the Cholesky pivots of Q, so all
    five return a value through eps = 1e-6 and raise SingularQfim from 1e-7.
    """

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6])
    def test_certified(self, eps):
        sol = holevo_bound(*_psi_eps_problem(eps))
        assert sol.status == "converged"
        _assert_certified(sol)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_routes_agree(self, eps):
        rho, drho = _psi_eps_problem(eps)
        q = eval_qutrit3(*PSI_EPS_PARAMS, 1.0, _psi_eps_probe(eps)).q
        routes = {
            "holevo_bound": lambda: holevo_bound(rho, drho),
            "c_sld": lambda: c_sld(q),
            "best_order_dp": lambda: best_order_dp(q),
            "best_order_bruteforce": lambda: best_order_bruteforce(q),
            "csep_ordered": lambda: csep_ordered(q),
        }
        exists = {}
        for name, call in routes.items():
            try:
                call()
                exists[name] = True
            except SingularQfim:
                exists[name] = False
        assert set(exists.values()) == {eps >= 1e-6}, exists


class TestLoopStatus:
    def test_early_exit_is_stalled(self, monkeypatch):
        # from the second step on, the Newton step returns the point the first step
        # reached, so it raises g by no fraction and the solve stops uncertified
        solve = holevo._trust_region
        reached = []

        def stuck(c, l_mat):
            out = solve(c, l_mat)
            reached.append(out[4])
            return out[:4] + (reached[0],)

        monkeypatch.setattr(holevo, "_trust_region", stuck)
        rho, drho = _qutrit2_problem(17)
        sol = holevo_bound(rho, drho)
        assert sol.status == "stalled"
        assert len(reached) == 2
        assert sol.gap > 1e-12 * sol.value

    def test_exhausted_budget_is_max_iter(self, monkeypatch):
        monkeypatch.setattr(holevo, "MAX_ITERATIONS", 1)
        calls = _count_trust_region(monkeypatch)
        rho, drho = _qutrit2_problem(17)
        sol = holevo_bound(rho, drho)
        assert sol.status == "max_iter"
        assert len(calls) == 1
        assert sol.gap > 1e-12 * sol.value
