import warnings

import numpy as np
import pytest

from qmet.errors import SingularQfim
from qmet.linalg import qfim
from qmet.models import (
    PureStateModel,
    bloch_to_state,
    eval_generic,
    eval_qubit2,
    eval_qutrit2,
    eval_qutrit3,
    geometry_vectors,
    normalize_state,
    qfim_muc_from_derivatives,
    qubit2_model,
    qutrit2_model,
    qutrit3_model,
    spin_one_operators,
)

from helpers import (
    central_diff_state_derivatives,
    gell_mann_basis,
    geometry_vectors3,
    hermitian_operator_basis,
    qfim_muc_by_loop,
    qutrit2_closed_qu,
    qutrit3_closed_q,
    qutrit_coherence,
    spin_half_operators,
    state_to_bloch,
)


def rand_qutrit(rng):
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return z / np.linalg.norm(z)


def state_map(model):
    return lambda p: model.derivatives(p)[0]


def central_diff_qu(state_fn, p):
    """(Q, U) from the test oracle's phase-aligned central differences."""
    return qfim_muc_from_derivatives(*central_diff_state_derivatives(state_fn, p))


# Gamma_1..Gamma_8 over sqrt(2), then I/sqrt(3), written out entry by entry
_R2, _R3 = np.sqrt(2.0), np.sqrt(3.0)
GELL_MANN_TABLE = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [[1 / _R3, 0, 0], [0, 1 / _R3, 0], [0, 0, -2 / _R3]],
    ],
    dtype=complex,
) / _R2
GELL_MANN_TABLE = np.concatenate([GELL_MANN_TABLE, [np.eye(3) / _R3]])


class TestOperatorBases:
    def test_gell_mann_orthonormal(self):
        basis = gell_mann_basis()
        assert len(basis) == 9
        for i, bi in enumerate(basis):
            assert np.allclose(bi, bi.conj().T)
            for j, bj in enumerate(basis):
                assert np.trace(bi @ bj) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-14
                )

    def test_identity_element_last(self):
        assert np.allclose(gell_mann_basis()[8], np.eye(3) / np.sqrt(3.0))

    def test_gell_mann_table(self):
        assert np.array_equal(np.array(gell_mann_basis()), GELL_MANN_TABLE)

    def test_generalized_basis_matches_dims(self):
        for d in (2, 3, 4, 5):
            basis = hermitian_operator_basis(d)
            assert len(basis) == d * d
            gram = np.array(
                [[np.trace(a @ b).real for b in basis] for a in basis]
            )
            assert np.allclose(gram, np.eye(d * d), atol=1e-12)

    def test_spin_algebra(self):
        for ops in (spin_half_operators(), spin_one_operators()):
            jx, jy, jz = ops
            assert np.allclose(jx @ jy - jy @ jx, 1j * jz)

    def test_coherence_of_basis_state(self):
        r = qutrit_coherence([0.0, 1.0, 0.0])
        assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-10)
        assert r[8] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)

    def test_coherence_of_haar_states(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = qutrit_coherence(rand_qutrit(rng))
            assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-10)
            assert r[8] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


class TestGeometry:
    def test_frames_orthonormal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            B, th, t = rng.uniform(0.1, 3, 3)
            ph = rng.uniform(0, 2 * np.pi)
            for frame in (
                geometry_vectors(B, th, t),
                geometry_vectors3(B, th, ph, t),
            ):
                m = np.stack(frame)
                assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)

    def test_n2_is_cross_product(self):
        nt, n1, n2 = geometry_vectors(1.3, 0.4, 0.9)
        assert np.allclose(np.cross(nt, n1), n2, atol=1e-12)

    def test_three_param_reduces_at_phi_zero(self):
        nt, n1, _ = geometry_vectors(1.1, 0.7, 1.4)
        nt3, n13, _ = geometry_vectors3(1.1, 0.7, 0.0, 1.4)
        assert np.allclose(nt, nt3)
        assert np.allclose(n1, n13)


class TestQubitModel:
    def test_anchor_point(self):
        # alpha = beta = 0 probe: r0 along n_2
        _, _, n2 = geometry_vectors(np.pi, 0.0, 1.0)
        ev = eval_qubit2(np.pi, 0.0, 1.0, n2)
        assert np.allclose(ev.q, np.diag([1.0, 4.0]), atol=1e-12)
        assert abs(ev.u[0, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_vanishing_rotation_angle(self):
        rng = np.random.default_rng(1)
        r = rng.standard_normal(3)
        ev = eval_qubit2(2.0 * np.pi, 0.8, 1.0, r / np.linalg.norm(r))
        assert ev.q[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert ev.q[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(ev.u, 0.0, atol=1e-12)

    def test_probe_aligned_with_generator(self):
        nt, _, _ = geometry_vectors(1.2, 0.5, 1.0)
        ev = eval_qubit2(1.2, 0.5, 1.0, nt)
        assert ev.q[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_generic_analytic(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            B, th, t = rng.uniform(0.3, 3), rng.uniform(-np.pi, np.pi), rng.uniform(0.3, 3)
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            ev = eval_qubit2(B, th, t, r)
            g = eval_generic(qubit2_model(r, t), [B, th])
            assert np.allclose(ev.q, g.q, atol=1e-10)
            assert np.allclose(ev.u, g.u, atol=1e-10)

    def test_matches_generic_central_difference(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            B, th, t = rng.uniform(0.3, 3), rng.uniform(-np.pi, np.pi), rng.uniform(0.3, 3)
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            ev = eval_qubit2(B, th, t, r)
            q, u = central_diff_qu(state_map(qubit2_model(r, t)), [B, th])
            assert np.allclose(ev.q, q, atol=1e-6)
            assert np.allclose(ev.u, u, atol=1e-6)

    def test_pure_qubit_determinant_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            B, th, t = rng.uniform(0.3, 3), rng.uniform(-np.pi, np.pi), rng.uniform(0.3, 3)
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            ev = eval_qubit2(B, th, t, r)
            det_q = np.linalg.det(ev.q)
            if det_q > 1e-8:
                assert abs(det_q - ev.u[0, 1] ** 2) <= 1e-8 * det_q

    def test_bloch_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            assert np.allclose(state_to_bloch(bloch_to_state(r)), r, atol=1e-12)

    @pytest.mark.parametrize("r", [[1e-13, 0.0, 0.0], [0.0, 0.0, 0.0], [np.nan, 0.0, 1.0],
                                   [np.inf, 0.0, 1.0]])
    def test_near_zero_bloch_vector_rejected(self, r):
        # one zero-norm rule for every entry that takes a Bloch or state vector
        for build in (bloch_to_state, lambda r: qubit2_model(r, 1.0),
                      lambda r: eval_qubit2(1.0, 0.2, 1.0, r), lambda r: normalize_state(r, 3)):
            with pytest.raises(ValueError, match="zero norm"):
                build(r)

    @pytest.mark.parametrize("r, unit", [
        ([1e200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([0.0, -1e300, 0.0], [0.0, -1.0, 0.0]),
        ([1e200, 0.0, -1e200], [np.sqrt(0.5), 0.0, -np.sqrt(0.5)]),
    ])
    def test_huge_finite_vector_normalized(self, r, unit):
        # a finite vector whose norm overflows is still a direction
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = normalize_state(r, 3)
            qubit = bloch_to_state(r)
        assert np.allclose(state, unit, rtol=0.0, atol=1e-15)
        assert np.allclose(qubit, bloch_to_state(unit), rtol=0.0, atol=1e-15)


class TestQutritModels:
    def test_max_variance_probe(self):
        # (|m=1> + |m=-1>)/sqrt(2) at theta = pi/2 puts n_theta = z
        probe = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        ev = eval_qutrit2(np.pi, np.pi / 2.0, 1.0, probe)
        assert ev.q[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_zero_variance_probe(self):
        ev = eval_qutrit2(1.3, np.pi / 2.0, 1.0, [0.0, 1.0, 0.0])
        assert ev.q[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_vanishing_rotation_angle(self):
        rng = np.random.default_rng(9)
        ev = eval_qutrit2(2.0 * np.pi, 0.3, 1.0, rand_qutrit(rng))
        assert ev.q[1, 1] == pytest.approx(0.0, abs=1e-10)
        assert ev.q[0, 1] == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(ev.u, 0.0, atol=1e-10)

    def test_trace_vector_notation_equivalent(self):
        # expectations of J operators == coherence-vector contractions
        rng = np.random.default_rng(10)
        basis = gell_mann_basis()
        jx, jy, jz = spin_one_operators()
        j = np.stack([jx, jy, jz])
        for _ in range(25):
            B, th, t = rng.uniform(0.3, 3), rng.uniform(-1.2, 1.2), rng.uniform(0.3, 3)
            psi = rand_qutrit(rng)
            r = qutrit_coherence(psi)
            nt, n1, _ = geometry_vectors(B, th, t)
            j_th = np.tensordot(nt, j, axes=1)
            j_1 = np.tensordot(n1, j, axes=1)
            s = np.sin(B * t / 2.0)
            nt2 = np.array([np.trace(j_th @ j_th @ b).real for b in basis])
            n12 = np.array([np.trace(j_1 @ j_1 @ b).real for b in basis])
            n1t = np.array(
                [np.trace((j_1 @ j_th + j_th @ j_1) @ b).real for b in basis]
            )
            ntv = np.array([np.trace(j_th @ b).real for b in basis])
            n1v = np.array([np.trace(j_1 @ b).real for b in basis])
            q_bb = 4.0 * t**2 * (nt2 @ r - (ntv @ r) ** 2)
            q_tt = 16.0 * s**2 * (n12 @ r - (n1v @ r) ** 2)
            q_bt = -4.0 * t * s * (n1t @ r - 2.0 * (n1v @ r) * (ntv @ r))
            ev = eval_qutrit2(B, th, t, psi)
            assert ev.q[0, 0] == pytest.approx(q_bb, abs=1e-10)
            assert ev.q[1, 1] == pytest.approx(q_tt, abs=1e-10)
            assert ev.q[0, 1] == pytest.approx(q_bt, abs=1e-10)

    def test_qutrit2_matches_closed_forms(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            B, th, t = rng.uniform(0.3, 3), rng.uniform(-np.pi, np.pi), rng.uniform(0.3, 3)
            psi = rand_qutrit(rng)
            ev = eval_qutrit2(B, th, t, psi)
            q, u = qutrit2_closed_qu(B, th, t, psi)
            assert np.allclose(ev.q, q, rtol=0, atol=1e-10)
            assert np.allclose(ev.u, u, rtol=0, atol=1e-10)

    def test_qutrit3_phi_block_vanishes_at_pole(self):
        rng = np.random.default_rng(14)
        ev = eval_qutrit3(1.1, np.pi / 2.0, 0.7, 1.0, rand_qutrit(rng))
        assert ev.q[2, 2] == pytest.approx(0.0, abs=1e-12)

    def test_qutrit3_reduces_to_qutrit2_at_phi_zero(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            B, th, t = rng.uniform(0.3, 3), rng.uniform(-1.2, 1.2), rng.uniform(0.3, 3)
            psi = rand_qutrit(rng)
            ev3 = eval_qutrit3(B, th, 0.0, t, psi)
            ev2 = eval_qutrit2(B, th, t, psi)
            assert np.allclose(ev3.q[:2, :2], ev2.q, atol=1e-10)

    def test_qutrit3_closed_q_vs_central_difference(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            psi = rand_qutrit(rng)
            ev = eval_qutrit3(1.0, np.pi / 7.0, np.pi / 5.0, 1.0, psi)
            q, u = central_diff_qu(
                state_map(qutrit3_model(psi, 1.0)), [1.0, np.pi / 7.0, np.pi / 5.0]
            )
            assert np.allclose(ev.q, q, atol=1e-6)
            assert np.allclose(ev.u, u, atol=1e-6)

    def test_qutrit3_matches_closed_forms(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            B, th, t = rng.uniform(0.3, 3), rng.uniform(-np.pi, np.pi), rng.uniform(0.3, 3)
            ph = rng.uniform(0.0, 2.0 * np.pi)
            psi = rand_qutrit(rng)
            ev = eval_qutrit3(B, th, ph, t, psi)
            assert np.allclose(ev.q, qutrit3_closed_q(B, th, ph, t, psi), rtol=0, atol=1e-10)

    def test_degenerate_flag(self):
        rng = np.random.default_rng(17)
        ev = eval_qutrit3(1.0, np.pi / 2.0, 0.3, 1.0, rand_qutrit(rng))
        with pytest.raises(SingularQfim):
            qfim(ev.q)


def constant_model():
    psi = np.array([1.0, 0.0], dtype=complex)
    return PureStateModel(lambda p: (psi, [np.zeros(2), np.zeros(2)]))


class TestGenericEvaluator:
    def test_constant_model_gives_zero(self):
        ev = eval_generic(constant_model(), [0.5, 0.5])
        assert np.allclose(ev.q, 0.0, atol=1e-8)
        assert np.allclose(ev.u, 0.0, atol=1e-8)

    def test_constant_model_degenerate_flag(self):
        ev = eval_generic(constant_model(), [0.5, 0.5])
        with pytest.raises(SingularQfim):
            qfim(ev.q)

    @pytest.mark.parametrize("scale", [0.5, 1.0 + 1e-9, 2.0])
    def test_non_normalized_state_rejected(self, scale):
        psi = np.array([scale, 0.0], dtype=complex)
        model = PureStateModel(lambda p: (psi, [np.zeros(2)]))
        with pytest.raises(ValueError, match="non-normalized"):
            model.derivatives([0.5])

    def test_gram_product_matches_loop(self):
        rng = np.random.default_rng(22)
        for d in (2, 3, 4, 5):
            for n in (1, 2, 3, 4):
                psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                psi /= np.linalg.norm(psi)
                dpsi = list(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
                q, u = qfim_muc_from_derivatives(psi, dpsi)
                q_ref, u_ref = qfim_muc_by_loop(psi, dpsi)
                scale = np.max(np.abs(q_ref))
                assert np.max(np.abs(q - q_ref)) <= 1e-14 * scale
                assert np.max(np.abs(u - u_ref)) <= 1e-14 * scale

    def test_gauge_invariance(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            t = rng.uniform(0.5, 2.0)
            base = qubit2_model(r, t)

            def gauged(p, f=state_map(base)):
                return np.exp(1j * p[0] ** 2) * f(p)

            p = [rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)]
            q0, u0 = central_diff_qu(state_map(base), p)
            q1, u1 = central_diff_qu(gauged, p)
            assert np.allclose(q0, q1, atol=1e-6)
            assert np.allclose(u0, u1, atol=1e-6)

    @pytest.mark.parametrize(
        "build, p",
        [
            (lambda rng: qubit2_model(rng.standard_normal(3), 1.0), [1.2, 0.4]),
            (lambda rng: qutrit2_model(rand_qutrit(rng), 1.0), [1.2, 0.4]),
            (lambda rng: qutrit3_model(rand_qutrit(rng), 1.0), [1.2, 0.4, 1.1]),
        ],
        ids=["qubit2", "qutrit2", "qutrit3"],
    )
    def test_agrees_with_external_difference_oracle(self, build, p):
        # derivatives agree up to the gauge component along psi
        model = build(np.random.default_rng(19))
        p = np.array(p)
        psi_a, dpsi_a = model.derivatives(p)
        psi_o, dpsi_o = central_diff_state_derivatives(state_map(model), p)
        assert np.allclose(psi_a, psi_o)
        for da, do in zip(dpsi_a, dpsi_o):
            da_perp = da - psi_a * np.vdot(psi_a, da)
            do_perp = do - psi_o * np.vdot(psi_o, do)
            assert np.max(np.abs(da_perp - do_perp)) < 1e-7

    def test_spin_half_general_formulas_reduce_to_qubit(self):
        # 4t^2 [<J^2> - <J>^2] etc. with J = sigma/2 reproduce the planar closed form
        rng = np.random.default_rng(20)
        jx, jy, jz = spin_half_operators()
        j = np.stack([jx, jy, jz])
        for _ in range(50):
            B, th, t = rng.uniform(0.3, 3), rng.uniform(-np.pi, np.pi), rng.uniform(0.3, 3)
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            psi = bloch_to_state(r)
            nt, n1, n2 = geometry_vectors(B, th, t)
            j_th = np.tensordot(nt, j, axes=1)
            j_1 = np.tensordot(n1, j, axes=1)
            j_2 = np.tensordot(n2, j, axes=1)
            s = np.sin(B * t / 2.0)

            def ex(op):
                return np.real(np.vdot(psi, op @ psi))

            q_bb = 4.0 * t**2 * (ex(j_th @ j_th) - ex(j_th) ** 2)
            q_tt = 16.0 * s**2 * (ex(j_1 @ j_1) - ex(j_1) ** 2)
            q_bt = -4.0 * t * s * (
                ex(j_1 @ j_th + j_th @ j_1) - 2.0 * ex(j_1) * ex(j_th)
            )
            d_tb = 4.0 * t * s * ex(j_2)
            ev = eval_qubit2(B, th, t, r)
            assert ev.q[0, 0] == pytest.approx(q_bb, abs=1e-12)
            assert ev.q[1, 1] == pytest.approx(q_tt, abs=1e-12)
            assert ev.q[0, 1] == pytest.approx(q_bt, abs=1e-12)
            assert ev.u[1, 0] == pytest.approx(d_tb, abs=1e-12)
