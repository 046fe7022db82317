from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmet.bounds import (
    axial_vector,
    c_holevo_qubit_pure,
    c_r,
    c_sld,
    c_t,
    compute_report,
    is_pure_qubit_pair,
    quantumness_R,
    quantumness_T,
    r2_closed,
    r3_closed,
    sloppiness,
    t2_closed,
    t3_unnormalized_value,
    threshold_csep_vs,
)
from qmet.errors import NotApplicable, SingularQfim
from qmet.holevo import holevo_bound
from qmet.linalg import cholesky, qfim, symmetrize, weights
from qmet.models import (
    density_and_derivatives,
    eval_qubit2,
    eval_qutrit2,
    geometry_vectors,
    qubit2_model,
)
from qmet.stepwise import (
    best_order_bruteforce,
    best_order_dp,
    brackets,
    csep_cholesky,
    csep_ordered,
    dp_tables,
)

from helpers import qubit_instance, rand_antisym, rand_spd

Q_ANCHOR = np.diag([1.0, 4.0])
U_ANCHOR = np.array([[0.0, 2.0], [-2.0, 0.0]])


def rand_qu_pair(rng, n):
    return rand_spd(rng, n), rand_antisym(rng, n)


class TestSld:
    def test_examples(self):
        assert c_sld(Q_ANCHOR) == pytest.approx(1.25, abs=1e-12)
        for n in (1, 3, 5):
            assert c_sld(np.eye(n)) == pytest.approx(float(n))

    def test_optimal_qutrit_form(self):
        for t, B in [(1.0, np.pi), (0.7, 1.3), (2.0, 0.9)]:
            s = np.sin(B * t / 2.0)
            q = np.diag([4.0 * t**2, 16.0 * s**2])
            expected = (4.0 / t**2 + 1.0 / s**2) / 16.0
            assert c_sld(q) == pytest.approx(expected, rel=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularQfim):
            c_sld(np.zeros((2, 2)))


class TestQuantumness:
    def test_r_examples(self):
        assert quantumness_R(Q_ANCHOR, U_ANCHOR) == pytest.approx(1.0, abs=1e-12)
        assert quantumness_R(Q_ANCHOR, np.zeros((2, 2))) == pytest.approx(0.0)

    def test_r_eigenvalue_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            q, u = rand_qu_pair(rng, n)
            direct = np.max(np.abs(np.linalg.eigvals(1j * np.linalg.inv(q) @ u)))
            assert quantumness_R(q, u) == pytest.approx(float(direct), rel=1e-9)

    def test_r_is_one_for_pure_qubit(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            alpha, beta, B, t = qubit_instance(rng)
            nt, n1, n2 = geometry_vectors(B, 0.0, t)
            r0 = alpha * nt + beta * n1 + np.sqrt(1 - alpha**2 - beta**2) * n2
            ev = eval_qubit2(B, 0.0, t, r0)
            assert quantumness_R(ev.q, ev.u) == pytest.approx(1.0, abs=1e-9)

    def test_t_example(self):
        assert quantumness_T(Q_ANCHOR, U_ANCHOR) == pytest.approx(0.8, abs=1e-12)
        assert quantumness_T(Q_ANCHOR, np.zeros((2, 2))) == pytest.approx(0.0)

    def test_t_qubit_closed_expression(self):
        # T = 4 t sqrt((1-a^2-b^2) sin^2) / (2 (1-b^2)(1-cos Bt) + (1-a^2) t^2)
        rng = np.random.default_rng(2)
        for _ in range(300):
            alpha, beta, B, t = qubit_instance(rng)
            nt, n1, n2 = geometry_vectors(B, 0.4, t)
            r0 = alpha * nt + beta * n1 + np.sqrt(1 - alpha**2 - beta**2) * n2
            ev = eval_qubit2(B, 0.4, t, r0)
            num = 4.0 * t * np.sqrt((1 - alpha**2 - beta**2) * np.sin(B * t / 2) ** 2)
            den = 2.0 * (1 - beta**2) * (1 - np.cos(B * t)) + (1 - alpha**2) * t**2
            assert quantumness_T(ev.q, ev.u) == pytest.approx(num / den, rel=1e-8)

    def test_anchor_t_value(self):
        _, _, n2 = geometry_vectors(np.pi, 0.0, 1.0)
        ev = eval_qubit2(np.pi, 0.0, 1.0, n2)
        assert quantumness_T(ev.q, ev.u) == pytest.approx(0.8, abs=1e-12)

    def test_closed_forms_match_definitions_n2(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            q, u = rand_qu_pair(rng, 2)
            assert abs(quantumness_R(q, u) - r2_closed(q, u)) <= 1e-9 * max(
                1.0, r2_closed(q, u)
            )
            omega = rng.uniform(0.2, 4.0)
            t_def = quantumness_T(q, u, np.array([1.0, omega]))
            t_cf = t2_closed(q, u, [1.0, omega])
            assert abs(t_def - t_cf) <= 1e-9 * max(1.0, t_cf)
            w = rng.uniform(0.2, 4.0, size=2)
            t_def, t_cf = quantumness_T(q, u, w), t2_closed(q, u, w)
            assert abs(t_def - t_cf) <= 1e-9 * max(1.0, t_cf)

    def test_closed_forms_match_definitions_n3(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            q, u = rand_qu_pair(rng, 3)
            assert quantumness_R(q, u) == pytest.approx(r3_closed(q, u), rel=1e-9)
            w = rng.uniform(0.2, 3.0, size=3)
            w[0] = 1.0
            t_def = quantumness_T(q, u, w)
            numerator = t3_unnormalized_value(q, u, w)
            # the closed form is the unnormalized numerator of the definition
            assert numerator == pytest.approx(t_def * c_sld(q, w), rel=1e-9)

    def test_t3_unnormalized_unit_example(self):
        # at Q = I, W = I, |u| = 1 the printed form gives 2, the definition 2/3
        u = np.zeros((3, 3))
        u[0, 1], u[1, 0] = 1.0, -1.0
        assert np.linalg.norm(axial_vector(u)) == pytest.approx(1.0)
        assert t3_unnormalized_value(np.eye(3), u) == pytest.approx(2.0, abs=1e-12)
        assert quantumness_T(np.eye(3), u) == pytest.approx(2.0 / 3.0, abs=1e-12)


class TestChainBounds:
    def test_examples(self):
        assert c_t(Q_ANCHOR, U_ANCHOR) == pytest.approx(2.25, abs=1e-12)
        assert c_r(Q_ANCHOR, U_ANCHOR) == pytest.approx(2.5, abs=1e-12)
        zero = np.zeros((2, 2))
        assert c_t(Q_ANCHOR, zero) == pytest.approx(c_sld(Q_ANCHOR))
        assert c_r(Q_ANCHOR, zero) == pytest.approx(c_sld(Q_ANCHOR))

    def test_pure_qubit_cr_is_twice_cs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            alpha, beta, B, t = qubit_instance(rng)
            nt, n1, n2 = geometry_vectors(B, 0.0, t)
            r0 = alpha * nt + beta * n1 + np.sqrt(1 - alpha**2 - beta**2) * n2
            ev = eval_qubit2(B, 0.0, t, r0)
            assert c_r(ev.q, ev.u) == pytest.approx(2.0 * c_sld(ev.q), rel=1e-9)

    def test_chain_ordering(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            alpha, beta, B, t = qubit_instance(rng)
            nt, n1, n2 = geometry_vectors(B, 1.1, t)
            r0 = alpha * nt + beta * n1 + np.sqrt(1 - alpha**2 - beta**2) * n2
            ev = eval_qubit2(B, 1.1, t, r0)
            cs = c_sld(ev.q)
            ct = c_t(ev.q, ev.u)
            cr = c_r(ev.q, ev.u)
            assert cs <= ct + 1e-9
            assert ct <= cr + 1e-9
            assert cr <= 2.0 * cs + 1e-9

    def test_chain_for_random_qutrit2(self):
        rng = np.random.default_rng(7)
        from helpers import det_cofactor

        checked = 0
        while checked < 200:
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z /= np.linalg.norm(z)
            B, th, t = rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.5)
            ev = eval_qutrit2(B, th, t, z)
            if det_cofactor(ev.q) < 1e-3:
                continue
            checked += 1
            cs = c_sld(ev.q)
            ct = c_t(ev.q, ev.u)
            cr = c_r(ev.q, ev.u)
            assert cs <= ct + 1e-9 and ct <= cr + 1e-9 and cr <= 2.0 * cs + 1e-9


class TestHolevoClosedForm:
    def test_anchor(self):
        assert c_holevo_qubit_pure(Q_ANCHOR) == pytest.approx(2.25, abs=1e-12)

    def test_isotropic(self):
        for c in (0.5, 1.0, 3.0):
            assert c_holevo_qubit_pure(c * np.eye(2)) == pytest.approx(4.0 / c)

    def test_equals_ct_on_pure_qubit(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            alpha, beta, B, t = qubit_instance(rng)
            nt, n1, n2 = geometry_vectors(B, 0.7, t)
            r0 = alpha * nt + beta * n1 + np.sqrt(1 - alpha**2 - beta**2) * n2
            ev = eval_qubit2(B, 0.7, t, r0)
            ch = c_holevo_qubit_pure(ev.q, u=ev.u)
            assert abs(ch - c_t(ev.q, ev.u)) <= 1e-9 * ch

    def test_weighted(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            alpha, beta, B, t = qubit_instance(rng)
            nt, n1, n2 = geometry_vectors(B, 0.0, t)
            r0 = alpha * nt + beta * n1 + np.sqrt(1 - alpha**2 - beta**2) * n2
            ev = eval_qubit2(B, 0.0, t, r0)
            w = rng.uniform(0.2, 3.0, size=2)
            ch = c_holevo_qubit_pure(ev.q, w, ev.u)
            assert abs(ch - c_t(ev.q, ev.u, w)) <= 1e-9 * ch
            # the definition Tr[W Q^-1] + 2 sqrt(det[W Q^-1]), by direct inversion
            wq = np.diag(w) @ np.linalg.inv(ev.q)
            direct = np.trace(wq) + 2.0 * np.sqrt(np.linalg.det(wq))
            assert abs(ch - direct) <= 1e-12 * direct

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            c_holevo_qubit_pure(np.eye(3))
        with pytest.raises(NotApplicable):
            # U inconsistent with a pure qubit model
            c_holevo_qubit_pure(Q_ANCHOR, u=np.array([[0.0, 0.5], [-0.5, 0.0]]))

    def test_certificate(self):
        assert is_pure_qubit_pair(Q_ANCHOR, U_ANCHOR)
        assert not is_pure_qubit_pair(Q_ANCHOR, 0.5 * U_ANCHOR)


class TestSloppiness:
    def test_examples(self):
        assert sloppiness(Q_ANCHOR) == pytest.approx(0.25)
        assert sloppiness(np.eye(4)) == pytest.approx(1.0)

    def test_singular_gives_infinity(self):
        v = np.array([1.0, 2.0])
        assert sloppiness(np.outer(v, v)) == np.inf


class TestThresholds:
    def test_ct_anchor_equality(self):
        verdict = threshold_csep_vs("c_t", Q_ANCHOR, U_ANCHOR)
        assert verdict.threshold_value == pytest.approx(0.25, abs=1e-12)
        assert verdict.predicate_holds and verdict.direct_comparison
        assert verdict.consistent
        # equality case: csep(1->2) == C_T == 2.25
        assert csep_ordered(Q_ANCHOR, (1, 2)).value == pytest.approx(2.25)

    def test_cs_anchor_diagonal(self):
        verdict = threshold_csep_vs("c_s", Q_ANCHOR, U_ANCHOR)
        assert verdict.threshold_value == np.inf
        assert not verdict.predicate_holds
        assert not verdict.direct_comparison
        assert verdict.consistent
        assert verdict.diagnostic_threshold is not None

    def test_cr_universal_regime(self):
        # 2 Q22 = |U12| makes the C_R condition hold for every s > 0
        q = np.array([[5.0, 1.0], [1.0, 0.8]])
        u = np.array([[0.0, 1.6], [-1.6, 0.0]])
        verdict = threshold_csep_vs("c_r", q, u)
        assert verdict.threshold_value == pytest.approx(0.0, abs=1e-15)
        assert verdict.predicate_holds
        assert verdict.consistent

    def test_cr_diagonal_threshold(self):
        # diagonal QFIM: threshold is (2 Q22 - |U12|) / (|U12| Q22^2)
        rng = np.random.default_rng(10)
        for _ in range(50):
            q = np.diag(rng.uniform(0.5, 4.0, size=2))
            u12 = rng.uniform(0.05, 2.0 * q[1, 1] - 0.05)
            u = np.array([[0.0, u12], [-u12, 0.0]])
            verdict = threshold_csep_vs("c_r", q, u)
            expected = (2.0 * q[1, 1] - u12) / (u12 * q[1, 1] ** 2)
            assert verdict.threshold_value == pytest.approx(expected, rel=1e-9)
            assert verdict.consistent

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q12", [1e-70, 1e-80, 1e-90])
    def test_tiny_off_diagonal_gives_inf_without_warning(self, q12):
        # Q_12^4 is subnormal at 1e-80 and underflows to 0 at 1e-90
        q = np.array([[1.0, q12], [q12, 2.0]])
        zero = np.zeros((2, 2))
        expected = 4.0 * 2.0**2 / q12**4 if q12 == 1e-70 else np.inf
        for target in ("c_s", "c_t", "c_r"):
            verdict = threshold_csep_vs(target, q, zero)
            assert verdict.threshold_value == pytest.approx(expected, rel=1e-12)
            assert not verdict.predicate_holds
            assert verdict.consistent

    def test_consistency_on_random_qubit_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            alpha, beta, B, t = qubit_instance(rng)
            nt, n1, n2 = geometry_vectors(B, 0.3, t)
            r0 = alpha * nt + beta * n1 + np.sqrt(1 - alpha**2 - beta**2) * n2
            ev = eval_qubit2(B, 0.3, t, r0)
            for target in ("c_s", "c_t", "c_r"):
                assert threshold_csep_vs(target, ev.q, ev.u).consistent

    def test_pure_qubit_ct_always_holds(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            alpha, beta, B, t = qubit_instance(rng)
            nt, n1, n2 = geometry_vectors(B, 0.9, t)
            r0 = alpha * nt + beta * n1 + np.sqrt(1 - alpha**2 - beta**2) * n2
            ev = eval_qubit2(B, 0.9, t, r0)
            verdict = threshold_csep_vs("c_t", ev.q, ev.u)
            assert verdict.predicate_holds and verdict.direct_comparison


class TestReport:
    def test_anchor_report(self):
        rep = compute_report(Q_ANCHOR, U_ANCHOR)
        assert rep.c_s == pytest.approx(1.25)
        assert rep.quantumness_t == pytest.approx(0.8)
        assert rep.c_t == pytest.approx(2.25)
        assert rep.c_r == pytest.approx(2.5)
        assert rep.c_h_closed == pytest.approx(2.25)
        assert rep.sloppiness == pytest.approx(0.25)

    def test_json_field_names(self):
        doc = compute_report(Q_ANCHOR, U_ANCHOR).to_json()
        assert set(doc) >= {"c_s", "c_t", "c_r", "c_h", "R", "T", "s"}

    def test_json_includes_t3_for_three_params(self):
        rng = np.random.default_rng(13)
        q, u = rand_spd(rng, 3), rand_antisym(rng, 3)
        doc = compute_report(q, u).to_json()
        assert "t3_unnormalized" in doc

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        # a 2-D weight, even diagonal, fails the one shared validator
        for w in (np.array([bad, 1.0]), np.diag([1.0, bad]), np.diag([1.0, 0.0])):
            calls = [
                lambda: weights(w, 2),
                lambda: c_sld(q, w),
                lambda: c_t(q, U_ANCHOR, w),
                lambda: csep_ordered(q, (2, 1), w),
                lambda: best_order_dp(q, w),
                lambda: best_order_bruteforce(q, w),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="weights must|diagonal"):
                    call()

    def test_weights_validation(self):
        assert np.array_equal(weights(None, 2), np.ones(2))
        assert np.array_equal(weights([1.0, 2.0], 2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            weights([1.0, -2.0], 2)
        with pytest.raises(ValueError):
            weights(np.array([[1.0, 2.0], [2.0, 1.0]]), 2)

    @pytest.mark.parametrize(
        "w",
        [np.array([[1.0, 0.5], [-0.5, 1.0]]), np.diag([1.0, 2.0])],
        ids=["asymmetric", "diagonal"],
    )
    def test_matrix_weights_rejected_everywhere(self, w):
        # W = diag(w) is given by its vector alone; no entry point takes a matrix
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        rho, drho = density_and_derivatives(qubit2_model([0.3, 0.4, 0.5], 0.8), [1.3, 0.2])
        calls = {
            "weights": lambda: weights(w, 2),
            "c_sld": lambda: c_sld(q, w),
            "c_t": lambda: c_t(q, U_ANCHOR, w),
            "c_r": lambda: c_r(q, U_ANCHOR, w),
            "quantumness_T": lambda: quantumness_T(q, U_ANCHOR, w),
            "t2_closed": lambda: t2_closed(q, U_ANCHOR, w),
            "compute_report": lambda: compute_report(q, U_ANCHOR, w),
            "holevo_bound": lambda: holevo_bound(rho, drho, w),
            "csep_ordered": lambda: csep_ordered(q, (2, 1), w),
            "best_order_dp": lambda: best_order_dp(q, w),
            "best_order_bruteforce": lambda: best_order_bruteforce(q, w),
        }
        accepted = [name for name, call in calls.items() if not _raises(call, ValueError)]
        assert accepted == []

    @pytest.mark.parametrize("w", [[1.0, -1.0], [1.0, 0.0], [1.0, np.nan]])
    def test_t2_closed_rejects_invalid_weights(self, w):
        with pytest.raises(ValueError, match="weights must"):
            t2_closed(np.array([[2.0, 0.3], [0.3, 1.0]]), U_ANCHOR, w)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_report_equals_public_functions(self, n, weighted):
        rng = np.random.default_rng(40 + n)
        for _ in range(50):
            q, u = rand_qu_pair(rng, n)
            w = rng.uniform(0.2, 4.0, size=n) if weighted else None
            rep = compute_report(q, u, w)
            assert rep.c_s == c_sld(q, w)
            assert rep.c_t == c_t(q, u, w)
            assert rep.c_r == c_r(q, u, w)
            assert rep.quantumness_t == quantumness_T(q, u, w)
            assert rep.quantumness_r == quantumness_R(q, u)
            expected_t3 = t3_unnormalized_value(q, u, w) if n == 3 else None
            assert rep.t3_unnormalized == expected_t3


U_TWO = np.array([[0.0, 1.0], [-1.0, 0.0]])
U_THREE = np.array([[0.0, 3.0, -2.0], [-3.0, 0.0, 1.0], [2.0, -1.0, 0.0]])


def _raises(call, exc=SingularQfim):
    try:
        call()
    except exc:
        return True
    return False


def _rule_inputs():
    """Negative-definite, indefinite, tiny-scale and near-singular QFIMs."""
    qs = [
        -np.eye(2),
        -np.eye(3),
        np.diag([-1.0, -1.0, 2.0]),
        np.diag([1.0, -1.0, 1.0]),
        np.array([[1.0, 2.0], [2.0, 1.0]]),
        1e-7 * np.eye(3),
        1e-13 * np.eye(2),
    ]
    qs += [c * np.eye(n) for n in (2, 3) for c in np.logspace(-13.0, 3.0, 17)]
    for eps in (0.0, 1e-15, 1e-13, 1e-12, 2e-12, 3e-12, 1e-11, 1e-9, 1e-6):
        qs.append(np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + eps, 0.0], [0.0, 0.0, 2.0]]))
    return qs


def _non_finite_inputs():
    """QFIMs with one NaN or infinite entry on the diagonal or below it."""
    qs = []
    for n in (2, 3):
        for bad in (np.nan, np.inf, -np.inf):
            for at in ((0, 0), (n - 1, 0), (n - 1, n - 1)):
                q = np.eye(n) + 0.1
                q[at] = bad
                qs.append(q)
    return qs


class TestSingularityRule:
    """Every QFIM-level function applies the one Cholesky pivot rule."""

    def test_functions_agree(self):
        for q in _rule_inputs():
            n = q.shape[0]
            u = U_TWO if n == 2 else U_THREE
            verdicts = {
                "cholesky": _raises(lambda: cholesky(q), SingularQfim),
                "sloppiness": sloppiness(q) == np.inf,
                "brackets": _raises(lambda: brackets(q)),
                "c_sld": _raises(lambda: c_sld(q)),
                "quantumness_R": _raises(lambda: quantumness_R(q, u)),
                "csep_cholesky": _raises(lambda: csep_cholesky(q)),
                "csep_ordered": _raises(lambda: csep_ordered(q, tuple(range(n, 0, -1)))),
            }
            if n == 2:
                verdicts["r2_closed"] = _raises(lambda: r2_closed(q, u))
            else:
                verdicts["r3_closed"] = _raises(lambda: r3_closed(q, u))
                verdicts["t3_unnormalized_value"] = _raises(lambda: t3_unnormalized_value(q, u))
            assert len(set(verdicts.values())) == 1, (q, verdicts)
            if n == 2 and verdicts["cholesky"]:
                assert not is_pure_qubit_pair(q, u), q

    def test_qfim_raises_exactly_when_cholesky_raises(self):
        for q in _rule_inputs():
            assert _raises(lambda: qfim(q)) == _raises(lambda: cholesky(q), SingularQfim), q

    def test_non_finite_rejected(self):
        for q in _non_finite_inputs():
            n = q.shape[0]
            u = U_TWO if n == 2 else U_THREE
            calls = [
                cholesky, sloppiness, brackets, c_sld, csep_cholesky,
                lambda q: quantumness_R(q, u),
                lambda q: csep_ordered(q, tuple(range(n, 0, -1))),
            ]
            if n == 2:
                calls += [lambda q: r2_closed(q, u), lambda q: is_pure_qubit_pair(q, u)]
            else:
                calls += [lambda q: r3_closed(q, u), lambda q: t3_unnormalized_value(q, u)]
            for call in calls:
                with pytest.raises(ValueError, match="non-finite"):
                    call(q)

    def test_non_spd_and_small_scale_cases(self):
        assert sloppiness(-np.eye(2)) == np.inf
        with pytest.raises(SingularQfim):
            r2_closed(-np.eye(2), U_TWO)
        with pytest.raises(SingularQfim):
            r3_closed(np.diag([-1.0, -1.0, 2.0]), U_THREE)
        assert not is_pure_qubit_pair(-np.eye(2), U_TWO)
        assert sloppiness(1e-7 * np.eye(3)) == pytest.approx(1e21, rel=1e-12)
        verdict = threshold_csep_vs("c_s", 1e-13 * np.eye(2), np.zeros((2, 2)))
        assert verdict.consistent
        assert csep_ordered(1e-13 * np.eye(2)).value == pytest.approx(4e13, rel=1e-12)

    def test_closed_forms_where_det_q_underflows(self):
        # det Q underflows to 0 here although every pivot passes the rule
        q2 = 1e-170 * np.eye(2)
        assert r2_closed(q2, U_TWO) == pytest.approx(quantumness_R(q2, U_TWO), rel=1e-12)
        q3 = 1e-120 * np.diag([1.0, 2.0, 3.0])
        assert r3_closed(q3, U_THREE) == pytest.approx(quantumness_R(q3, U_THREE), rel=1e-12)
        assert t3_unnormalized_value(q3, U_THREE) == pytest.approx(
            quantumness_T(q3, U_THREE) * c_sld(q3), rel=1e-12
        )


def _same(a, b):
    """``==`` on floats and bools, field by field on dataclasses, exact on arrays."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _spd_case(seed, n, decades):
    """A QFIM with eigenvalues spread over ``decades``, a U, weights and an ordering."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q = symmetrize(basis @ np.diag(np.logspace(0.0, -decades, n)) @ basis.T)
    order = tuple(int(j) + 1 for j in rng.permutation(n))
    return q, rand_antisym(rng, n), rng.uniform(0.2, 3.0, n), order


def _shared_calls(q, u, w, order):
    """Every public function of a QFIM, as name -> call on a matrix or a Qfim."""
    n = len(w)
    calls = {
        "c_sld": lambda m: c_sld(m, w),
        "c_t": lambda m: c_t(m, u, w),
        "c_r": lambda m: c_r(m, u, w),
        "quantumness_R": lambda m: quantumness_R(m, u),
        "quantumness_T": lambda m: quantumness_T(m, u, w),
        "sloppiness": sloppiness,
        "is_pure_qubit_pair": lambda m: is_pure_qubit_pair(m, u),
        "compute_report": lambda m: compute_report(m, u, w),
        "brackets": brackets,
        "csep_cholesky": csep_cholesky,
        "csep_ordered": lambda m: csep_ordered(m, order, w),
        "csep_ordered_natural": csep_ordered,
        "best_order_dp": lambda m: best_order_dp(m, w),
        "best_order_bruteforce": lambda m: best_order_bruteforce(m, w),
        "dp_tables": lambda m: dp_tables(m, w),
    }
    if n == 2:
        calls["r2_closed"] = lambda m: r2_closed(m, u)
        for target in ("c_s", "c_t", "c_r"):
            calls[f"threshold_{target}"] = lambda m, target=target: threshold_csep_vs(target, m, u)
    if n == 3:
        calls["r3_closed"] = lambda m: r3_closed(m, u)
        calls["t3_unnormalized_value"] = lambda m: t3_unnormalized_value(m, u, w)
    return calls


def _assert_shared(q, u, w, order):
    qf = qfim(q)
    for name, call in _shared_calls(q, u, w, order).items():
        assert _same(call(qf), call(q)), name


class TestSharedQfim:
    """A Qfim gives ``==``-identical results to the matrix it was built from."""

    @settings(max_examples=60, deadline=None)
    @given(st.builds(_spd_case, st.integers(0, 2**32 - 1), st.integers(2, 5), st.floats(0.0, 8.0)))
    def test_spd(self, case):
        _assert_shared(*case)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 2.0 * np.pi),
        st.floats(0.3, 3.0),
        st.floats(0.3, 3.0),
        st.floats(0.2, 3.0),
    )
    def test_pure_qubit(self, radius, angle, b, t, w1):
        alpha, beta = radius * np.cos(angle), radius * np.sin(angle)
        assume(4.0 * t**2 * np.sin(b * t / 2.0) ** 2 * (1.0 - radius**2) >= 1e-3)
        nt, n1, n2 = geometry_vectors(b, 0.0, t)
        ev = eval_qubit2(b, 0.0, t, alpha * nt + beta * n1 + np.sqrt(1.0 - radius**2) * n2)
        w = np.array([w1, 1.0])
        _assert_shared(ev.q, ev.u, w, (2, 1))
        qf = qfim(ev.q)
        assert c_holevo_qubit_pure(qf, w, ev.u) == c_holevo_qubit_pure(ev.q, w, ev.u)
        assert c_holevo_qubit_pure(qf) == c_holevo_qubit_pure(ev.q)
        assert compute_report(qf, ev.u).c_h_closed is not None
