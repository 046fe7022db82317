"""Hand-worked cases pinning the benchmark's correctness checks.

Run with ``python3 -m pytest bench`` from the root of the repository.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from qmet.errors import SingularQfim  # noqa: E402


def test_diagonal_qfim_gives_the_sum_of_inverse_roots():
    q = np.diag([4.0, 1.0, 9.0])
    for order in [(1, 2, 3), (3, 1, 2), (2, 3, 1)]:
        assert checks.stepwise_value(q, order) == pytest.approx((0.5 + 1.0 + 1.0 / 3.0) ** 2)


def test_multiple_of_identity_saturates_both_brackets():
    q = 2.0 * np.eye(3)
    assert checks.stepwise_value(q, (1, 2, 3)) == pytest.approx(4.5)
    assert checks.check_order_result(q, 4.5, (1, 2, 3), expansions=12) == []
    assert checks.check_order_result(q, 4.6, (1, 2, 3))  # off the stepwise value
    assert checks.check_order_result(q, 4.5, (1, 2, 3), expansions=11)


def test_two_by_two_orders_and_adjacent_swap():
    q = np.array([[4.0, 2.0], [2.0, 5.0]])
    # (2, 1): A_1 = [Q^-1]_22 = 4/16, A_2 = 1/q_11 = 1/4, so (1/2 + 1/2)^2 = 1
    assert checks.stepwise_value(q, (2, 1)) == pytest.approx(1.0)
    v12 = (math.sqrt(5.0 / 16.0) + math.sqrt(1.0 / 5.0)) ** 2
    assert checks.stepwise_value(q, (1, 2)) == pytest.approx(v12)
    assert checks.check_order_result(q, 1.0, (2, 1)) == []
    fails = checks.check_order_result(q, v12, (1, 2))
    assert any("adjacent swap" in f for f in fails)


def test_mpmath_value_and_missing_bound():
    q = np.array([[1.0, 1.0, 0.0], [1.0, 1.25, 0.0], [0.0, 0.0, 2.0]])
    # trailing determinants 2 eps, 2 (1 + eps), 2 with eps = 1/4
    want = (math.sqrt(5.0) + math.sqrt(0.8) + math.sqrt(0.5)) ** 2
    assert checks.stepwise_value_mp(q, (1, 2, 3)) == pytest.approx(want, rel=1e-15)
    assert checks.stepwise_value_mp(np.ones((2, 2)), (1, 2)) is None


def test_existence_agreement():
    q = np.array([[1.0, 1.0, 0.0], [1.0, 1.25, 0.0], [0.0, 0.0, 2.0]])
    exact = checks.stepwise_value_mp(q, (2, 1, 3))
    raised = SingularQfim("no ordering")
    assert checks.check_existence(q, raised, raised) == []
    assert checks.check_existence(q, (exact, (2, 1, 3)), (exact, (2, 1, 3))) == []
    assert checks.check_existence(q, raised, (exact, (2, 1, 3)))
    assert checks.check_existence(q, (exact * 1.01, (2, 1, 3)), (exact, (2, 1, 3)))
    singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    assert checks.check_existence(singular, (1.0, (1, 2, 3)), raised)


def test_sandwich_between_sld_and_t_bounds():
    q = np.eye(2)
    u = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert checks.sld_and_t(q, u) == pytest.approx((2.0, 1.0))
    assert checks.check_sandwich(q, u, 3.0) == []
    assert checks.check_sandwich(q, u, 1.9)
    assert checks.check_sandwich(q, u, 4.1)


def test_qubit_pole_state_and_its_row():
    # B t = pi, probe at the south pole: Q = diag(t^2, 4 sin^2(Bt/2)), |U_12| = 2
    q, u = checks.qubit_qu(0.0, 0.0, np.pi, 1.0)
    assert q == pytest.approx(np.diag([1.0, 4.0]), abs=1e-12)
    assert abs(u[0, 1]) == pytest.approx(2.0)
    row = {"R": 1.0, "c_s": 1.25, "c_h": 2.25, "c_t": 2.25, "c_sep_12": 2.25, "c_sep_21": 2.25}
    assert checks.check_qubit_row(row, q, u) == []
    assert checks.check_qubit_row(dict(row, c_h=2.2), q, u)
    assert checks.check_qubit_row(dict(row, R=1.001), q, u)


def test_qutrit_generator_variance():
    # field along x, probe |m = 1>: Q_BB = 4 t^2 Var(J_x) = 2
    q, u = checks.qutrit3_qu(1.0, 0.0, 0.0, 1.0, np.array([1.0, 0.0, 0.0], dtype=complex))
    assert q[0, 0] == pytest.approx(2.0)
    assert q == pytest.approx(q.T)
    assert u == pytest.approx(-u.T)


def test_probe_target_of_the_zero_state_along_n2():
    b, theta, t = 2.0, 0.3, 0.8
    c, s = math.cos(b * t / 2.0), math.sin(b * t / 2.0)
    n2 = np.array([s * math.sin(theta), c, -s * math.cos(theta)])
    evals, evecs = np.linalg.eigh(np.tensordot(n2, checks.SPIN1, axes=1))
    zero_state = evecs[:, np.argmin(np.abs(evals))]
    assert checks.check_probe(b, theta, t, zero_state) == []
    assert checks.check_probe(b, theta, t, np.array([1.0, 0.0, 0.0], dtype=complex))


def test_order_items_repeat_by_seed_and_fail_share_is_fixed(tmp_path):
    a = workloads.Order(5, 10, tmp_path)
    b = workloads.Order(5, 10, tmp_path)
    c = workloads.Order(6, 10, tmp_path)
    assert all(np.array_equal(x.args[0], y.args[0]) for x, y in zip(a.items, b.items))
    assert not np.array_equal(a.items[0].args[0], c.items[0].args[0])
    for seconds in (1, 10, 60):
        items = workloads.Order(5, seconds, tmp_path).items
        near = sum(not it.main for it in items)
        assert near * (workloads.Order.MAIN_PER_ROUND + 1) == len(items)
    sloppy = next(it.args[0] for it in a.items if it.label == "sloppy")
    assert np.linalg.cond(sloppy) == pytest.approx(1e8, rel=1e-3)
