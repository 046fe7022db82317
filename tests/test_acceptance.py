"""Acceptance suite: one test per criterion, each pinned to its tolerance
and runtime budget, printing a PASS line (run with ``pytest -v -s``)."""

import time
from itertools import permutations

import numpy as np
import pytest

from qmet.bounds import (
    c_holevo_qubit_pure,
    c_r,
    c_sld,
    c_t,
    quantumness_R,
    quantumness_T,
    sloppiness,
    t2_closed,
    threshold_csep_vs,
)
from qmet.cli import main as cli_main
from qmet.experiments import optimize_qutrit_probe
from qmet.holevo import holevo_bound, verify_sandwich
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
)

from helpers import qubit_instance, rand_spd, simplex_min_csep, step_terms_by_inversion


def _report(number, elapsed, limit, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {number}: PASS in {elapsed:.1f}s / limit {limit}s{suffix}")


def _qubit_qu(rng, theta=None):
    alpha, beta, b, t = qubit_instance(rng)
    th = rng.uniform(-np.pi, np.pi) if theta is None else theta
    n_t, n_1, n_2 = geometry_vectors(b, th, t)
    r0 = alpha * n_t + beta * n_1 + np.sqrt(1.0 - alpha**2 - beta**2) * n_2
    return eval_qubit2(b, th, t, r0), (alpha, beta, b, t, th, r0)


def test_criterion_1_closed_form_vs_simplex_oracle():
    limit, start = 30.0, time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        q = rand_spd(rng, n)
        order = tuple(rng.permutation(n) + 1)
        value = csep_ordered(q, order).value
        oracle = simplex_min_csep(step_terms_by_inversion(q, order))
        worst = max(worst, abs(value - oracle) / value)
        assert abs(value - oracle) / value <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed <= limit
    _report(1, elapsed, 30, f"worst rel dev {worst:.2e}")


def test_criterion_2_cholesky_identity():
    limit, start = 5.0, time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        q = rand_spd(rng, n)
        reverse = tuple(range(n, 0, -1))
        a = csep_cholesky(q)
        b = csep_ordered(q, reverse).value
        # csep_ordered rests on the same Cholesky identity; direct inversion does not
        c = float(np.sum(np.sqrt(step_terms_by_inversion(q, reverse))) ** 2)
        dev = max(abs(a - b), abs(a - c)) / max(1.0, abs(a))
        worst = max(worst, dev)
        assert dev <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed <= limit
    _report(2, elapsed, 5, f"worst scaled dev {worst:.2e}")


def test_criterion_3_order_independent_brackets():
    limit, start = 60.0, time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        q = rand_spd(rng, n)
        br = brackets(q)
        slack = 1e-9 * max(1.0, br.upper)
        assert br.harmonic_lower <= br.geometric_lower + slack
        saturated_low = saturated_high = False
        for perm in permutations(range(1, n + 1)):
            v = csep_ordered(q, perm).value
            assert br.geometric_lower <= v + slack
            assert v <= br.upper + slack
            saturated_low = saturated_low or abs(v - br.geometric_lower) <= slack
            saturated_high = saturated_high or abs(v - br.upper) <= slack
        if saturated_low and saturated_high:
            scale = np.trace(q) / n
            assert np.linalg.norm(q - scale * np.eye(n)) <= 1e-8
    # saturation of both outer bounds on Q = c I, and only there
    for c in (0.5, 1.0, 3.0):
        for n in (2, 3, 4):
            br = brackets(c * np.eye(n))
            v = csep_ordered(c * np.eye(n)).value
            assert br.harmonic_lower == pytest.approx(v, rel=1e-12)
            assert br.geometric_lower == pytest.approx(v, rel=1e-12)
            assert br.upper == pytest.approx(v, rel=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed <= limit
    _report(3, elapsed, 60)


def test_criterion_4_dp_equals_brute_force():
    limit, start = 60.0, time.monotonic()
    rng = np.random.default_rng(404)
    worst = 0.0
    for n in range(2, 7):
        for _ in range(200):
            q = rand_spd(rng, n)
            dp = best_order_dp(q)
            bf = best_order_bruteforce(q)
            dev = abs(dp.value - bf.value)
            worst = max(worst, dev)
            assert dev <= 1e-9 * max(1.0, bf.value)
    elapsed = time.monotonic() - start
    assert elapsed <= limit
    _report(4, elapsed, 60, f"worst |dp-bf| {worst:.2e}")


def test_criterion_5_pure_qubit_identities():
    limit, start = 60.0, time.monotonic()
    rng = np.random.default_rng(505)
    for _ in range(10_000):
        ev, _ = _qubit_qu(rng)
        q, u = ev.q, ev.u
        assert abs(quantumness_R(q, u) - 1.0) <= 1e-9
        det_q = float(np.linalg.det(q))
        assert abs(det_q - u[0, 1] ** 2) <= 1e-8 * det_q
        ch = c_holevo_qubit_pure(q, u=u)
        via_t2 = c_sld(q) * (1.0 + t2_closed(q, u))
        assert abs(ch - via_t2) <= 1e-9 * max(1.0, ch)
        csep_min = min(csep_ordered(q, (1, 2)).value, csep_ordered(q, (2, 1)).value)
        assert csep_min <= ch + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed <= limit
    _report(5, elapsed, 60)


def test_criterion_6_worked_anchor_instance():
    limit, start = 1.0, time.monotonic()
    _, _, n_2 = geometry_vectors(np.pi, 0.0, 1.0)
    ev = eval_qubit2(np.pi, 0.0, 1.0, n_2)
    assert np.allclose(ev.q, np.diag([1.0, 4.0]), atol=1e-12)
    assert abs(abs(ev.u[0, 1]) - 2.0) <= 1e-12
    assert abs(c_sld(ev.q) - 1.25) <= 1e-9
    assert abs(quantumness_T(ev.q, ev.u) - 0.8) <= 1e-9
    assert abs(c_t(ev.q, ev.u) - 2.25) <= 1e-9
    assert abs(c_holevo_qubit_pure(ev.q, u=ev.u) - 2.25) <= 1e-9
    assert abs(csep_ordered(ev.q, (1, 2)).value - 2.25) <= 1e-9
    assert abs(c_r(ev.q, ev.u) - 2.5) <= 1e-9
    assert abs(sloppiness(ev.q) - 0.25) <= 1e-9
    verdict = threshold_csep_vs("c_t", ev.q, ev.u)
    det_u = ev.u[0, 1] ** 2
    assert abs(verdict.threshold_value - 1.0 / det_u) <= 1e-9
    assert abs(sloppiness(ev.q) - verdict.threshold_value) <= 1e-9  # equality case
    assert verdict.predicate_holds and verdict.direct_comparison
    elapsed = time.monotonic() - start
    assert elapsed <= limit
    _report(6, elapsed, 1)


def test_criterion_7_holevo_solver_vs_closed_form():
    limit, start = 120.0, time.monotonic()
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(200):
        ev, (alpha, beta, b, t, th, r0) = _qubit_qu(rng)
        model = qubit2_model(r0, t)
        rho, drho = density_and_derivatives(model, [b, th])
        sol = holevo_bound(rho, drho)
        assert sol.status == "converged"
        closed = c_holevo_qubit_pure(ev.q, u=ev.u)
        dev = abs(sol.value - closed) / closed
        worst = max(worst, dev)
        assert dev <= 1e-4
        assert verify_sandwich(sol, ev.q, ev.u)
    elapsed = time.monotonic() - start
    assert elapsed <= limit
    _report(7, elapsed, 120, f"worst rel dev {worst:.2e}")


def test_criterion_8_qutrit_probe_optimization():
    limit, start = 120.0, time.monotonic()
    b, theta, t = np.pi, np.pi / 4.0, 1.0
    res = optimize_qutrit_probe(b, theta, t, seed=808, restarts=32)
    assert res.residual_u <= 1e-6
    assert res.qfim_deviation <= 1e-4
    ev = eval_qutrit2(b, theta, t, res.probe)
    s = np.sin(b * t / 2.0)
    target_cs = (4.0 / t**2 + 1.0 / s**2) / 16.0
    assert abs(c_sld(ev.q) - target_cs) / target_cs <= 1e-4
    elapsed = time.monotonic() - start
    assert elapsed <= limit
    _report(
        8, elapsed, 120,
        f"||U||={res.residual_u:.1e}, ||Q-Q*||={res.qfim_deviation:.1e}",
    )


SCATTER_ARGS = ["scatter", "--n-states", "2000", "--seed", "1234"]


@pytest.fixture(scope="module")
def scatter_artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "scatter.csv"
    start = time.monotonic()
    rc = cli_main(SCATTER_ARGS + ["--out", str(out)])
    elapsed = time.monotonic() - start
    assert rc == 0
    return out, elapsed


def _parse_scatter(path):
    rows = []
    lines = path.read_text().strip().split("\n")
    header = None
    for line in lines:
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return rows


def test_criterion_9_scatter_qualitative_regions(scatter_artifact):
    path, elapsed = scatter_artifact
    limit = 600.0
    rows = _parse_scatter(path)
    ok = [r for r in rows if r["flag"] == "ok"]
    assert len(rows) == 2000
    c_h = np.array([float(r["c_h"]) for r in ok])
    c_sep = np.array([float(r["c_sep_min"]) for r in ok])
    n_sep_tighter = int(np.sum(c_sep < c_h))
    n_h_tighter = int(np.sum(c_h < c_sep))
    assert n_sep_tighter > 0 and n_h_tighter > 0
    decile = np.argsort(c_h)[: len(ok) // 10]
    frac = float(np.mean(c_h[decile] < c_sep[decile]))
    assert frac >= 0.5
    assert elapsed <= limit
    _report(
        9, elapsed, 600,
        f"{n_sep_tighter}/{len(ok)} with C_sep<C_H; low-C_H decile {frac:.0%} C_H<C_sep",
    )


def test_criterion_10_threshold_predicate_consistency():
    limit, start = 30.0, time.monotonic()
    rng = np.random.default_rng(1010)
    diagnostic_disagreements = 0
    for _ in range(10_000):
        ev, _ = _qubit_qu(rng)
        s = sloppiness(ev.q)
        for target in ("c_s", "c_t", "c_r"):
            verdict = threshold_csep_vs(target, ev.q, ev.u)
            assert verdict.predicate_holds == verdict.direct_comparison
            if target == "c_s":
                alt = bool(s >= verdict.diagnostic_threshold * (1.0 - 1e-9))
                if alt != verdict.predicate_holds:
                    diagnostic_disagreements += 1
    elapsed = time.monotonic() - start
    assert elapsed <= limit
    # the two printed C_S threshold forms are logged, not failed
    _report(
        10, elapsed, 30,
        f"conditionCS alternative-form predicate disagreements: {diagnostic_disagreements}",
    )


def test_criterion_11_scatter_determinism(scatter_artifact, tmp_path):
    path, first_elapsed = scatter_artifact
    start = time.monotonic()
    again = tmp_path / "scatter_repeat.csv"
    rc = cli_main(SCATTER_ARGS + ["--out", str(again)])
    elapsed = time.monotonic() - start
    assert rc == 0
    assert path.read_bytes() == again.read_bytes()
    _report(11, elapsed, 600, "byte-identical CSV on rerun")
