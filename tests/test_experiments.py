import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qmet.bounds as bounds
import qmet.cli as cli
import qmet.experiments as experiments
import qmet.linalg as linalg
import qmet.models as models
import qmet.stepwise as stepwise
from qmet.bounds import c_sld, compute_report
from qmet.errors import NoConvergence, SingularQfim
from qmet.experiments import (
    SCATTER_HEADER,
    draw_parameter_sets,
    haar_pure_state,
    optimize_qutrit_probe,
    qubit_sweep_row,
    qubit_rows_to_csv,
    run_scatter_study,
    run_qubit_sweep,
    scatter_row,
    scatter_rows_to_csv,
    write_csv,
    QUBIT_SWEEP_HEADER,
)
from qmet.models import (
    eval_qubit2,
    eval_qutrit2,
    eval_qutrit3,
    geometry_vectors,
    spin_one_operators,
)
from qmet.stepwise import best_order_dp


class TestHaarSampling:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 4):
            for _ in range(50):
                psi = haar_pure_state(d, rng)
                assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_first_moment(self):
        # |<e1|psi>|^2 ~ Beta(1, d-1): mean 1/d, var (d-1)/(d^2 (d+1))
        d, n = 3, 100_000
        rng = np.random.default_rng(1)
        vals = np.array([abs(haar_pure_state(d, rng)[0]) ** 2 for _ in range(n)])
        sigma = np.sqrt((d - 1.0) / (d**2 * (d + 1.0)) / n)
        assert abs(np.mean(vals) - 1.0 / d) <= 3.0 * sigma

    def test_reproducible_stream(self):
        a = haar_pure_state(3, np.random.default_rng(42))
        b = haar_pure_state(3, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestQubitSweep:
    def test_anchor_row(self):
        row = qubit_sweep_row(0.0, 0.0, np.pi, 1.0)
        assert row["c_s"] == pytest.approx(1.25, abs=1e-12)
        assert row["c_h"] == pytest.approx(2.25, abs=1e-12)
        assert row["c_t"] == pytest.approx(2.25, abs=1e-12)
        assert row["c_sep_12"] == pytest.approx(2.25, abs=1e-12)
        assert row["c_sep_21"] == pytest.approx(2.25, abs=1e-12)
        assert row["R"] == pytest.approx(1.0, abs=1e-12)

    def test_no_violations(self):
        rows, summary = run_qubit_sweep(n_samples=2000, seed=7)
        assert summary["violations"] == 0
        assert summary["max_margin"] <= 1e-9
        assert summary["max_r_error"] <= 1e-9
        assert len(rows) == 2000

    def test_csv_shape(self, tmp_path):
        rows, _ = run_qubit_sweep(n_samples=5, seed=1)
        path = tmp_path / "sweep.csv"
        write_csv(path, QUBIT_SWEEP_HEADER, qubit_rows_to_csv(rows), {"seed": 1})
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# seed=1"
        assert lines[1] == ",".join(QUBIT_SWEEP_HEADER)
        assert len(lines) == 2 + 5

    def test_deterministic(self):
        a, _ = run_qubit_sweep(n_samples=50, seed=3)
        b, _ = run_qubit_sweep(n_samples=50, seed=3)
        assert qubit_rows_to_csv(a) == qubit_rows_to_csv(b)

    def test_count_below_one_rejected(self):
        for n in (0, -3):
            with pytest.raises(ValueError, match="n_samples"):
                run_qubit_sweep(n_samples=n)

    def test_floats_round_trip_through_csv(self):
        # 17 significant digits reproduce binary doubles exactly
        rows, _ = run_qubit_sweep(n_samples=10, seed=2)
        for row, printed in zip(rows, qubit_rows_to_csv(rows)):
            for key, text in zip(QUBIT_SWEEP_HEADER, printed):
                assert float(text) == row[key]


def _legacy_csv(header, rows, config):
    """The file text as the writer once built it whole: the oracle for its bytes."""
    lines = [f"# {key}={value}" for key, value in config.items()]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _peak_traced_bytes(call):
    """The peak of Python allocations traced while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriteCsv:
    CONFIG = {"command": "qubit-sweep", "seed": 1}

    @pytest.mark.parametrize("kind", ["list", "generator", "empty"])
    def test_bytes_equal_legacy_join(self, tmp_path, kind):
        table = qubit_rows_to_csv(run_qubit_sweep(n_samples=5, seed=1)[0])
        if kind == "empty":
            table = []
        rows = (row for row in table) if kind == "generator" else table
        path = tmp_path / "sweep.csv"
        write_csv(path, QUBIT_SWEEP_HEADER, rows, self.CONFIG)
        assert path.read_bytes() == _legacy_csv(QUBIT_SWEEP_HEADER, table, self.CONFIG).encode()

    def test_raising_rows_leave_partial_file(self, tmp_path):
        def rows():
            yield ["1", "2"]
            raise RuntimeError("row 2")

        path = tmp_path / "partial.csv"
        with pytest.raises(RuntimeError, match="row 2"):
            write_csv(path, ["a", "b"], rows(), {"seed": 1})
        assert path.read_text() == "# seed=1\na,b\n1,2\n"

    def test_writer_memory_independent_of_row_count(self, tmp_path):
        # a writer that joins the whole file text peaks at 12.6 MiB here
        values = np.random.default_rng(0).standard_normal((20_000, len(QUBIT_SWEEP_HEADER)))
        table = qubit_rows_to_csv([dict(zip(QUBIT_SWEEP_HEADER, v)) for v in values])
        path = tmp_path / "big.csv"
        peak = _peak_traced_bytes(lambda: write_csv(path, QUBIT_SWEEP_HEADER, table, self.CONFIG))
        assert peak < 256 * 1024
        assert path.read_bytes() == _legacy_csv(QUBIT_SWEEP_HEADER, table, self.CONFIG).encode()

    def test_cli_sweep_streams_its_table(self, tmp_path, capsys):
        # rows are formatted as they are written; a whole table joined into one text peaks at 4.1 MiB
        def sweep(n):
            argv = ["qubit-sweep", "--n-samples", str(n), "--seed", "7", "--out", str(tmp_path / "s.csv")]
            assert cli.main(argv) == 0

        sweep(5)  # warm-up: first-call allocations are not the sweep's
        assert _peak_traced_bytes(lambda: sweep(2000)) < 2 * 1024 * 1024
        capsys.readouterr()


def _count_calls(monkeypatch, name):
    """Record every call of ``linalg.<name>`` from any module that imported it."""
    calls = []
    real = getattr(linalg, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for mod in (linalg, stepwise, bounds, experiments, models):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, spy)
    return calls


class TestFactorizationCounts:
    """Each QFIM is validated and factored once; csep_ordered refactors its own order."""

    def test_qubit_sweep_row(self, monkeypatch):
        factored = _count_calls(monkeypatch, "_cholesky")
        validated = _count_calls(monkeypatch, "_checked_symmetric")
        qubit_sweep_row(0.3, -0.2, 1.3, 0.9)
        # one qfim plus one factorization for each of the two orderings
        assert (len(factored), len(validated)) == (3, 1)

    def test_compute_report(self, monkeypatch):
        ev2 = eval_qubit2(1.3, 0.0, 0.9, [0.3, -0.2, np.sqrt(0.87)])
        ev3 = eval_qutrit3(1.0, np.pi / 7.0, np.pi / 5.0, 1.0, haar_pure_state(3, np.random.default_rng(4)))
        factored = _count_calls(monkeypatch, "_cholesky")
        validated = _count_calls(monkeypatch, "_checked_symmetric")
        for ev in (ev2, ev3):
            report = compute_report(ev.q, ev.u)
            assert (len(factored), len(validated)) == (1, 1)
            factored.clear()
            validated.clear()
        assert report.t3_unnormalized is not None


class TestScatter:
    def test_small_run_populates_summary(self):
        rows, summary = run_scatter_study(n_states=40, seed=11)
        assert summary["n_rows"] == 40
        assert summary["n_ok"] == 40
        assert 0.0 <= summary["frac_csep_below_ch"] <= 1.0

    def test_rows_rederivable(self):
        rows, _ = run_scatter_study(n_states=8, seed=5)
        for r in rows:
            ev = eval_qutrit3(r.b, r.theta, r.phi, r.t, r.probe)
            res = best_order_dp(ev.q)
            assert res.value == pytest.approx(r.c_sep_min, rel=1e-10)
            assert res.ordering == r.best_ordering
            redo = scatter_row(r.index, (r.b, r.theta, r.phi, r.t), r.probe)
            assert redo.c_h == pytest.approx(r.c_h, rel=1e-7)

    def test_singular_probe_flagged(self):
        # a J_ntheta eigenstate has zero variance: Q_BB = 0, so the row is flagged
        b, theta, phi, t = 1.0, np.pi / 7.0, np.pi / 5.0, 1.0
        from helpers import geometry_vectors3

        n_theta, _, _ = geometry_vectors3(b, theta, phi, t)
        j = np.stack(spin_one_operators())
        jn = np.tensordot(n_theta, j, axes=1)
        _, vecs = np.linalg.eigh(jn)
        probe = vecs[:, 1]  # m = 0 eigenvector
        rows, summary = run_scatter_study(
            params=(b, theta, phi, t), n_states=1, seed=0, probes=[probe]
        )
        assert rows[0].flag == "singular_qfim"
        assert summary["n_ok"] == 0
        assert np.isnan(summary["frac_csep_below_ch"])

    @pytest.mark.parametrize("status", ["stalled", "max_iter"])
    def test_unconverged_solve_flagged(self, monkeypatch, status):
        solve = experiments.holevo_bound
        monkeypatch.setattr(
            experiments, "holevo_bound", lambda *a: replace(solve(*a), status=status)
        )
        probe = haar_pure_state(3, np.random.default_rng(3))
        row = scatter_row(0, (1.0, np.pi / 7.0, np.pi / 5.0, 1.0), probe)
        assert row.c_h_status == status
        assert row.flag == "sdp_" + status

    def test_singular_holevo_flagged(self, monkeypatch):
        # one handler serves both bounds: a SingularQfim from the Holevo solve
        # flags the row instead of aborting the sweep
        def singular(*args):
            raise SingularQfim("squared pivot at index 0 is at or below tolerance")

        monkeypatch.setattr(experiments, "holevo_bound", singular)
        probe = haar_pure_state(3, np.random.default_rng(3))
        row = scatter_row(0, (1.0, np.pi / 7.0, np.pi / 5.0, 1.0), probe)
        assert row.flag == "singular_qfim"
        assert np.isnan(row.c_h) and row.c_h_status == ""

    def test_multi_param_sets(self):
        rows, _ = run_scatter_study(n_states=3, seed=9, multi_params=2)
        assert len(rows) == 6
        assert len({(r.b, r.theta, r.phi) for r in rows}) == 2
        sets = draw_parameter_sets(4, np.random.default_rng(0))
        assert len(sets) == 4
        for b, theta, phi, t in sets:
            assert 0.5 <= b <= 2.0 and abs(theta) <= np.pi / 3.0 and t == 1.0

    @pytest.mark.parametrize("kwargs, name", [
        ({"n_states": 0}, "n_states"),
        ({"n_states": -3}, "n_states"),
        ({"multi_params": 0}, "multi_params"),
        ({"multi_params": -2}, "multi_params"),
    ])
    def test_count_below_one_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            run_scatter_study(**kwargs)

    def test_csv_roundtrip_deterministic(self, tmp_path):
        config = {"command": "scatter", "seed": 13, "n_states": 6}
        out = []
        for k in range(2):
            rows, _ = run_scatter_study(n_states=6, seed=13)
            path = tmp_path / f"scatter{k}.csv"
            write_csv(path, SCATTER_HEADER, scatter_rows_to_csv(rows), config)
            out.append(path.read_bytes())
        assert out[0] == out[1]


class TestProbeOptimization:
    def test_reference_point(self):
        res = optimize_qutrit_probe(np.pi, np.pi / 4.0, 1.0, seed=3, restarts=8)
        assert res.residual_u <= 1e-6
        assert res.qfim_deviation <= 1e-4
        ev = eval_qutrit2(np.pi, np.pi / 4.0, 1.0, res.probe)
        assert c_sld(ev.q) == pytest.approx(0.3125, rel=1e-4)

    def test_residuals_rederivable(self):
        res = optimize_qutrit_probe(1.3, 0.4, 0.9, seed=5, restarts=6)
        ev = eval_qutrit2(1.3, 0.4, 0.9, res.probe)
        target = np.diag([4.0 * 0.9**2, 16.0 * np.sin(1.3 * 0.9 / 2.0) ** 2])
        assert np.linalg.norm(ev.u) == pytest.approx(res.residual_u, abs=1e-12)
        assert np.linalg.norm(ev.q - target) == pytest.approx(
            res.qfim_deviation, abs=1e-12
        )

    def test_degenerate_angle_fails(self):
        # B t = 2 pi freezes the theta row of the QFIM, which the pivot rule finds singular
        with pytest.raises(SingularQfim):
            optimize_qutrit_probe(2.0 * np.pi, 0.7, 1.0, seed=1, restarts=2)

    def test_failed_self_check_raises(self, monkeypatch):
        evaluate = experiments.eval_qutrit2

        def curved(*args):
            ev = evaluate(*args)
            return replace(ev, u=ev.u + np.array([[0.0, 1e-3], [-1e-3, 0.0]]))

        monkeypatch.setattr(experiments, "eval_qutrit2", curved)
        with pytest.raises(NoConvergence) as info:
            optimize_qutrit_probe(1.3, 0.4, 0.9)
        assert info.value.result.residual_u == pytest.approx(np.sqrt(2.0) * 1e-3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.05, 6.0),
        st.floats(-np.pi, np.pi),
        st.floats(0.05, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_closed_form_is_optimal(self, b, theta, t, seed):
        s = np.sin(b * t / 2.0)
        assume(abs(s) >= 1e-2)
        res = optimize_qutrit_probe(b, theta, t)
        ev = eval_qutrit2(b, theta, t, res.probe)
        target = np.diag([4.0 * t**2, 16.0 * s**2])
        assert np.linalg.norm(ev.u) <= 1e-12
        assert np.linalg.norm(ev.q - target) <= 1e-12 * np.linalg.norm(target)
        # <J_n2^2> = 0 makes the probe the m = 0 eigenvector of J_n2
        j_2 = np.tensordot(geometry_vectors(b, theta, t)[2], np.stack(spin_one_operators()), axes=1)
        assert abs(np.vdot(res.probe, j_2 @ j_2 @ res.probe)) <= 1e-12
        best = c_sld(ev.q)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            other = eval_qutrit2(b, theta, t, haar_pure_state(3, rng))
            assert c_sld(other.q) >= best * (1.0 - 1e-12)


def test_cli_import_leaves_out_scipy_optimize():
    code = "import sys, qmet.cli; print('scipy.optimize' in sys.modules)"
    src = str(Path(experiments.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
