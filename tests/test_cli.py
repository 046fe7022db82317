import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmet.cli as cli
from qmet.cli import load_config, main
from qmet.errors import ConfigParseError, UnknownKeyError
from qmet.models import eval_qubit2, eval_qutrit2, eval_qutrit3


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestMatrixCommands:
    def test_csep_example(self, capsys):
        rc, out, _ = run(
            capsys, "csep", "--model", "matrix", "--q", "4,2;2,5", "--ordering", "2,1"
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["result"]["value"] == pytest.approx(1.0)
        assert doc["result"]["gammas"] == pytest.approx([0.5, 0.5])
        assert doc["config"]["command"] == "csep"

    def test_order_example(self, capsys):
        rc, out, _ = run(capsys, "order", "--model", "matrix", "--q", "4,2;2,5")
        assert rc == 0
        doc = json.loads(out)["result"]
        assert doc["value"] == pytest.approx(1.0)
        assert doc["ordering"] == [2, 1]
        assert doc["method"] == "dp"

    def test_order_brute_method(self, capsys):
        rc, out, _ = run(
            capsys, "order", "--model", "matrix", "--q", "4,2;2,5", "--method", "brute"
        )
        assert rc == 0
        assert json.loads(out)["result"]["method"] == "brute"

    def test_singular_matrix_exits_1(self, capsys):
        rc, _, err = run(capsys, "csep", "--model", "matrix", "--q", "1,2;2,1")
        assert rc == 1
        assert err.startswith("SingularQfim")

    def test_bounds_anchor(self, capsys):
        rc, out, _ = run(
            capsys, "bounds", "--model", "matrix", "--q", "1,0;0,4", "--u", "0,2;-2,0"
        )
        assert rc == 0
        doc = json.loads(out)["result"]
        assert doc["c_s"] == pytest.approx(1.25)
        assert doc["c_t"] == pytest.approx(2.25)
        assert doc["c_r"] == pytest.approx(2.5)
        assert doc["c_h"] == pytest.approx(2.25)
        assert doc["s"] == pytest.approx(0.25)

    def test_bad_matrix_exits_2(self, capsys):
        rc, _, err = run(capsys, "csep", "--model", "matrix", "--q", "1,2;nope,1")
        assert rc == 2
        assert "'q'" in err

    def test_non_finite_matrix_exits_2(self, capsys):
        for q in ("1,nan;nan,1", "1,0;inf,1"):
            rc, _, err = run(capsys, "bounds", "--model", "matrix", "--q", q)
            assert rc == 2
            assert "non-finite" in err

    def test_non_finite_field_named(self, capsys):
        cases = [
            ("csep", "--q", "2,0.3;0.3,nan", "'q'"),
            ("bounds", "--q", "1,nan;nan,1", "'q'"),
            ("bounds", "--u", "0,nan;nan,0", "'u'"),
            ("bounds", "--u", "0,inf;-inf,0", "'u'"),
            ("csep", "--weight", "nan,1", "'weight'"),
            ("csep", "--weight", "1,inf", "'weight'"),
            ("order", "--weight", "-inf,1", "'weight'"),
        ]
        for command, flag, value, field in cases:
            args = [command, "--model", "matrix", "--q", "2,0.3;0.3,1", f"{flag}={value}"]
            rc, out, err = run(capsys, *args)
            assert rc == 2, (args, out)
            assert err.startswith("ValidationError") and field in err and "non-finite" in err

    def test_asymmetric_matrix_exits_2(self, capsys):
        rc, _, err = run(capsys, "csep", "--model", "matrix", "--q", "1,2;3,4")
        assert rc == 2
        assert "'q'" in err

    def test_non_antisymmetric_u_exits_2(self, capsys):
        rc, _, err = run(
            capsys, "bounds", "--model", "matrix", "--q", "1,0;0,4", "--u", "0,2;2,0"
        )
        assert rc == 2
        assert "'u'" in err

    def test_zero_probe_exits_2(self, capsys):
        rc, _, err = run(
            capsys, "qfim", "--model", "qubit2", "--B", "1", "--theta", "0",
            "--t", "1", "--bloch", "0,0,0",
        )
        assert rc == 2
        rc, _, err = run(
            capsys, "qfim", "--model", "qutrit2", "--B", "1", "--theta", "0",
            "--t", "1", "--probe", "0,0,0,0,0,0",
        )
        assert rc == 2

    def test_self_check_guard(self, capsys, monkeypatch):
        import qmet.bounds as bounds_mod

        real = bounds_mod.compute_report

        def corrupted(q, u, w=None):
            report = real(q, u, w)
            object.__setattr__(report, "c_s", 100.0)
            return report

        monkeypatch.setattr(cli.bounds_mod, "compute_report", corrupted)
        rc, _, err = run(
            capsys, "bounds", "--model", "matrix", "--q", "1,0;0,4", "--u", "0,2;-2,0"
        )
        assert rc == 1
        assert err.startswith("SelfCheckFailed")


class TestModelCommands:
    def test_qfim_qubit(self, capsys):
        rc, out, _ = run(
            capsys, "qfim", "--model", "qubit2", "--B", "3.141592653589793",
            "--theta", "0", "--t", "1", "--bloch", "0,0,-1",
        )
        assert rc == 0
        doc = json.loads(out)["result"]
        assert np.allclose(doc["q"], [[1.0, 0.0], [0.0, 4.0]], atol=1e-12)
        assert abs(doc["u"][0][1]) == pytest.approx(2.0)

    def test_missing_required_field(self, capsys):
        rc, _, err = run(
            capsys, "qfim", "--model", "qubit2", "--B", "1", "--theta", "0",
            "--bloch", "0,0,-1",
        )
        assert rc == 2
        assert "'t'" in err

    @pytest.mark.parametrize(
        "model, probe_args, evaluate",
        [
            ("qubit2", ["--bloch", "0.6,0,0.8"], lambda p: eval_qubit2(1.3, 0.4, 0.9, p)),
            ("qutrit2", ["--probe", "0.6,0,0,0.8,0,0"], lambda p: eval_qutrit2(1.3, 0.4, 0.9, p)),
            (
                "qutrit3",
                ["--probe", "0.6,0,0,0.8,0,0", "--phi", "0.2"],
                lambda p: eval_qutrit3(1.3, 0.4, 0.2, 0.9, p),
            ),
        ],
    )
    def test_model_table(self, capsys, model, probe_args, evaluate):
        argv = ["--model", model, "--B", "1.3", "--theta", "0.4", "--t", "0.9", *probe_args]
        rc, out, _ = run(capsys, "qfim", *argv)
        assert rc == 0
        probe = [0.6, 0.0, 0.8] if model == "qubit2" else np.array([0.6, 0.8j, 0.0])
        ev = evaluate(probe)
        doc = json.loads(out)["result"]
        assert np.array_equal(doc["q"], ev.q) and np.array_equal(doc["u"], ev.u)
        rc, out, _ = run(capsys, "holevo", *argv)
        assert rc == 0
        assert json.loads(out)["result"]["status"] == "converged"

    @pytest.mark.parametrize("command", ["qfim", "holevo"])
    def test_missing_model(self, capsys, command):
        rc, _, err = run(capsys, command, "--B", "1", "--theta", "0", "--t", "1")
        assert rc == 2
        assert "'model'" in err

    def test_missing_probe(self, capsys):
        rc, _, err = run(
            capsys, "qfim", "--model", "qutrit2", "--B", "1", "--theta", "0", "--t", "1"
        )
        assert rc == 2
        assert "'probe'" in err

    def test_holevo_qubit(self, capsys):
        rc, out, _ = run(
            capsys, "holevo", "--model", "qubit2", "--B", "3.141592653589793",
            "--theta", "0", "--t", "1", "--bloch", "0,0,-1",
        )
        assert rc == 0
        doc = json.loads(out)["result"]
        assert doc["status"] == "converged"
        assert doc["value"] == pytest.approx(2.25, abs=1e-6)

    def test_holevo_weighted(self, capsys):
        rc, out, _ = run(
            capsys, "holevo", "--model", "qubit2", "--B", "3.141592653589793",
            "--theta", "0", "--t", "1", "--bloch", "0,0,-1", "--weight", "1,2",
        )
        assert rc == 0
        # Tr[W Q^-1] + 2 sqrt(det[W Q^-1]) = 1.5 + 2 sqrt(0.5)
        expected = 1.5 + 2.0 * np.sqrt(0.5)
        assert json.loads(out)["result"]["value"] == pytest.approx(expected, abs=1e-6)

    def test_bad_ordering_flag(self, capsys):
        rc, _, err = run(
            capsys, "csep", "--model", "matrix", "--q", "4,2;2,5", "--ordering", "1,1"
        )
        assert rc == 2
        assert "'ordering'" in err

    def test_bounds_three_parameter_extra_key(self, capsys):
        rc, out, _ = run(
            capsys, "bounds", "--model", "matrix",
            "--q", "2,0,0;0,3,0;0,0,4", "--u", "0,1,0;-1,0,0.5;0,-0.5,0",
        )
        assert rc == 0
        assert "t3_unnormalized" in json.loads(out)["result"]

    def test_csep_from_physical_model(self, capsys):
        rc, out, _ = run(
            capsys, "csep", "--model", "qubit2", "--B", "3.141592653589793",
            "--theta", "0", "--t", "1", "--bloch", "0,0,-1",
        )
        assert rc == 0
        assert json.loads(out)["result"]["value"] == pytest.approx(2.25)


class TestConfigFile:
    def test_flag_overrides_file(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# scatter configuration\nmodel=qutrit3\nB=1\ntheta=0.3\nphi=0.2\nt=1\nseed=3\n"
            "probe=1,0,0,0,0,0\n"
        )
        rc, out, _ = run(capsys, "qfim", "--config", str(path), "--seed", "7")
        assert rc == 0
        doc = json.loads(out)
        assert doc["config"]["seed"] == 7
        assert doc["config"]["model"] == "qutrit3"

    def test_unknown_key(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamma=0.5\n")
        rc, _, err = run(capsys, "qfim", "--config", str(path))
        assert rc == 2
        assert err.startswith("UnknownKeyError")
        with pytest.raises(UnknownKeyError):
            load_config(path)

    def test_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model=qubit2\nnot a key value pair\n")
        with pytest.raises(ConfigParseError, match="line 2"):
            load_config(path)
        rc, _, err = run(capsys, "qfim", "--config", str(path))
        assert rc == 2

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "qfim", "--config", str(tmp_path / "absent.cfg"))
        assert rc == 2


class TestSweepCommands:
    def test_qubit_sweep_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        rc, out, _ = run(
            capsys, "qubit-sweep", "--n-samples", "20", "--seed", "5",
            "--out", str(out_path),
        )
        assert rc == 0
        assert out.strip() == str(out_path)
        lines = out_path.read_text().strip().split("\n")
        comments = [l for l in lines if l.startswith("#")]
        assert any("seed=5" in c for c in comments)
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",") == [
            "alpha", "beta", "B", "t", "c_s", "c_t", "c_h", "c_sep_12", "c_sep_21", "R",
        ]
        assert len(lines) == len(comments) + 1 + 20

    def test_qubit_sweep_zero_samples_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        rc, _, err = run(
            capsys, "qubit-sweep", "--n-samples", "0", "--out", str(out_path)
        )
        assert rc == 2
        assert err.startswith("ValidationError")
        assert "'n_samples'" in err
        assert not out_path.exists()

    def test_scatter_artifact_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scatter", "--n-states", "4", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_scatter_rerun_from_embedded_config(self, capsys, tmp_path):
        first = tmp_path / "first.csv"
        assert main(["scatter", "--n-states", "3", "--seed", "21", "--out", str(first)]) == 0
        embedded = {}
        for line in first.read_text().split("\n"):
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                embedded[key] = value
        embedded.pop("command")
        cfg_path = tmp_path / "replay.cfg"
        cfg_path.write_text("\n".join(f"{k}={v}" for k, v in embedded.items()) + "\n")
        second = tmp_path / "second.csv"
        assert main(["scatter", "--config", str(cfg_path), "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_scatter_requires_out(self, capsys):
        rc, _, err = run(capsys, "scatter", "--n-states", "2")
        assert rc == 2
        assert "'out'" in err

    def test_scatter_multi_sets(self, capsys, tmp_path):
        out_path = tmp_path / "multi.csv"
        rc, out, _ = run(
            capsys, "scatter", "--n-states", "2", "--seed", "4", "--multi", "3",
            "--out", str(out_path),
        )
        assert rc == 0
        lines = [l for l in out_path.read_text().strip().split("\n") if not l.startswith("#")]
        assert len(lines) == 1 + 6  # header + 2 states x 3 parameter sets
        b_column = {line.split(",")[1] for line in lines[1:]}
        assert len(b_column) == 3

    def test_probe_opt(self, capsys):
        rc, out, _ = run(
            capsys, "probe-opt", "--B", "3.141592653589793", "--theta",
            "0.7853981633974483", "--t", "1",
        )
        assert rc == 0
        doc = json.loads(out)["result"]
        assert doc["residual_u"] <= 1e-6
        assert doc["qfim_deviation"] <= 1e-4
        assert len(doc["probe"]) == 6

    def test_probe_opt_degenerate_exits_1(self, capsys):
        rc, _, err = run(
            capsys, "probe-opt", "--B", "6.283185307179586", "--theta", "0.7",
            "--t", "1",
        )
        assert rc == 1
        assert err.startswith("SingularQfim")


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["csep", "--nope", "1"]) == 2


def test_module_entry_point():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qmet.cli", "order", "--model", "matrix", "--q", "4,2;2,5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["ordering"] == [2, 1]


def test_sweep_csv_independent_of_hash_seed(tmp_path):
    # two keys outside the scatter defaults used to come out in hash order
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2", "3", "4"):
        out_path = tmp_path / f"scatter_{hash_seed}.csv"
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "qmet.cli", "scatter", "--multi", "1", "--n-states", "2",
             "--seed", "1", "--model", "qutrit3", "--out", str(out_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_path.read_bytes())
    assert all(out == outputs[0] for out in outputs)
    assert b"# seed=1\n# model=qutrit3\n# multi=1\nindex," in outputs[0]
