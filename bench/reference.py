"""Reference figures that the benchmark does not gate.

    python3 bench/reference.py dp --n 14 16
    python3 bench/reference.py threads --rows 100
    python3 bench/reference.py probe-opt --items 6 --restarts 1 4

``dp`` times one Held-Karp search per size on a seeded well-conditioned
QFIM.  ``threads`` runs the same scatter rows serially and with
``QMET_THREADS=2``.  ``probe-opt`` runs the probe optimization on seeded
(B, theta, t) and checks every converged probe by exact derivatives.
Each prints one JSON line per measurement.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from qmet import experiments, stepwise  # noqa: E402
from qmet.errors import NoConvergence  # noqa: E402


def dp(args):
    for n in args.n:
        rng = np.random.default_rng([args.seed, n])
        a = rng.standard_normal((n, n))
        q = a.T @ a + 0.3 * np.eye(n)
        t0 = time.perf_counter()
        res = stepwise.best_order_dp(q)
        elapsed = time.perf_counter() - t0
        ref = checks.stepwise_value(q, res.ordering)
        print(json.dumps({"dp_n": n, "seconds": elapsed, "value": res.value, "value_check": ref}))


def threads(args):
    rng = np.random.default_rng(args.seed)
    sets = [(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 6.28), 1.0)]
    probes = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(args.rows)]
    csv = {}
    for workers in ("1", "2", "1", "2"):
        os.environ["QMET_THREADS"] = workers
        t0 = time.perf_counter()
        rows, _ = experiments.run_scatter_study(multi_params=sets, probes=probes)
        elapsed = time.perf_counter() - t0
        csv.setdefault(workers, experiments.scatter_rows_to_csv(rows))
        print(json.dumps({"scatter_rows": args.rows, "QMET_THREADS": int(workers), "seconds": elapsed}))
    os.environ.pop("QMET_THREADS")
    print(json.dumps({"threads_same_rows": csv["1"] == csv["2"]}))


def probe_opt(args):
    calls = [0]
    evaluate = experiments.eval_qutrit2

    def counted(*a, **kw):
        calls[0] += 1
        return evaluate(*a, **kw)

    experiments.eval_qutrit2 = counted
    rng = np.random.default_rng(args.seed)
    draws = [
        (rng.uniform(0.5, 2.5), rng.uniform(-np.pi / 3.0, np.pi / 3.0), rng.uniform(0.5, 1.5))
        for _ in range(args.items)
    ]
    for restarts in args.restarts:
        for k, (b, theta, t) in enumerate(draws):
            calls[0] = 0
            t0 = time.perf_counter()
            try:
                res = experiments.optimize_qutrit_probe(b, theta, t, seed=k, restarts=restarts)
                status = "converged" if not checks.check_probe(b, theta, t, res.probe) else "check failed"
            except NoConvergence:
                status = "NoConvergence"
            print(json.dumps({
                "restarts": restarts, "B": b, "theta": theta, "t": t, "status": status,
                "seconds": time.perf_counter() - t0, "eval_qutrit2_calls": calls[0],
            }))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=7)
    sub = p.add_subparsers(dest="what", required=True)
    sub.add_parser("dp").add_argument("--n", type=int, nargs="+", default=[14, 16])
    sub.add_parser("threads").add_argument("--rows", type=int, default=100)
    probe = sub.add_parser("probe-opt")
    probe.add_argument("--items", type=int, default=6)
    probe.add_argument("--restarts", type=int, nargs="+", default=[1, 4])
    args = p.parse_args()
    {"dp": dp, "threads": threads, "probe-opt": probe_opt}[args.what](args)


if __name__ == "__main__":
    main()
