"""The benchmark's workloads: seeded inputs, the timed items, and their checks.

A workload is a fixed list of items built from ``--seed`` alone.  The list
is made of whole rounds of the same kinds of operation, so the number of
items, and of failed items, is a function of the run length and never of
the clock.  ``main`` items are the ones the latency and throughput
figures describe; the near-singular ``order`` items are attempted and
checked but kept out of those figures, since they are 3 x 3 matrices among
12 x 12 ones.
"""

import copy
import math
import time
from dataclasses import dataclass

import numpy as np

import checks
from qmet import experiments, stepwise
from qmet.errors import QmetError


@dataclass
class Item:
    main: bool
    args: tuple
    label: str = ""


@dataclass
class Pass:
    """Outputs and wall times of one pass over the item list."""

    outputs: list
    times: list
    elapsed: float
    artifact: object = None


def _rounds(seconds, per_second, minimum):
    return max(minimum, math.ceil(seconds * per_second))


def haar_state(rng, d):
    x = rng.standard_normal(2 * d)
    z = x[0::2] + 1j * x[1::2]
    return z / np.linalg.norm(z)


class Workload:
    name = ""
    writes_csv = False
    round_size = 1  # items per round; the list is whole rounds

    def __init__(self, items):
        self.items = items

    def sample(self, count):
        """A copy limited to the first ``count`` items, for traced side samples."""
        other = copy.copy(self)
        other.items = self.items[:count]
        return other

    def run_item(self, item):
        raise NotImplementedError

    def finish(self, outputs):
        """Work after the last item that belongs to the timed phase."""
        return None

    def check(self, timed):
        """(failure messages per item, failure messages of the run)."""
        raise NotImplementedError

    def matrices(self, tracer):
        """QFIMs this workload produced, for the direct linalg timings."""
        raise NotImplementedError

    def fingerprint(self, outputs):
        """What two passes over the same items must reproduce exactly."""
        raise NotImplementedError


class Scatter(Workload):
    """Haar qutrit probes of the three-parameter model over seeded parameter sets."""

    name = "scatter"
    writes_csv = True
    PROBES_PER_SET = 25
    SETS_PER_SECOND = 1.0
    RECHECK_EVERY = 10
    round_size = PROBES_PER_SET

    def __init__(self, seed, seconds, out_dir):
        rng = np.random.default_rng([seed, 1])
        n_sets = _rounds(seconds, self.SETS_PER_SECOND, 2)
        # parameter sets first, then the probes of each set, as run_scatter_study draws them
        sets = [
            (
                rng.uniform(0.5, 2.0),
                rng.uniform(-np.pi / 3.0, np.pi / 3.0),
                rng.uniform(0.0, 2.0 * np.pi),
                1.0,
            )
            for _ in range(n_sets)
        ]
        items = []
        for pset in sets:
            for _ in range(self.PROBES_PER_SET):
                items.append(Item(True, (len(items), pset, haar_state(rng, 3))))
        super().__init__(items)
        self.csv_path = out_dir / f"scatter-{seed}.csv"
        self.seed = seed

    def run_item(self, item):
        return experiments.scatter_row(*item.args)

    def finish(self, outputs):
        rows = [r for r in outputs if not isinstance(r, Exception)]
        experiments.write_csv(
            self.csv_path,
            experiments.SCATTER_HEADER,
            experiments.scatter_rows_to_csv(rows),
            {"workload": self.name, "seed": self.seed},
        )
        return self.csv_path

    def check(self, timed):
        per_item, ok_rows, written_index = [], [], {}
        for k, (item, row) in enumerate(zip(self.items, timed.outputs)):
            if isinstance(row, Exception):
                per_item.append([f"raised {row!r}"])
                continue
            written_index[k] = len(written_index)  # finish() writes every row that returned
            if row.flag != "ok":
                per_item.append([f"row flagged {row.flag}"])
                continue
            _, (b, theta, phi, t), probe = item.args
            q, u = checks.qutrit3_qu(b, theta, phi, t, probe)
            per_item.append(
                checks.check_scatter_row(q, u, row.c_h, row.c_sep_min, row.best_ordering)
            )
            ok_rows.append(row)
        run_fails = []
        below = sum(r.c_sep_min < r.c_h for r in ok_rows)
        if not 0 < below < len(ok_rows):
            run_fails.append(f"C_sep < C_H on {below} of {len(ok_rows)} rows, not strictly between")
        written = [
            line
            for line in timed.artifact.read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        if len(written) != len(written_index):
            run_fails.append(f"CSV holds {len(written)} rows, expected {len(written_index)}")
        else:
            for k in range(0, len(self.items), self.RECHECK_EVERY):
                if k not in written_index:
                    continue
                again = experiments.scatter_rows_to_csv([self.run_item(self.items[k])])[0]
                if ",".join(again) != written[written_index[k]]:
                    per_item[k].append("recomputed row differs from the CSV line")
        return per_item, run_fails

    def matrices(self, tracer):
        return [s[4]["q"] for s in tracer.by_name("models.eval_qutrit3")]

    def fingerprint(self, outputs):
        return [
            type(r).__name__ if isinstance(r, Exception) else experiments.scatter_rows_to_csv([r])
            for r in outputs
        ]


# Q_eps at eps = 1e-13: its 2 x 2 pivot lies below the DP's pivot tolerance
NEAR_SINGULAR_QFIM = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-13, 0.0], [0.0, 0.0, 2.0]])


class Order(Workload):
    """Held-Karp searches at n = 12 on well-conditioned and sloppy QFIMs.

    Each round holds four matrices of each family, alternating, and one
    near-singular 3 x 3 matrix whose bound DP and brute force must agree on.
    """

    name = "order"
    N = 12
    MAIN_PER_ROUND = 8
    ROUNDS_PER_SECOND = 0.15
    MIN_ROUNDS = 5
    round_size = MAIN_PER_ROUND + 1

    def __init__(self, seed, seconds, out_dir):
        rng = np.random.default_rng([seed, 2])
        items = []
        for _ in range(_rounds(seconds, self.ROUNDS_PER_SECOND, self.MIN_ROUNDS)):
            for k in range(self.MAIN_PER_ROUND):
                sloppy = k % 2 == 1
                items.append(
                    Item(True, (self._qfim(rng, sloppy),), "sloppy" if sloppy else "well")
                )
            items.append(Item(False, (NEAR_SINGULAR_QFIM,), "near-singular"))
        super().__init__(items)

    def _qfim(self, rng, sloppy):
        n = self.N
        if sloppy:
            basis, r = np.linalg.qr(rng.standard_normal((n, n)))
            basis = basis * np.sign(np.diag(r))
            q = basis @ np.diag(np.logspace(0.0, -8.0, n)) @ basis.T
        else:
            a = rng.standard_normal((n, n))
            q = a.T @ a + 0.3 * np.eye(n)
        return 0.5 * (q + q.T)

    def run_item(self, item):
        return stepwise.best_order_dp(item.args[0])

    def check(self, timed):
        per_item = []
        seen_family = set()
        for item, res in zip(self.items, timed.outputs):
            q = item.args[0]
            if not item.main:
                try:
                    brute = _pair(stepwise.best_order_bruteforce(q))
                except QmetError as exc:
                    brute = exc
                per_item.append(checks.check_existence(q, _pair(res), brute))
                continue
            if isinstance(res, Exception):
                per_item.append([f"raised {res!r}"])
                continue
            expansions = None
            if item.label not in seen_family:
                expansions = stepwise.dp_tables(q).expansions
                seen_family.add(item.label)
            per_item.append(checks.check_order_result(q, res.value, res.ordering, expansions))
        return per_item, []

    def matrices(self, tracer):
        return [item.args[0] for item in self.items if item.main]

    def fingerprint(self, outputs):
        return [
            type(r).__name__ if isinstance(r, Exception) else _pair(r)
            for r in outputs
        ]


def _pair(res):
    """(value, ordering) of a search result; a raised error stays as it is."""
    return res if isinstance(res, Exception) else (res.value, res.ordering)


class QubitSweep(Workload):
    """Closed-form bounds of seeded pure-qubit instances, written to CSV.

    One item is a 500-row sweep.  A single row takes about a millisecond,
    so the tail of single rows would be decided by the host's stalls of
    2-25 ms rather than by the program.
    """

    name = "qubit-sweep"
    writes_csv = True
    CHUNK_ROWS = 500
    CHUNKS_PER_ROUND = 4
    ROUNDS_PER_SECOND = 0.5
    round_size = CHUNKS_PER_ROUND

    def __init__(self, seed, seconds, out_dir):
        rng = np.random.default_rng([seed, 3])
        n_chunks = self.CHUNKS_PER_ROUND * _rounds(seconds, self.ROUNDS_PER_SECOND, 10)
        draws = []
        # drawn as run_qubit_sweep draws them, rejecting det Q below 1e-3
        while len(draws) < n_chunks * self.CHUNK_ROWS:
            rad = np.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * np.pi)
            alpha, beta = rad * np.cos(ang), rad * np.sin(ang)
            b = rng.uniform(0.3, 3.0)
            t = rng.uniform(0.3, 3.0)
            det_q = 4.0 * t**2 * np.sin(b * t / 2.0) ** 2 * (1.0 - alpha**2 - beta**2)
            if det_q >= 1e-3:
                draws.append((alpha, beta, b, t))
        size = self.CHUNK_ROWS
        super().__init__([Item(True, tuple(draws[k:k + size])) for k in range(0, len(draws), size)])
        self.csv_path = out_dir / f"qubit-sweep-{seed}.csv"
        self.seed = seed

    def run_item(self, item):
        return [experiments.qubit_sweep_row(*draw) for draw in item.args]

    def finish(self, outputs):
        rows = [r for chunk in outputs if not isinstance(chunk, Exception) for r in chunk]
        experiments.write_csv(
            self.csv_path,
            experiments.QUBIT_SWEEP_HEADER,
            experiments.qubit_rows_to_csv(rows),
            {"workload": self.name, "seed": self.seed},
        )
        return self.csv_path

    def check(self, timed):
        per_item, expected = [], 0
        for item, chunk in zip(self.items, timed.outputs):
            if isinstance(chunk, Exception):
                per_item.append([f"raised {chunk!r}"])
                continue
            expected += len(chunk)
            fails = []
            for draw, row in zip(item.args, chunk):
                fails += checks.check_qubit_row(row, *checks.qubit_qu(*draw))
            per_item.append(fails)
        lines = [
            line
            for line in timed.artifact.read_text().splitlines()
            if not line.startswith("#")
        ]
        run_fails = []
        if len(lines) != 1 + expected:
            run_fails.append(f"CSV holds {len(lines) - 1} rows, expected {expected}")
        return per_item, run_fails

    def matrices(self, tracer):
        return [s[4]["q"] for s in tracer.by_name("models.eval_qubit2")]

    def fingerprint(self, outputs):
        return [type(r).__name__ if isinstance(r, Exception) else r for r in outputs]


WORKLOADS = {w.name: w for w in (Scatter, Order, QubitSweep)}


def timed_pass(workload, tracer=None):
    """Run every item, then ``finish``; time each item and the whole phase."""
    outputs, times = [], []
    start = time.perf_counter()
    for k, item in enumerate(workload.items):
        if tracer is not None:
            tracer.item = k
        t0 = time.perf_counter()
        try:
            out = workload.run_item(item)
        except Exception as exc:  # a failed item is recorded, never fatal
            out = exc
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    if tracer is not None and workload.writes_csv:
        tracer.item = None
        with tracer.span("experiments.csv"):
            artifact = workload.finish(outputs)
    else:
        artifact = workload.finish(outputs)
    return Pass(outputs, times, time.perf_counter() - start, artifact)
