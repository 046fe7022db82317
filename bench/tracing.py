"""Spans around the calls into the program's layers, recorded from outside.

The tracer replaces public functions of the ``qmet`` modules with wrappers
for the duration of a traced pass and restores them afterwards; no file of
the program changes.  A wrapper is installed in the namespace the caller
looks the name up in, so ``experiments.scatter_row`` reaches the traced
``best_order_dp`` through ``experiments.best_order_dp``.  Spans (name,
start, end, parent) stay in memory until the run writes them out.
"""

import gzip
import statistics
import time
from contextlib import contextmanager

from qmet import experiments, stepwise


def _holevo_info(sol):
    return {"iterations": sol.iterations, "unconverged": int(sol.status != "converged")}


def _dp_info(tables):
    return {"expansions": tables.expansions}


def _keep_q(ev):
    return {"q": ev.q}


# (module, attribute, span name, function extracting span info from the result)
PATCHES = [
    (experiments, "eval_qutrit3", "models.eval_qutrit3", _keep_q),
    (experiments, "density_and_derivatives", "models.density_and_derivatives", None),
    (experiments, "eval_qubit2", "models.eval_qubit2", _keep_q),
    (experiments, "best_order_dp", "stepwise.best_order_dp", None),
    (stepwise, "best_order_dp", "stepwise.best_order_dp", None),
    (stepwise, "dp_tables", "stepwise.dp_tables", _dp_info),
    (stepwise, "csep_ordered", "stepwise.csep_ordered", None),
    (experiments, "csep_ordered", "stepwise.csep_ordered", None),
    (experiments, "holevo_bound", "holevo.holevo_bound", _holevo_info),
    (experiments, "c_sld", "bounds.c_sld", None),
    (experiments, "c_t_bound", "bounds.c_t", None),
    (experiments, "c_holevo_qubit_pure", "bounds.c_holevo_qubit_pure", None),
    (experiments, "quantumness_R", "bounds.quantumness_R", None),
    (experiments, "scatter_row", "experiments.scatter_row", None),
    (experiments, "qubit_sweep_row", "experiments.qubit_sweep_row", None),
]


class Tracer:
    """In-memory span store with a parent stack."""

    def __init__(self, segment):
        self.segment = segment
        self.spans = []  # [name, start, end, parent, info, item index]
        self.item = None
        self._stack = [-1]

    @contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], None, self.item])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, info):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if info is not None:
                self.spans[sid][4] = info(result)
            return result

        return traced

    def by_name(self, name, items=None):
        """Spans called ``name``, optionally only those inside the given items."""
        return [s for s in self.spans if s[0] == name and (items is None or s[5] in items)]


@contextmanager
def installed(tracer):
    """Route the patched functions through ``tracer``; restore them on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHES]
    try:
        for (mod, attr, name, info), (_, _, fn) in zip(PATCHES, saved):
            setattr(mod, attr, tracer.wrap(name, fn, info))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def write_spans(path, tracers):
    """One CSV line per span: segment, id, name, start, end, parent, item."""
    with gzip.open(path, "wt") as fh:
        fh.write("segment,id,name,start,end,parent,item\n")
        for tracer in tracers:
            for sid, (name, start, end, parent, _, item) in enumerate(tracer.spans):
                fh.write(f"{tracer.segment},{sid},{name},{start!r},{end!r},{parent},{item}\n")


def _durations(spans, scale):
    return [scale * (s[2] - s[1]) for s in spans]


def _median(values):
    return statistics.median(values) if values else float("nan")


def _self_times(tracer, name, scale):
    """Duration of each ``name`` span minus the time of its direct children."""
    child_time = {}
    for s in tracer.spans:
        if s[3] >= 0:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
    return [
        scale * (s[2] - s[1] - child_time.get(sid, 0.0))
        for sid, s in enumerate(tracer.spans)
        if s[0] == name
    ]


def _median_of(name, scale):
    return lambda tr, items: _median(_durations(tr.by_name(name, items), scale))


def _per_item(name, key):
    def metric(tr, items):
        return sum(s[4][key] for s in tr.by_name(name, items)) / max(1, len(items))

    return metric


def _dp_ns_per_expansion(tr, items):
    spans = tr.by_name("stepwise.dp_tables", items)
    return _median([1e9 * (s[2] - s[1]) / s[4]["expansions"] for s in spans])


def _iteration_ms(tr, items):
    spans = tr.by_name("holevo.holevo_bound", items)
    return _median([1e3 * (s[2] - s[1]) / max(1, s[4]["iterations"]) for s in spans])


def _unconverged(tr, items):
    return sum(s[4]["unconverged"] for s in tr.by_name("holevo.holevo_bound", items))


def _row_self_us(tr, items):
    return _median(
        _self_times(tr, "experiments.scatter_row", 1e6)
        + _self_times(tr, "experiments.qubit_sweep_row", 1e6)
    )


SCATTER, ORDER, QUBIT = "scatter", "order", "qubit-sweep"

# name -> (unit, home workloads, metric(tracer, main item indices)); a traced run
# of workload W reads a metric from W's own spans when W is one of its homes,
# and otherwise from a traced sample of its first home.
SPAN_METRICS = {
    "models.eval_qutrit3_us": ("us", [SCATTER], _median_of("models.eval_qutrit3", 1e6)),
    "models.density_us": ("us", [SCATTER], _median_of("models.density_and_derivatives", 1e6)),
    "models.eval_qubit2_us": ("us", [QUBIT], _median_of("models.eval_qubit2", 1e6)),
    "stepwise.dp_ms": ("ms", [ORDER, SCATTER], _median_of("stepwise.best_order_dp", 1e3)),
    "stepwise.dp_expansions": ("count", [ORDER, SCATTER], _per_item("stepwise.dp_tables", "expansions")),
    "stepwise.dp_ns_per_expansion": ("ns", [ORDER, SCATTER], _dp_ns_per_expansion),
    "stepwise.csep_ordered_us": ("us", [QUBIT, SCATTER, ORDER], _median_of("stepwise.csep_ordered", 1e6)),
    "holevo.solve_ms": ("ms", [SCATTER], _median_of("holevo.holevo_bound", 1e3)),
    "holevo.iterations": ("count", [SCATTER], _per_item("holevo.holevo_bound", "iterations")),
    "holevo.iteration_ms": ("ms", [SCATTER], _iteration_ms),
    "holevo.unconverged": ("count", [SCATTER], _unconverged),
    "bounds.c_t_us": ("us", [QUBIT], _median_of("bounds.c_t", 1e6)),
    "bounds.c_holevo_qubit_pure_us": ("us", [QUBIT], _median_of("bounds.c_holevo_qubit_pure", 1e6)),
    "bounds.quantumness_R_us": ("us", [QUBIT], _median_of("bounds.quantumness_R", 1e6)),
    "bounds.c_sld_us": ("us", [QUBIT], _median_of("bounds.c_sld", 1e6)),
    "experiments.row_self_us": ("us", [SCATTER, QUBIT], _row_self_us),
    "experiments.csv_ms": ("ms", [SCATTER, QUBIT], lambda tr, _: _median_of("experiments.csv", 1e3)(tr, None)),
}

# timed by the benchmark itself on each workload's own QFIMs
DIRECT_METRICS = {
    "linalg.cholesky_us": "linalg.cholesky",
    "linalg.spd_inverse_us": "linalg.spd_inverse",
    "linalg.determinant_us": "linalg.determinant",
    "stepwise.brackets_us": "stepwise.brackets",
}


def span_metrics(workload, tracers, main_items):
    """Every span metric, from ``workload``'s spans or its first home's sample."""
    out = {}
    for name, (unit, homes, fn) in SPAN_METRICS.items():
        seg = workload if workload in homes else homes[0]
        out[name] = {"value": float(fn(tracers[seg], main_items[seg])), "unit": unit}
    return out


def direct_metrics(tracer):
    return {
        name: {"value": float(_median(_durations(tracer.by_name(span), 1e6))), "unit": "us"}
        for name, span in DIRECT_METRICS.items()
    }
