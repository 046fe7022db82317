"""The qmet benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload scatter --seed 1 --seconds 10 --trace 0

runs one workload (``--workload all`` runs every one in turn) and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from a
traced pass.  See README.md in this directory for the workloads, the
metrics and the checks.

Each workload runs in fresh interpreters started from here with
``QMET_THREADS`` unset: set-up (import, input generation, one warm-up
item) is repeated SETUPS times and its median reported, and the last
interpreter goes on to the timed phase and the checks.
"""

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SAMPLES = OUT / "samples"  # artifacts of the traced side samples
WORKLOAD_NAMES = ("scatter", "order", "qubit-sweep")
SETUPS = 3
DEADLINE_S = 170.0
DIRECT_MAX = 200  # QFIMs per workload for the direct linalg timings
SIDE_SAMPLE = {"scatter": 20, "order": 2, "qubit-sweep": 1}  # items of each traced sample


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------- child


def _percentile_tail(times):
    """Highest order statistic with ten items beyond it, and its percentile."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def _p50_by_round(workload, times):
    """Mean over rounds of each round's median main-item time.

    A round lasts well under the seconds-long phases in which a shared
    machine runs slower or faster, so the mean follows the share of time
    spent in each phase where a single median would jump between them.
    """
    size = workload.round_size
    medians = []
    for start in range(0, len(workload.items), size):
        chunk = range(start, start + size)
        medians.append(statistics.median(times[k] for k in chunk if workload.items[k].main))
    return statistics.fmean(medians)


def end_to_end(workload, timed):
    main = [k for k, item in enumerate(workload.items) if item.main]
    done = [k for k in main if not isinstance(timed.outputs[k], Exception)]
    tail, pct = _percentile_tail([timed.times[k] for k in main])
    metrics = {
        "items_per_s": {"value": len(done) / timed.elapsed, "unit": "1/s"},
        "item_p50_ms": {"value": 1e3 * _p50_by_round(workload, timed.times), "unit": "ms"},
        "item_tail_ms": {"value": 1e3 * tail, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    return metrics, {"items": len(main), "tail_percentile": pct}


def traced_metrics(workload, timed, seed, seconds, import_s):
    import tracing
    import workloads
    from qmet import linalg, stepwise
    from qmet.errors import QmetError

    tracers = {workload.name: tracing.Tracer(workload.name)}
    with tracing.installed(tracers[workload.name]):
        traced = workloads.timed_pass(workload, tracers[workload.name])
    same = workload.fingerprint(traced.outputs) == workload.fingerprint(timed.outputs)
    main_items = {workload.name: {k for k, it in enumerate(workload.items) if it.main}}
    for name, count in SIDE_SAMPLE.items():
        if name == workload.name:
            continue
        side = workloads.WORKLOADS[name](seed, seconds, SAMPLES).sample(count)
        tracers[name] = tracing.Tracer(name)
        with tracing.installed(tracers[name]):
            workloads.timed_pass(side, tracers[name])
        main_items[name] = {k for k, it in enumerate(side.items) if it.main}

    direct = tracing.Tracer("direct")
    kernels = [
        ("linalg.cholesky", linalg.cholesky),
        ("linalg.spd_inverse", linalg.spd_inverse),
        ("linalg.determinant", linalg.determinant),
        ("stepwise.brackets", stepwise.brackets),
    ]
    for q in workload.matrices(tracers[workload.name])[:DIRECT_MAX]:
        for span, fn in kernels:
            try:
                with direct.span(span):
                    fn(q)
            except QmetError:
                pass
    tracing.write_spans(
        OUT / f"spans-{workload.name}-{seed}.csv.gz", list(tracers.values()) + [direct]
    )

    metrics = tracing.span_metrics(workload.name, tracers, main_items)
    metrics.update(tracing.direct_metrics(direct))
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    # the same items in both passes, so the rate ratio is the inverse time ratio
    metrics["trace.overhead_ratio"] = {"value": timed.elapsed / traced.elapsed, "unit": "ratio"}
    return metrics, same


def child(args):
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qmet.cli  # noqa: F401  (the import is what set-up pays for)

    import_s = time.perf_counter() - start
    if not Path(qmet.cli.__file__).resolve().is_relative_to(SRC):
        print(f"qmet imported from {qmet.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    SAMPLES.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, OUT)
    workload.run_item(next(item for item in workload.items if item.main))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    timed = workloads.timed_pass(workload)
    if not args.trace:
        metrics, info = end_to_end(workload, timed)  # before the checks add to the peak RSS
    per_item, run_fails = workload.check(timed)
    messages = Counter(run_fails + [m for fails in per_item for m in fails])
    for m, count in messages.most_common(5):
        print(f"[{args.workload}] check failed {count}x: {m}", file=sys.stderr)
    result = {
        "correct": not run_fails,
        "attempted": len(workload.items),
        "failed": sum(bool(fails) for fails in per_item),
    }
    if args.trace:
        metrics, same = traced_metrics(workload, timed, args.seed, args.seconds, import_s)
        if not same:
            print(f"[{args.workload}] traced pass differs from untraced", file=sys.stderr)
            result["correct"] = False
        info = {}
    result["metrics"] = metrics
    result["info"] = info
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------- parent


def _read_line(proc, deadline):
    remaining = deadline - time.perf_counter()
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, remaining))
    if not ready:
        raise TimeoutError("no set-up signal before the deadline")
    return proc.stdout.readline()


def _start(args, setup_only):
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env.pop("QMET_THREADS", None)
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)


def run_workload(args):
    """Set up SETUPS times (once when tracing), measure in the last interpreter."""
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    n_setups = 1 if args.trace else SETUPS
    proc = None
    try:
        for k in range(n_setups):
            last = k == n_setups - 1
            t0 = time.perf_counter()
            proc = _start(args, setup_only=not last)
            if _read_line(proc, deadline).strip() != "ready":
                raise RuntimeError(f"{args.workload}: set-up failed")
            setups.append(time.perf_counter() - t0)
            if not last:
                proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError(f"{args.workload}: exit code {proc.returncode}")
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["info"]["setups_s"] = setups
    return result


def _summary(name, result):
    lines = [
        f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
        f"correct {result['correct']}  {json.dumps(result['info'])}"
    ]
    for metric, m in result["metrics"].items():
        lines.append(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child(args)
    if not (SRC / "qmet" / "__init__.py").is_file():
        print(f"no qmet package under {SRC}: nothing to measure", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = run_workload(args)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(_summary(name, results[name]))
    if len(names) == 1:
        final = results[names[0]]
        final.pop("info")
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
