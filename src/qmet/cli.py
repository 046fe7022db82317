"""Command-line interface.

Subcommands: qfim, bounds, csep, order, holevo, scatter, probe-opt,
qubit-sweep.  Single computations print JSON (with the effective config
embedded); sweeps write CSV artifacts that carry the config as leading
comment lines and print the file path.

Exit codes: 0 success, 2 validation/configuration error (the message
names the offending field), 1 computation error (the message starts with
the error name).  Matrices use row-semicolon syntax ("4,2;2,5"); all
orderings are 1-based.
"""

import argparse
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import experiments as exp_mod
from . import holevo as holevo_mod
from . import stepwise as stepwise_mod
from .errors import (
    ConfigParseError,
    Infeasible,
    NoConvergence,
    NotApplicable,
    NotPositiveDefinite,
    QmetError,
    SingularQfim,
    TooManyParameters,
    UnknownKeyError,
)
from .models import (
    density_and_derivatives,
    eval_qubit2,
    eval_qutrit2,
    eval_qutrit3,
    normalize_state,
    qubit2_model,
    qutrit2_model,
    qutrit3_model,
)

# Every configuration field with its type and help, in the one order that
# flags are parsed and copied in, so the config echo and a sweep CSV's
# comment lines never depend on the hash seed.
_FIELDS = {
    "model": (str, "physical model, or 'matrix' for literal --q/--u"),
    "q": (str, "literal QFIM, rows separated by ';'"),
    "u": (str, "literal Uhlmann matrix, rows separated by ';'"),
    "B": (float, "field strength"),
    "theta": (float, "field polar angle"),
    "phi": (float, "field azimuthal angle (qutrit3)"),
    "t": (float, "evolution time"),
    "bloch": (str, "qubit probe: 3 reals"),
    "probe": (str, "qutrit probe: 6 reals, re/im interleaved"),
    "weight": (str, "diagonal weight entries"),
    "ordering": (str, "1-based estimation order, e.g. 2,1"),
    "seed": (int, "random seed"),
    "n_states": (int, "probes per scatter parameter set"),
    "n_samples": (int, "qubit-sweep instances"),
    "multi": (int, "number of scatter parameter sets"),
    "method": (str, "order search: dp or brute"),
    "out": (str, "output CSV path (sweep commands)"),
}

# physical model -> (parameter fields in evaluator order, (Q, U) evaluator,
# state-derivative model built from (probe, t))
_MODELS = {
    "qubit2": (("B", "theta", "t"), eval_qubit2, qubit2_model),
    "qutrit2": (("B", "theta", "t"), eval_qutrit2, qutrit2_model),
    "qutrit3": (("B", "theta", "phi", "t"), eval_qutrit3, qutrit3_model),
}
_CHOICES = {"model": [*_MODELS, "matrix"], "method": ["dp", "brute"]}

_COMPUTE_ERRORS = (
    SingularQfim,
    NotPositiveDefinite,
    TooManyParameters,
    NotApplicable,
    Infeasible,
    NoConvergence,
)


class ValidationError(QmetError):
    """A required or malformed field; reported with exit code 2."""


class SelfCheckFailed(QmetError):
    """An output failed its invariant check and was not emitted."""


def load_config(path):
    """Parse a flat key=value file; '#' starts a comment line."""
    config = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigParseError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _FIELDS:
                raise UnknownKeyError(f"unknown key {key!r} at line {lineno}")
            config[key] = value
    return config


def _convert(key, value):
    kind = _FIELDS[key][0]
    if isinstance(value, str) and kind is not str:
        try:
            return kind(value)
        except ValueError as exc:
            raise ValidationError(f"field '{key}' must be numeric, got {value!r}") from exc
    return value


def _require_finite(values, name):
    if not np.isfinite(values).all():
        raise ValidationError(f"field '{name}' has non-finite entries")
    return values


def parse_matrix(text, name):
    try:
        rows = [
            [float(x) for x in row.split(",")] for row in text.strip().split(";")
        ]
        m = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"field '{name}' is not a valid matrix: {text!r}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"field '{name}' must be square, got shape {m.shape}")
    return _require_finite(m, name)


def parse_vector(text, name, count=None):
    try:
        v = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"field '{name}' is not a valid vector: {text!r}") from exc
    if count is not None and v.size != count:
        raise ValidationError(f"field '{name}' must have {count} entries, got {v.size}")
    return _require_finite(v, name)


def parse_probe(cfg):
    model = cfg["model"]
    if model == "qubit2":
        if "bloch" not in cfg:
            raise ValidationError("missing required field 'bloch' for model qubit2")
        bloch = parse_vector(cfg["bloch"], "bloch", 3)
        if np.linalg.norm(bloch) < 1e-12:
            raise ValidationError("field 'bloch' must be a nonzero vector")
        return bloch
    if "probe" not in cfg:
        raise ValidationError(f"missing required field 'probe' for model {model}")
    flat = parse_vector(cfg["probe"], "probe", 6)
    try:
        return normalize_state(flat[0::2] + 1j * flat[1::2], 3)
    except ValueError as exc:
        raise ValidationError(f"field 'probe' is invalid: {exc}") from exc


def _require(cfg, keys):
    for key in keys:
        if key not in cfg or cfg[key] is None:
            raise ValidationError(
                f"missing required field '{key}' for command {cfg['command']!r}"
            )


def _physical_model(cfg):
    """(table entry, probe, parameter values in evaluator order) of the configured model."""
    name = cfg.get("model")
    if name not in _MODELS:
        raise ValidationError(f"field 'model' must name a physical model, got {name!r}")
    entry = _MODELS[name]
    probe = parse_probe(cfg)
    _require(cfg, entry[0])
    return entry, probe, [cfg[k] for k in entry[0]]


def evaluate_model(cfg):
    """(Q, U) for the configured model, from a literal matrix or a physical model."""
    if cfg.get("model") == "matrix":
        _require(cfg, ["q"])
        q = parse_matrix(cfg["q"], "q")
        if np.max(np.abs(q - q.T)) > 1e-8 * (1.0 + np.max(np.abs(q))):
            raise ValidationError("field 'q' must be a symmetric matrix")
        n = q.shape[0]
        u = parse_matrix(cfg["u"], "u") if cfg.get("u") else np.zeros((n, n))
        if u.shape != q.shape:
            raise ValidationError("field 'u' must match the shape of 'q'")
        if np.max(np.abs(u + u.T)) > 1e-8 * (1.0 + np.max(np.abs(u))):
            raise ValidationError("field 'u' must be an antisymmetric matrix")
        return q, u
    (_, evaluate, _), probe, params = _physical_model(cfg)
    ev = evaluate(*params, probe)
    return ev.q, ev.u


def holevo_inputs(cfg):
    (fields, _, derivative_model), probe, _ = _physical_model(cfg)
    point = [cfg[k] for k in fields if k != "t"]
    return density_and_derivatives(derivative_model(probe, cfg["t"]), point)


def parse_weight(cfg, n):
    if not cfg.get("weight"):
        return None
    w = parse_vector(cfg["weight"], "weight", n)
    if np.any(w <= 0):
        raise ValidationError("field 'weight' entries must be positive")
    return w


def parse_ordering(cfg, n):
    if not cfg.get("ordering"):
        return None
    try:
        order = tuple(int(x) for x in cfg["ordering"].split(","))
    except ValueError as exc:
        raise ValidationError("field 'ordering' is not a valid ordering") from exc
    if sorted(order) != list(range(1, n + 1)):
        raise ValidationError(
            f"field 'ordering' must be a permutation of 1..{n}, got {order}"
        )
    return order


def _config_echo(cfg):
    skip = {"out"}
    return {k: v for k, v in cfg.items() if v is not None and k not in skip}


def _emit(cfg, result):
    print(json.dumps({"config": _config_echo(cfg), "result": result}, indent=2))


def cmd_qfim(cfg):
    q, u = evaluate_model(cfg)
    _emit(cfg, {"q": q.tolist(), "u": u.tolist()})


def cmd_bounds(cfg):
    q, u = evaluate_model(cfg)
    report = bounds_mod.compute_report(q, u, parse_weight(cfg, q.shape[0]))
    doc = report.to_json()
    slack = 1e-9 * (1.0 + abs(doc["c_s"]))
    chain_ok = (
        doc["c_s"] <= doc["c_t"] + slack
        and doc["c_t"] <= doc["c_r"] + slack
        and doc["c_r"] <= 2.0 * doc["c_s"] + slack
    )
    if doc["c_h"] is not None:
        chain_ok = chain_ok and (
            doc["c_s"] - slack <= doc["c_h"] <= doc["c_t"] + slack
        )
    if not chain_ok:
        raise SelfCheckFailed("bound chain ordering violated; output withheld")
    _emit(cfg, doc)


def cmd_csep(cfg):
    q, _ = evaluate_model(cfg)
    order = parse_ordering(cfg, q.shape[0])
    res = stepwise_mod.csep_ordered(q, order, parse_weight(cfg, q.shape[0]))
    _emit(cfg, res.to_json())


def cmd_order(cfg):
    q, _ = evaluate_model(cfg)
    method = cfg.get("method") or "dp"
    w = parse_weight(cfg, q.shape[0])
    if method == "dp":
        res = stepwise_mod.best_order_dp(q, w)
    elif method == "brute":
        res = stepwise_mod.best_order_bruteforce(q, w)
    else:
        raise ValidationError(f"field 'method' must be dp or brute, got {method!r}")
    doc = res.to_json()
    doc["method"] = method
    _emit(cfg, doc)


def cmd_holevo(cfg):
    rho, drho = holevo_inputs(cfg)
    sol = holevo_mod.holevo_bound(rho, drho, parse_weight(cfg, len(drho)))
    _emit(cfg, sol.to_json())


def cmd_scatter(cfg):
    _require(cfg, ["out"])
    params = (cfg["B"], cfg["theta"], cfg["phi"], cfg["t"])
    rows, summary = exp_mod.run_scatter_study(
        params=params,
        n_states=cfg["n_states"],
        seed=cfg["seed"],
        multi_params=cfg.get("multi"),
    )
    exp_mod.write_csv(
        cfg["out"],
        exp_mod.SCATTER_HEADER,
        exp_mod.scatter_rows_to_csv(rows),
        _config_echo(cfg),
    )
    print(cfg["out"])


def cmd_probe_opt(cfg):
    _require(cfg, ["B", "theta", "t"])
    res = exp_mod.optimize_qutrit_probe(cfg["B"], cfg["theta"], cfg["t"])
    probe_flat = [float(x) for pair in zip(res.probe.real, res.probe.imag) for x in pair]
    _emit(
        cfg,
        {
            "probe": probe_flat,
            "residual_u": res.residual_u,
            "qfim_deviation": res.qfim_deviation,
        },
    )


def cmd_qubit_sweep(cfg):
    _require(cfg, ["out"])
    if cfg["n_samples"] < 1:
        raise ValidationError(f"field 'n_samples' must be at least 1, got {cfg['n_samples']}")
    rows, summary = exp_mod.run_qubit_sweep(n_samples=cfg["n_samples"], seed=cfg["seed"])
    exp_mod.write_csv(
        cfg["out"],
        exp_mod.QUBIT_SWEEP_HEADER,
        exp_mod.qubit_rows_to_csv(rows),
        _config_echo(cfg),
    )
    print(cfg["out"])


_COMMANDS = {
    "qfim": cmd_qfim,
    "bounds": cmd_bounds,
    "csep": cmd_csep,
    "order": cmd_order,
    "holevo": cmd_holevo,
    "scatter": cmd_scatter,
    "probe-opt": cmd_probe_opt,
    "qubit-sweep": cmd_qubit_sweep,
}

_SCATTER_DEFAULTS = {
    "B": exp_mod.DEFAULT_SCATTER_PARAMS[0],
    "theta": exp_mod.DEFAULT_SCATTER_PARAMS[1],
    "phi": exp_mod.DEFAULT_SCATTER_PARAMS[2],
    "t": exp_mod.DEFAULT_SCATTER_PARAMS[3],
    "n_states": 1000,
    "seed": 0,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmet",
        description="Multiparameter quantum estimation bounds and stepwise strategies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value configuration file")
        for key, (kind, help_text) in _FIELDS.items():
            p.add_argument(
                "--" + key.replace("_", "-"), dest=key, type=kind,
                choices=_CHOICES.get(key), help=help_text,
            )
    return parser


def effective_config(args):
    """defaults < config file < explicit flags, with typed values."""
    cfg = {"command": args.command}
    if args.command == "scatter":
        cfg.update(_SCATTER_DEFAULTS)
    elif args.command == "qubit-sweep":
        cfg.update({"n_samples": 1000, "seed": 0})
    if args.config:
        for key, value in load_config(args.config).items():
            cfg[key] = _convert(key, value)
    for key in _FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = effective_config(args)
        _COMMANDS[args.command](cfg)
    except (
        ValidationError,
        ConfigParseError,
        UnknownKeyError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (SelfCheckFailed,) + _COMPUTE_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
