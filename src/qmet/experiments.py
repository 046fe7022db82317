"""Numerical studies: Haar sampling, the scatter comparison of C_H against
the minimum-order stepwise bound for three-parameter qutrit models, the
optimal probe of the two-parameter qutrit model (in closed form, the
m = 0 eigenvector of J_n2; no search), and the qubit inequality sweep.

Every sampled study consumes a single seeded random stream so results are
reproducible bit for bit; the CSV formatters print floats with 17
significant digits, one row at a time, and :func:`write_csv` embeds the
effective configuration as leading comment lines and writes each row as it
is consumed, so a lazily formatted sweep never holds its table or file text
whole.
"""

from dataclasses import dataclass

import numpy as np

from .bounds import c_holevo_qubit_pure, c_sld, c_t as c_t_bound, quantumness_R
from .errors import NoConvergence, SingularQfim
from .holevo import holevo_bound
from .linalg import qfim
from .models import (
    density_and_derivatives,
    eval_qubit2,
    eval_qutrit2,
    eval_qutrit3,
    geometry_vectors,
    normalize_state,
    qutrit3_model,
)
from .stepwise import best_order_dp, csep_ordered

DEFAULT_SCATTER_PARAMS = (1.0, np.pi / 7.0, np.pi / 5.0, 1.0)
PROBE_RESIDUAL_U_TOL = 1e-6
PROBE_QFIM_TOL = 1e-4
QUBIT_DET_FLOOR = 1e-3  # qubit-sweep draws with det Q below this are redrawn
_FLOAT_FMT = "%.17g"


def haar_pure_state(d, rng):
    """Haar-random pure state: d standard complex Gaussians, normalized."""
    x = rng.standard_normal(2 * d)
    z = x[0::2] + 1j * x[1::2]
    return z / np.linalg.norm(z)


def _fmt(x):
    return _FLOAT_FMT % float(x)


def write_csv(path, header, rows, config):
    """Write ``# key=value`` lines of ``config``, the header, then the rows.

    ``rows`` may be any iterable of already-formatted string fields; each
    row is written as the iterable yields it, so neither the table nor the
    file text need exist whole.  An iterable that raises leaves a partial
    file holding the rows written before it raised.
    """
    with open(path, "w", newline="") as fh:
        for key, value in config.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


@dataclass(frozen=True)
class ScatterRow:
    index: int
    b: float
    theta: float
    phi: float
    t: float
    probe: np.ndarray
    c_h: float
    c_h_status: str
    c_sep_min: float
    best_ordering: tuple | None
    flag: str


SCATTER_HEADER = [
    "index", "B", "theta", "phi", "t",
    "re0", "im0", "re1", "im1", "re2", "im2",
    "c_h", "c_h_status", "c_sep_min", "best_ordering", "flag",
]


def scatter_row(index, params, probe):
    """One scatter point: minimum-order stepwise bound and Holevo bound.

    Failures never abort a sweep: a QFIM singular under the pivot rule of
    either bound and an unconverged solve come back as flagged rows.
    """
    b, theta, phi, t = params
    ev = eval_qutrit3(b, theta, phi, t, probe)
    c_sep_min, best_ordering = np.nan, None
    c_h, c_h_status = np.nan, ""
    flag = "ok"
    try:
        res = best_order_dp(ev.q)
        c_sep_min, best_ordering = res.value, res.ordering
        rho, drho = density_and_derivatives(qutrit3_model(probe, t), [b, theta, phi])
        sol = holevo_bound(rho, drho)
        c_h, c_h_status = sol.value, sol.status
        if sol.status != "converged":
            flag = "sdp_" + sol.status
    except SingularQfim:
        flag = "singular_qfim"
    return ScatterRow(
        index=index, b=b, theta=theta, phi=phi, t=t, probe=np.asarray(probe),
        c_h=c_h, c_h_status=c_h_status, c_sep_min=c_sep_min,
        best_ordering=best_ordering, flag=flag,
    )


def _require_count(count, name):
    """ValueError unless the count ``count`` of parameter ``name`` is at least 1."""
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")


def draw_parameter_sets(count, rng):
    """Pseudorandom (B, theta, phi) sets for the multi-set scatter, t = 1."""
    sets = []
    for _ in range(count):
        sets.append(
            (
                rng.uniform(0.5, 2.0),
                rng.uniform(-np.pi / 3.0, np.pi / 3.0),
                rng.uniform(0.0, 2.0 * np.pi),
                1.0,
            )
        )
    return sets


def run_scatter_study(params=DEFAULT_SCATTER_PARAMS, n_states=1000, seed=0,
                      multi_params=None, probes=None):
    """Scatter of (C_H, min-order C_sep) over Haar qutrit probes.

    ``multi_params`` may be an integer (that many pseudorandom parameter
    sets) or an explicit list of (B, theta, phi, t) tuples; ``n_states``
    probes are drawn per set.  ``probes`` overrides the Haar stream with the
    same probes for every set, which is how degenerate inputs are exercised.
    Returns (rows, summary); flagged rows are kept but excluded from the
    summary.  A count below 1 raises ValueError.
    """
    if probes is None:
        _require_count(n_states, "n_states")
    rng = np.random.default_rng(seed)
    if multi_params is None:
        param_sets = [tuple(params)]
    elif isinstance(multi_params, int):
        _require_count(multi_params, "multi_params")
        param_sets = draw_parameter_sets(multi_params, rng)
    else:
        param_sets = [tuple(p) for p in multi_params]
    rows = []
    for pset in param_sets:
        if probes is not None:
            drawn = [normalize_state(p, 3) for p in probes]
        else:
            drawn = [haar_pure_state(3, rng) for _ in range(n_states)]
        for probe in drawn:
            rows.append(scatter_row(len(rows), pset, probe))
    ok = [r for r in rows if r.flag == "ok"]
    summary = {
        "n_rows": len(rows),
        "n_ok": len(ok),
        "frac_csep_below_ch": float("nan"),
        "low_ch_decile_frac_ch_below_csep": float("nan"),
    }
    if ok:
        c_h = np.array([r.c_h for r in ok])
        c_sep = np.array([r.c_sep_min for r in ok])
        summary["frac_csep_below_ch"] = float(np.mean(c_sep < c_h))
        decile = np.argsort(c_h)[: max(1, len(ok) // 10)]
        summary["low_ch_decile_frac_ch_below_csep"] = float(
            np.mean(c_h[decile] < c_sep[decile])
        )
    return rows, summary


def scatter_row_to_csv(r):
    """The CSV fields of one :class:`ScatterRow`, in SCATTER_HEADER order."""
    ordering = ">".join(str(o) for o in r.best_ordering) if r.best_ordering else ""
    return (
        [str(r.index), _fmt(r.b), _fmt(r.theta), _fmt(r.phi), _fmt(r.t)]
        + [_fmt(v) for pair in zip(r.probe.real, r.probe.imag) for v in pair]
        + [_fmt(r.c_h), r.c_h_status, _fmt(r.c_sep_min), ordering, r.flag]
    )


def scatter_rows_to_csv(rows):
    """The CSV fields of every scatter row, as a list."""
    return [scatter_row_to_csv(r) for r in rows]


QUBIT_SWEEP_HEADER = [
    "alpha", "beta", "B", "t",
    "c_s", "c_t", "c_h", "c_sep_12", "c_sep_21", "R",
]


def qubit_sweep_row(alpha, beta, b, t):
    """All closed-form bounds of one pure-qubit instance.

    The probe Bloch vector is rebuilt from the frame components, so
    alpha = n_theta.r and beta = n_1.r by construction.
    """
    n_theta, n_1, n_2 = geometry_vectors(b, 0.0, t)
    gamma = np.sqrt(max(0.0, 1.0 - alpha**2 - beta**2))
    r0 = alpha * n_theta + beta * n_1 + gamma * n_2
    ev = eval_qubit2(b, 0.0, t, r0)
    q = qfim(ev.q)  # validated and factored once for all six bounds
    return {
        "alpha": alpha,
        "beta": beta,
        "B": b,
        "t": t,
        "c_s": c_sld(q),
        "c_t": c_t_bound(q, ev.u),
        "c_h": c_holevo_qubit_pure(q, u=ev.u),
        "c_sep_12": csep_ordered(q, (1, 2)).value,
        "c_sep_21": csep_ordered(q, (2, 1)).value,
        "R": quantumness_R(q, ev.u),
    }


def run_qubit_sweep(n_samples=1000, seed=0):
    """Certify the pure-qubit inequalities over random (alpha, beta, B, t).

    (alpha, beta) is uniform on the unit disk, B and t uniform in
    [0.3, 3.0]; draws whose QFIM determinant falls below QUBIT_DET_FLOOR are
    rejected so every row is safely invertible.  Returns (rows, summary)
    with the count of rows violating min-order C_sep <= C_H beyond 1e-9
    and the margin statistics.  Raises ValueError for ``n_samples`` below 1.
    """
    _require_count(n_samples, "n_samples")
    rng = np.random.default_rng(seed)
    samples = []
    while len(samples) < n_samples:
        rad = np.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * np.pi)
        alpha, beta = rad * np.cos(ang), rad * np.sin(ang)
        b = rng.uniform(0.3, 3.0)
        t = rng.uniform(0.3, 3.0)
        det_q = 4.0 * t**2 * np.sin(b * t / 2.0) ** 2 * (1.0 - alpha**2 - beta**2)
        if det_q >= QUBIT_DET_FLOOR:
            samples.append((alpha, beta, b, t))
    rows = [qubit_sweep_row(*s) for s in samples]
    margins = np.array([min(r["c_sep_12"], r["c_sep_21"]) - r["c_h"] for r in rows])
    r_errors = np.array([abs(r["R"] - 1.0) for r in rows])
    summary = {
        "n_rows": len(rows),
        "violations": int(np.sum(margins > 1e-9)),
        "max_margin": float(np.max(margins)),
        "mean_margin": float(np.mean(margins)),
        "max_r_error": float(np.max(r_errors)),
    }
    return rows, summary


def qubit_row_to_csv(r):
    """The CSV fields of one qubit-sweep row, in QUBIT_SWEEP_HEADER order."""
    return [_fmt(r[key]) for key in QUBIT_SWEEP_HEADER]


def qubit_rows_to_csv(rows):
    """The CSV fields of every qubit-sweep row, as a list."""
    return [qubit_row_to_csv(r) for r in rows]


@dataclass(frozen=True)
class ProbeOptResult:
    """Optimal probe, with residuals re-derivable from the model itself."""

    probe: np.ndarray
    residual_u: float
    qfim_deviation: float


def _probe_residuals(b, t, ev):
    target = np.diag([4.0 * t**2, 16.0 * np.sin(b * t / 2.0) ** 2])
    return (
        float(np.linalg.norm(ev.u)),
        float(np.linalg.norm(ev.q - target)),
    )


def optimize_qutrit_probe(b, theta, t, seed=None, restarts=None):
    """The qutrit probe minimizing C_S with vanishing Uhlmann curvature.

    For spin 1, <J_ntheta^2> + <J_n1^2> + <J_n2^2> = 2, so the m = 0
    eigenvector of J_n2 has Var(J_ntheta) = Var(J_n1) = 1, <J> = 0 and zero
    covariance: U = 0 and Q = Q* = diag(4 t^2, 16 sin^2(Bt/2)).  Since
    Tr[Q^-1] >= sum_j 1/Q_jj >= sum_j 1/Q*_jj for every probe, this state
    minimizes C_S with or without the U = 0 constraint.  In the J_z basis it
    is (-(n_x - i n_y), sqrt(2) n_z, n_x + i n_y) / sqrt(2) with n = n_2.

    Raises SingularQfim where Q* is singular under the package's pivot rule
    (sin(Bt/2) = 0), and NoConvergence, carrying the result, when the
    self-check ||U||_F <= 1e-6 and ||Q - Q*||_F <= 1e-4 fails.  ``seed`` and
    ``restarts`` are accepted for compatibility and ignored.
    """
    nx, ny, nz = geometry_vectors(b, theta, t)[2]
    probe = np.array([-(nx - 1j * ny), np.sqrt(2.0) * nz, nx + 1j * ny]) / np.sqrt(2.0)
    ev = eval_qutrit2(b, theta, t, probe)
    qfim(ev.q)  # raises SingularQfim at degenerate angles
    residual_u, qfim_dev = _probe_residuals(b, t, ev)
    result = ProbeOptResult(probe=probe, residual_u=residual_u, qfim_deviation=qfim_dev)
    if residual_u > PROBE_RESIDUAL_U_TOL or qfim_dev > PROBE_QFIM_TOL:
        raise NoConvergence(
            f"residuals ||U||={residual_u:.2e}, ||Q-Q*||={qfim_dev:.2e} "
            "exceed the convergence targets",
            result=result,
        )
    return result
