"""Precision bounds for multiparameter quantum estimation.

The package computes the standard scalar bounds built from the quantum
Fisher information matrix Q and the mean Uhlmann curvature U (SLD, R, T,
Holevo), the stepwise separable bound of sequential estimation together
with its optimal parameter ordering, and the SU(2) qubit/qutrit model
studies that compare joint and stepwise strategies.

Quick tour::

    import numpy as np
    from qmet import eval_qubit2, compute_report, best_order_dp

    ev = eval_qubit2(B=np.pi, theta=0.0, t=1.0, bloch=[0, 0, -1])
    report = compute_report(ev.q, ev.u)        # C_S, C_T, C_R, C_H, R, T, s
    best = best_order_dp(ev.q)                 # minimum-C_sep ordering

The ``qmet`` command line exposes the same operations plus the sweep
experiments; see the README for details.
"""

from .bounds import (
    BoundReport,
    ThresholdVerdict,
    c_holevo_qubit_pure,
    c_r,
    c_sld,
    c_t,
    compute_report,
    quantumness_R,
    quantumness_T,
    r2_closed,
    r3_closed,
    sloppiness,
    t2_closed,
    t3_unnormalized_value,
    threshold_csep_vs,
)
from .errors import (
    ConfigParseError,
    NoConvergence,
    NotApplicable,
    QmetError,
    SingularQfim,
    TooManyParameters,
    UnknownKeyError,
)
from .experiments import (
    ProbeOptResult,
    ScatterRow,
    haar_pure_state,
    optimize_qutrit_probe,
    qubit_rows_to_csv,
    run_qubit_sweep,
    run_scatter_study,
    scatter_rows_to_csv,
    write_csv,
)
from .holevo import HolevoSolution, holevo_bound, verify_sandwich
from .linalg import (
    Qfim,
    cholesky,
    determinant,
    nuclear_norm,
    qfim,
    spd_inverse,
    symmetrize,
    weights,
)
from .models import (
    ModelEvaluation,
    PureStateModel,
    eval_generic,
    eval_qubit2,
    eval_qutrit2,
    eval_qutrit3,
    geometry_vectors,
    qubit2_model,
    qutrit2_model,
    qutrit3_model,
)
from .stepwise import (
    Brackets,
    DpTables,
    StepwiseResult,
    best_order_bruteforce,
    best_order_dp,
    brackets,
    csep_cholesky,
    csep_ordered,
    dp_tables,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Brackets",
    "ConfigParseError",
    "DpTables",
    "HolevoSolution",
    "ModelEvaluation",
    "NoConvergence",
    "NotApplicable",
    "ProbeOptResult",
    "PureStateModel",
    "Qfim",
    "QmetError",
    "ScatterRow",
    "SingularQfim",
    "StepwiseResult",
    "ThresholdVerdict",
    "TooManyParameters",
    "UnknownKeyError",
    "best_order_bruteforce",
    "best_order_dp",
    "brackets",
    "c_holevo_qubit_pure",
    "c_r",
    "c_sld",
    "c_t",
    "cholesky",
    "compute_report",
    "csep_cholesky",
    "csep_ordered",
    "determinant",
    "dp_tables",
    "eval_generic",
    "eval_qubit2",
    "eval_qutrit2",
    "eval_qutrit3",
    "geometry_vectors",
    "haar_pure_state",
    "holevo_bound",
    "nuclear_norm",
    "optimize_qutrit_probe",
    "qfim",
    "quantumness_R",
    "quantumness_T",
    "qubit2_model",
    "qubit_rows_to_csv",
    "qutrit2_model",
    "qutrit3_model",
    "r2_closed",
    "r3_closed",
    "run_qubit_sweep",
    "run_scatter_study",
    "scatter_rows_to_csv",
    "sloppiness",
    "spd_inverse",
    "symmetrize",
    "t2_closed",
    "t3_unnormalized_value",
    "threshold_csep_vs",
    "verify_sandwich",
    "weights",
    "write_csv",
    "__version__",
]
