"""Deterministic cost: the Python calls each kernel makes inside ``qmet``.

On 2 x 2 and 3 x 3 matrices nearly all of a row's time is per-call
overhead, which a wall clock on a shared machine often cannot resolve but a
call count measures exactly.  Only calls whose frame lies in the package
are counted, so the counts do not depend on numpy's internals; they do
depend on the interpreter (comprehensions are calls up to Python 3.11).
Each count is asserted against a ceiling kept here: a change that lowers a
count lowers its ceiling, and one that adds calls on purpose raises it and
gives the reason.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import qmet
from qmet.experiments import (
    DEFAULT_SCATTER_PARAMS,
    haar_pure_state,
    qubit_sweep_row,
    run_qubit_sweep,
    run_scatter_study,
    scatter_row,
)
from qmet.holevo import holevo_bound
from qmet.models import density_and_derivatives, qutrit3_model
from qmet.stepwise import best_order_dp

PACKAGE = str(Path(qmet.__file__).parent)

# counted on Python 3.11.7 with numpy 2.4.6
CEILINGS = {
    "scatter_row": 88,
    "qubit_sweep_row": 66,
    "best_order_dp_n12": 21,
    "holevo_bound_qutrit3": 43,
    "run_qubit_sweep_200": 13205,
    "run_scatter_study_50": 4438,
}


def _calls():
    probe = haar_pure_state(3, np.random.default_rng(0))
    b, theta, phi, t = DEFAULT_SCATTER_PARAMS
    rho, drho = density_and_derivatives(qutrit3_model(probe, t), [b, theta, phi])
    a = np.random.default_rng(0).standard_normal((12, 12))
    q12 = a @ a.T + 12.0 * np.eye(12)
    return {
        "scatter_row": lambda: scatter_row(0, DEFAULT_SCATTER_PARAMS, probe),
        "qubit_sweep_row": lambda: qubit_sweep_row(0.1, 0.2, 1.3, 0.9),
        "best_order_dp_n12": lambda: best_order_dp(q12),
        "holevo_bound_qutrit3": lambda: holevo_bound(rho, drho),
        "run_qubit_sweep_200": lambda: run_qubit_sweep(n_samples=200, seed=7),
        "run_scatter_study_50": lambda: run_scatter_study(n_states=50, seed=1),
    }


def package_calls(call):
    """Python calls made in the package while ``call()`` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_package_calls_within_ceiling(name):
    call = _calls()[name]
    call()  # warm-up: lazy imports and first-call caches are not the kernel's cost
    assert package_calls(call) <= CEILINGS[name]
