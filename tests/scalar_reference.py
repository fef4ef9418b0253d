"""Scalar reference AC-OPF solve: the OPF callbacks driven by scalar ``mips``.

The library solves every OPF through the lockstep batch solver
(:func:`repro.opf.batch.solve_opf_batch`).  This helper keeps the
independent one-scenario path — the scalar constraint/Hessian callbacks and
the scalar MIPS loop — so the parity suites can compare the batch solver
against it.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.grid.components import Case
from repro.mips.solver import mips
from repro.opf.constraints import constraint_function
from repro.opf.costs import objective
from repro.opf.hessian import hessian_function
from repro.opf.model import OPFModel
from repro.opf.options import OPFOptions
from repro.opf.result import OPFResult, build_opf_result
from repro.opf.warmstart import WarmStart


def solve_opf_scalar(
    case: Case,
    warm_start: Optional[WarmStart] = None,
    Pd_mw: Optional[np.ndarray] = None,
    Qd_mvar: Optional[np.ndarray] = None,
    options: Optional[OPFOptions] = None,
    model: Optional[OPFModel] = None,
    deadline: Optional[float] = None,
) -> OPFResult:
    """Solve one AC-OPF with the scalar MIPS loop (same arguments as ``solve_opf``)."""
    options = options or OPFOptions()
    t0 = time.perf_counter()
    if model is None:
        model = OPFModel(case, flow_limits=options.flow_limits)
    elif model.case is not case:
        raise ValueError("the supplied model was built for a different case object")

    xmin, xmax = model.bounds()
    x_default = model.default_start() if options.init == "case" else model.flat_start()

    warm = (warm_start or WarmStart.cold()).clipped_duals()
    x0 = x_default if warm.x is None else np.asarray(warm.x, dtype=float).copy()

    gh_fcn = constraint_function(model, Pd_mw, Qd_mvar)
    hess_fcn = hessian_function(model)

    def f_fcn(x: np.ndarray):
        f, df, _ = objective(model, x)
        return f, df

    preprocess_seconds = time.perf_counter() - t0
    mips_result = mips(
        f_fcn,
        x0,
        gh_fcn=gh_fcn,
        hess_fcn=hess_fcn,
        xmin=xmin,
        xmax=xmax,
        lam0=warm.lam,
        mu0=warm.mu,
        z0=warm.z,
        options=options.mips,
        deadline=deadline,
    )
    return build_opf_result(case, model, mips_result, preprocess_seconds, Pd_mw, Qd_mvar)
