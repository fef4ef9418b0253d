"""AC-OPF driver: solve one case/scenario.

``solve_opf`` is the library's main numerical entry point — the function the
Smart-PGSim framework accelerates by feeding it predicted warm-start points.
It is a one-row :func:`~repro.opf.batch.solve_opf_batch`, so a scenario solved
here is bitwise identical to the same scenario solved inside any lockstep
batch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.grid.components import Case
from repro.opf.batch import solve_opf_batch
from repro.opf.model import OPFModel
from repro.opf.options import OPFOptions, relaxed_options
from repro.opf.result import OPFResult
from repro.opf.warmstart import WarmStart

__all__ = [
    "OPFOptions",
    "build_model",
    "relaxed_options",
    "solve_opf",
    "solve_opf_with_fallback",
]


def build_model(case: Case, options: Optional[OPFOptions] = None) -> OPFModel:
    """Construct (and cache nothing beyond) the OPF model for ``case``."""
    options = options or OPFOptions()
    return OPFModel(case, flow_limits=options.flow_limits)


def solve_opf(
    case: Case,
    warm_start: Optional[WarmStart] = None,
    Pd_mw: Optional[np.ndarray] = None,
    Qd_mvar: Optional[np.ndarray] = None,
    options: Optional[OPFOptions] = None,
    model: Optional[OPFModel] = None,
    deadline: Optional[float] = None,
) -> OPFResult:
    """Solve the AC optimal power flow for ``case``.

    Parameters
    ----------
    case:
        The power-grid case (loads may be overridden per call).
    warm_start:
        Optional :class:`WarmStart`; missing components fall back to the
        solver defaults (the paper's *imprecise default data*).
    Pd_mw, Qd_mvar:
        Optional per-bus loads overriding the case values — this is how
        sampled scenarios are solved without copying the case.
    options:
        :class:`OPFOptions` (flow-limit handling, initial point, MIPS options).
    model:
        Pre-built :class:`OPFModel` to reuse across scenarios of the same
        case (avoids rebuilding admittance matrices and the batched
        evaluation kernels for every sample).
    deadline:
        Optional absolute wall deadline on the ``time.monotonic()`` clock.
        Checked cooperatively between solver iterations; an expired deadline
        terminates the solve with ``timed_out`` set instead of raising.
    """
    (result,) = solve_opf_batch(
        case,
        case.bus.Pd if Pd_mw is None else Pd_mw,
        case.bus.Qd if Qd_mvar is None else Qd_mvar,
        warm_starts=[warm_start],
        options=options,
        model=model,
        deadline=deadline,
    )
    return result


def solve_opf_with_fallback(
    case: Case,
    warm_start: WarmStart,
    Pd_mw: Optional[np.ndarray] = None,
    Qd_mvar: Optional[np.ndarray] = None,
    options: Optional[OPFOptions] = None,
    model: Optional[OPFModel] = None,
) -> tuple[OPFResult, bool, float]:
    """Warm-started solve with automatic cold restart on failure.

    Mirrors the paper's online procedure: if the warm-started solve fails to
    converge, the solver is re-run from the default initial point so the
    workflow always produces a converged solution.  Returns
    ``(result, used_fallback, restart_seconds)``.
    """
    first = solve_opf(
        case, warm_start=warm_start, Pd_mw=Pd_mw, Qd_mvar=Qd_mvar, options=options, model=model
    )
    if first.success:
        return first, False, 0.0
    retry = solve_opf(
        case, warm_start=None, Pd_mw=Pd_mw, Qd_mvar=Qd_mvar, options=options, model=model
    )
    retry.message = f"warm start failed ({first.message}); restarted from default"
    return retry, True, first.total_seconds
