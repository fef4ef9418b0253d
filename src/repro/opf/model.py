"""AC-OPF problem model: variable indexing, bounds and starting points.

The optimisation vector follows the paper (and MATPOWER)::

    x = [ Va (nb) ; Vm (nb) ; Pg (ng) ; Qg (ng) ]

with voltage angles in radians, magnitudes in p.u. and generator injections in
p.u. on the system MVA base.  The reference-bus angle is fixed through its
bounds (``xmin == xmax``), which the MIPS layer turns into an equality
constraint — this is why the paper's Table II reports ``#λ = 2·nb + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.grid.components import Case
from repro.powerflow.derivatives import dSbr_dV
from repro.powerflow.ybus import AdmittanceMatrices, make_ybus
from repro.utils.sparse import CachedBmat


@dataclass(frozen=True)
class VariableIndex:
    """Slices of the four variable groups inside the optimisation vector."""

    nb: int
    ng: int

    @property
    def nx(self) -> int:
        """Total number of optimisation variables."""
        return 2 * self.nb + 2 * self.ng

    @property
    def va(self) -> slice:
        """Voltage-angle block."""
        return slice(0, self.nb)

    @property
    def vm(self) -> slice:
        """Voltage-magnitude block."""
        return slice(self.nb, 2 * self.nb)

    @property
    def pg(self) -> slice:
        """Active generator-injection block."""
        return slice(2 * self.nb, 2 * self.nb + self.ng)

    @property
    def qg(self) -> slice:
        """Reactive generator-injection block."""
        return slice(2 * self.nb + self.ng, 2 * self.nb + 2 * self.ng)

    def split(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Split an optimisation vector into its named components."""
        return {
            "Va": x[self.va],
            "Vm": x[self.vm],
            "Pg": x[self.pg],
            "Qg": x[self.qg],
        }

    def join(self, Va: np.ndarray, Vm: np.ndarray, Pg: np.ndarray, Qg: np.ndarray) -> np.ndarray:
        """Assemble an optimisation vector from its named components."""
        return np.concatenate([Va, Vm, Pg, Qg])


class OPFModel:
    """Caches everything the OPF callbacks need for one case.

    The model is load-agnostic: loads enter only through the power-balance
    constraint evaluation, so one model can be reused across all sampled
    scenarios of a case (this is what makes dataset generation cheap).

    Beyond the admittance matrices the model holds everything about the case
    that is *constant across evaluations*: the generator-connection blocks of
    the power-balance Jacobian, the admittance rows of the rated branches and
    — crucially for the warm-started scenario sweeps — the sparsity-structure
    caches of the constraint Jacobians and the Lagrangian Hessian.  The
    patterns are computed on the first evaluation and only the numeric values
    are refreshed afterwards, so per-iteration assembly is a handful of array
    gathers.  The caches make evaluations stateful: a model must not be
    shared across threads evaluating concurrently (process pools are fine —
    each worker builds its own model).
    """

    def __init__(self, case: Case, flow_limits: str = "S"):
        if flow_limits not in ("S", "none"):
            raise ValueError("flow_limits must be 'S' or 'none'")
        self.case = case
        self.flow_limits = flow_limits
        self.adm: AdmittanceMatrices = make_ybus(case)
        self.idx = VariableIndex(nb=case.n_bus, ng=case.n_gen)

        # Branches with an active flow limit (rate_a == 0 means unlimited).
        rated = (case.branch.rate_a > 0) & (case.branch.status > 0)
        self.limited_branches = (
            np.flatnonzero(rated) if flow_limits == "S" else np.zeros(0, dtype=int)
        )
        #: Squared flow limits in p.u.
        self.flow_limit_sq = (case.branch.rate_a[self.limited_branches] / case.base_mva) ** 2

        self._ref = case.ref_bus_indices()
        if self._ref.size != 1:
            raise ValueError("OPF requires exactly one reference bus")

        nb, ng = case.n_bus, case.n_gen
        lim = self.limited_branches
        #: In-service mask of the generators (float, constant per case).
        self.gen_on = (case.gen.status > 0).astype(float)
        #: Negated generator-connection block of the power-balance Jacobian.
        self.neg_Cg_on = (-(self.adm.Cg @ sp.diags(self.gen_on))).tocsr()
        #: Constant zero blocks of the Jacobians.
        self.zero_bg = sp.csr_matrix((nb, ng))
        self.zero_lg = sp.csr_matrix((lim.size, 2 * ng))
        #: Admittance / connection rows of the rated branches (constant slices).
        self.Yf_lim = self.adm.Yf[lim]
        self.Yt_lim = self.adm.Yt[lim]
        self.Cf_lim = self.adm.Cf[lim]
        self.Ct_lim = self.adm.Ct[lim]

        # Sparsity-structure caches (pattern computed once, values refreshed).
        self._pb_jac_cache = CachedBmat("csr")
        self._flow_jac_cache = CachedBmat("csr")
        self._hess_cache = CachedBmat("csr")
        # One-entry memo for the branch-flow first derivatives: within a MIPS
        # iteration the Hessian is evaluated at the same point as the previous
        # constraint evaluation, so the kernels are shared between the two.
        self._branch_deriv_key: Optional[bytes] = None
        self._branch_deriv_val = None
        #: Lockstep evaluation kernels over this model, built on first use by
        #: :func:`repro.opf.batch.batched_model`.
        self.batched = None

    # ------------------------------------------------------------------ sizes
    @property
    def n_eq_nonlin(self) -> int:
        """Number of nonlinear equality constraints (2·nb power-balance rows)."""
        return 2 * self.case.n_bus

    @property
    def n_ineq_nonlin(self) -> int:
        """Number of nonlinear inequality constraints (2 per limited branch)."""
        return 2 * self.limited_branches.size

    # ----------------------------------------------------------------- bounds
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Variable bounds ``(xmin, xmax)``.

        Non-reference voltage angles are unbounded, the reference angle is
        fixed, magnitudes follow the bus voltage limits and generator
        injections follow their capability limits (out-of-service units are
        pinned at zero).
        """
        case = self.case
        nb, ng = case.n_bus, case.n_gen
        xmin = np.full(self.idx.nx, -np.inf)
        xmax = np.full(self.idx.nx, np.inf)

        ref = self._ref[0]
        va_ref = np.deg2rad(case.bus.Va[ref])
        xmin[self.idx.va][...] = -np.inf
        xmax[self.idx.va][...] = np.inf
        # Slices of xmin/xmax return views, so in-place assignment works.
        xmin[ref] = va_ref
        xmax[ref] = va_ref

        xmin[self.idx.vm] = case.bus.Vmin
        xmax[self.idx.vm] = case.bus.Vmax

        on = case.gen.status > 0
        pmin = np.where(on, case.gen.Pmin, 0.0) / case.base_mva
        pmax = np.where(on, case.gen.Pmax, 0.0) / case.base_mva
        qmin = np.where(on, case.gen.Qmin, 0.0) / case.base_mva
        qmax = np.where(on, case.gen.Qmax, 0.0) / case.base_mva
        xmin[self.idx.pg] = pmin
        xmax[self.idx.pg] = pmax
        xmin[self.idx.qg] = qmin
        xmax[self.idx.qg] = qmax
        return xmin, xmax

    # ----------------------------------------------------------- start points
    def default_start(self) -> np.ndarray:
        """The *imprecise default* starting point of the paper.

        This mirrors MATPOWER's OPF initialisation: case voltage profile (with
        generator buses at their set points) and the case's scheduled
        generator outputs, clipped into bounds.
        """
        case = self.case
        Va = np.deg2rad(case.bus.Va)
        Vm = case.bus.Vm.copy()
        gbus = case.gen_bus_indices()
        on = case.gen.status > 0
        Vm[gbus[on]] = case.gen.Vg[on]
        Pg = case.gen.Pg / case.base_mva
        Qg = case.gen.Qg / case.base_mva
        x0 = self.idx.join(Va, Vm, Pg, Qg)
        xmin, xmax = self.bounds()
        finite_lo, finite_hi = np.isfinite(xmin), np.isfinite(xmax)
        x0[finite_lo] = np.maximum(x0[finite_lo], xmin[finite_lo])
        x0[finite_hi] = np.minimum(x0[finite_hi], xmax[finite_hi])
        return x0

    def flat_start(self) -> np.ndarray:
        """Flat voltage profile with generation at the midpoint of its range."""
        case = self.case
        Va = np.zeros(case.n_bus)
        Vm = np.ones(case.n_bus)
        Pg = 0.5 * (case.gen.Pmin + case.gen.Pmax) / case.base_mva
        Qg = 0.5 * (case.gen.Qmin + case.gen.Qmax) / case.base_mva
        return self.idx.join(Va, Vm, Pg, Qg)

    # -------------------------------------------------------------- voltages
    def complex_voltage(self, x: np.ndarray) -> np.ndarray:
        """Complex bus voltages encoded in ``x``."""
        return x[self.idx.vm] * np.exp(1j * x[self.idx.va])

    # ------------------------------------------------------- shared derivatives
    def branch_flow_derivatives(self, x: np.ndarray, V: Optional[np.ndarray] = None):
        """First derivatives of the rated-branch flows at ``x`` (memoised).

        Returns ``((dSf_dVa, dSf_dVm, Sf), (dSt_dVa, dSt_dVm, St))`` for the
        from/to ends of the rated branches.  The constraint evaluation and the
        Lagrangian Hessian need these at the same point within one MIPS
        iteration, so the most recent evaluation is memoised (keyed on the
        bytes of ``x``).
        """
        key = x.tobytes()
        if self._branch_deriv_key == key:
            return self._branch_deriv_val
        if V is None:
            V = self.complex_voltage(x)
        value = (
            dSbr_dV(self.Yf_lim, self.Cf_lim, V),
            dSbr_dV(self.Yt_lim, self.Ct_lim, V),
        )
        self._branch_deriv_key = key
        self._branch_deriv_val = value
        return value
