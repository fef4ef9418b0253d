"""Batch-vectorised AC-OPF evaluation and the batched solve driver.

:class:`BatchedOPFModel` is the batch-axis counterpart of
:class:`~repro.opf.model.OPFModel`: for a ``(B, nx)`` state matrix it
evaluates the objective, the nonlinear constraints and the *data planes* of
their Jacobians and of the Lagrangian Hessian — ``(B, nnz)`` arrays scattered
into sparsity patterns that are fixed per case and computed once at
construction.  All evaluation work is vectorised across the batch axis via
the batched kernels of :mod:`repro.powerflow.derivatives` /
:mod:`repro.powerflow.hessians`; the only remaining per-scenario work
(factorise / backsolve) lives in :func:`repro.mips.batch.mips_batch`.

:func:`solve_opf_batch` is the sweep-level entry point: it solves a whole
batch of load scenarios of one case in lockstep and returns one
:class:`~repro.opf.result.OPFResult` per scenario.  A scenario batch shares
the case topology, the sparsity patterns and the variable bounds; loads and
warm starts vary per row.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.grid.components import Case
from repro.mips.batch import BatchFeedPayload, mips_batch
from repro.opf.model import OPFModel
from repro.opf.result import OPFResult, build_opf_result
from repro.opf.options import OPFOptions
from repro.opf.warmstart import WarmStart
from repro.powerflow.derivatives import BatchedBranchDerivatives, BatchedSbusDerivatives
from repro.powerflow.hessians import BatchedASbrHessian, BatchedSbusHessian
from repro.utils.sparse import CachedBmat, pattern_union

__all__ = ["BatchedOPFModel", "batched_model", "solve_opf_batch"]


class BatchedOPFModel:
    """Batch-axis evaluation kernels for one case's AC-OPF problem.

    Wraps an :class:`OPFModel` (which contributes the constant case data) and
    precomputes every sparsity pattern and scatter plan the batched
    evaluations need.  Like the scalar model, instances are stateless across
    calls except for the pattern caches and must not be shared between
    threads.
    """

    def __init__(self, model: OPFModel):
        self.model = model
        case = model.case
        nb, ng = case.n_bus, case.n_gen
        self.idx = model.idx
        self._base = case.base_mva
        self._coeffs = case.gencost.coeffs
        self._gen_on = model.gen_on
        self._nb, self._ng = nb, ng

        # ------------------------------------------------- first derivatives
        self._sbus = BatchedSbusDerivatives(model.adm.Ybus)
        lim = model.limited_branches
        self._n_lim = lim.size
        if self._n_lim:
            self._fder = BatchedBranchDerivatives(model.Yf_lim, model.Cf_lim)
            self._tder = BatchedBranchDerivatives(model.Yt_lim, model.Ct_lim)
        # One-evaluation memo of the branch first-derivative planes: within a
        # lockstep iteration the Hessian is evaluated at (a row subset of) the
        # state of the preceding constraint evaluation, so the planes are
        # shared — the batch counterpart of the scalar model's
        # ``branch_flow_derivatives`` memo.  Keyed per row on the state bytes.
        self._branch_memo: dict = {}
        self._branch_planes: tuple = ()

        # ------------------------------------------- Jacobian block templates
        self._neg_cg = model.neg_Cg_on.tocsr()
        self._neg_cg.sort_indices()
        dS_t = self._sbus.template
        self._jg_cache = CachedBmat("csr")
        self._jg_cache.assemble(
            [
                [dS_t, dS_t, self._neg_cg, model.zero_bg],
                [dS_t, dS_t, model.zero_bg, self._neg_cg],
            ]
        )
        if self._n_lim:
            br_f, br_t = self._fder.template, self._tder.template
            self._jh_cache = CachedBmat("csr")
            self._jh_cache.assemble(
                [[br_f, br_f, model.zero_lg], [br_t, br_t, model.zero_lg]]
            )
        else:
            self._jh_cache = None

        # -------------------------------------------------- Hessian templates
        self._bus_hess = BatchedSbusHessian(model.adm.Ybus)
        v_patterns = [self._bus_hess.template]
        if self._n_lim:
            self._f_hess = BatchedASbrHessian(
                model.Cf_lim, model.Yf_lim, self._fder.template
            )
            self._t_hess = BatchedASbrHessian(
                model.Ct_lim, model.Yt_lim, self._tder.template
            )
            v_patterns += [self._f_hess.template, self._t_hess.template]
        self._vblock, positions = pattern_union(v_patterns)
        self._pos_bus = positions[0]
        if self._n_lim:
            self._pos_f, self._pos_t = positions[1], positions[2]
        dgg = sp.identity(2 * ng, format="csr")
        self._hess_cache = CachedBmat("csr")
        self._hess_cache.assemble(
            [
                [self._vblock, self._vblock, None],
                [self._vblock, self._vblock, None],
                [None, None, dgg],
            ]
        )

    # ------------------------------------------------------------- templates
    @property
    def jg_template(self) -> sp.spmatrix:
        """Pattern of the nonlinear equality-constraint Jacobian."""
        return self._jg_cache.template

    @property
    def jh_template(self) -> sp.spmatrix:
        """Pattern of the nonlinear inequality-constraint Jacobian."""
        if self._jh_cache is None:
            return sp.csr_matrix((0, self.idx.nx))
        return self._jh_cache.template

    @property
    def hess_template(self) -> sp.spmatrix:
        """Pattern of the Lagrangian Hessian."""
        return self._hess_cache.template

    # ------------------------------------------------------------- objective
    def _cost_terms(self, Pg_mw: np.ndarray):
        """Batched Horner evaluation of the polynomial costs and derivatives."""
        coeffs = self._coeffs
        ncost_max = coeffs.shape[1]
        batch = Pg_mw.shape[0]
        # Float exponents mirror the scalar implementation bit-for-bit.
        powers = np.arange(ncost_max - 1, -1, -1, dtype=float)
        cost = np.zeros((batch, self._ng))
        d1 = np.zeros((batch, self._ng))
        d2 = np.zeros((batch, self._ng))
        for k in range(ncost_max):
            p = powers[k]
            cost = cost * Pg_mw + coeffs[:, k]
            if p >= 1:
                d1 += coeffs[:, k] * p * Pg_mw ** (p - 1)
            if p >= 2:
                d2 += coeffs[:, k] * p * (p - 1) * Pg_mw ** (p - 2)
        return cost, d1, d2

    def objective(self, X: np.ndarray):
        """Batched objective ``(F, dF)`` in optimisation space."""
        base = self._base
        Pg_mw = X[:, self.idx.pg] * base
        cost, d1, _ = self._cost_terms(Pg_mw)
        F = (cost * self._gen_on).sum(axis=1)
        dF = np.zeros((X.shape[0], self.idx.nx))
        dF[:, self.idx.pg] = d1 * self._gen_on * base
        return F, dF

    def objective_hessian_diag(self, X: np.ndarray) -> np.ndarray:
        """Batched diagonal of the objective Hessian over the ``Pg`` block."""
        base = self._base
        _, _, d2 = self._cost_terms(X[:, self.idx.pg] * base)
        return d2 * self._gen_on * base * base

    # ----------------------------------------------------------- constraints
    def _voltages(self, X: np.ndarray) -> np.ndarray:
        return X[:, self.idx.vm] * np.exp(1j * X[:, self.idx.va])

    def _branch_derivatives(self, X: np.ndarray, V: np.ndarray):
        """Branch first-derivative planes at ``X``, memoised per row.

        Returns ``(fdVa, fdVm, Sf, tdVa, tdVm, St)``.  A full-batch hit (every
        row of ``X`` evaluated by the previous call) is served by gathering
        the stored rows; any miss re-evaluates the whole batch.
        """
        keys = [row.tobytes() for row in X]
        memo = self._branch_memo
        if memo and all(key in memo for key in keys):
            rows = np.array([memo[key] for key in keys])
            return tuple(plane[rows] for plane in self._branch_planes)
        fdVa, fdVm, Sf = self._fder(V)
        tdVa, tdVm, St = self._tder(V)
        self._branch_planes = (fdVa, fdVm, Sf, tdVa, tdVm, St)
        self._branch_memo = {key: i for i, key in enumerate(keys)}
        return self._branch_planes

    def constraints(self, X: np.ndarray, Pd_pu: np.ndarray, Qd_pu: np.ndarray):
        """Batched constraint values and Jacobian data planes.

        ``Pd_pu``/``Qd_pu`` are the per-scenario loads in p.u., one row per
        row of ``X``.  Returns ``(G, H, Jg_data, Jh_data)`` with the data
        planes on :attr:`jg_template` / :attr:`jh_template`.
        """
        model = self.model
        batch = X.shape[0]
        V = self._voltages(X)
        # One Ybus @ V product serves both the injections and the derivatives.
        dVa, dVm, Ibus = self._sbus(V)
        Sbus = V * np.conj(Ibus)
        Sg = (X[:, self.idx.pg] + 1j * X[:, self.idx.qg]) * self._gen_on
        Sgen = (model.adm.Cg @ Sg.T).T
        mis = Sbus + (Pd_pu + 1j * Qd_pu) - Sgen
        G = np.concatenate([mis.real, mis.imag], axis=1)

        neg_cg = np.broadcast_to(self._neg_cg.data, (batch, self._neg_cg.nnz))
        none = np.zeros((batch, 0))
        Jg_data = self._jg_cache.assemble_batch(
            [dVa.real, dVm.real, neg_cg, none, dVa.imag, dVm.imag, none, neg_cg]
        )

        if self._n_lim:
            fdVa, fdVm, Sf, tdVa, tdVm, St = self._branch_derivatives(X, V)
            H = np.concatenate(
                [
                    np.abs(Sf) ** 2 - model.flow_limit_sq,
                    np.abs(St) ** 2 - model.flow_limit_sq,
                ],
                axis=1,
            )
            fAa, fAm = self._fder.squared_flow(fdVa, fdVm, Sf)
            tAa, tAm = self._tder.squared_flow(tdVa, tdVm, St)
            Jh_data = self._jh_cache.assemble_batch([fAa, fAm, none, tAa, tAm, none])
        else:
            H = np.zeros((batch, 0))
            Jh_data = np.zeros((batch, 0))
        return G, H, Jg_data, Jh_data

    # --------------------------------------------------------------- Hessian
    def hessian(
        self,
        X: np.ndarray,
        Lam_nl: np.ndarray,
        Mu_nl: np.ndarray,
        cost_mult: float = 1.0,
    ) -> np.ndarray:
        """Batched Lagrangian-Hessian data planes on :attr:`hess_template`.

        ``Lam_nl`` holds the ``(B, 2·nb)`` power-balance multipliers (real
        rows first) and ``Mu_nl`` the ``(B, 2·n_lim)`` branch-flow multipliers
        (from-end rows first), matching the scalar callback's ordering.
        """
        nb = self._nb
        batch = X.shape[0]
        V = self._voltages(X)
        # One complex evaluation covers both multiplier blocks: the kernel is
        # linear in lam, and Re{G(lamP - j·lamQ)} == Re{G(lamP)} + Im{G(lamQ)}.
        lam_c = Lam_nl[:, :nb] - 1j * Lam_nl[:, nb:]
        Gaa, Gav, Gva, Gvv = self._bus_hess(V, lam_c)

        nnz_v = self._vblock.nnz
        Haa = np.zeros((batch, nnz_v))
        Hav = np.zeros((batch, nnz_v))
        Hva = np.zeros((batch, nnz_v))
        Hvv = np.zeros((batch, nnz_v))
        Haa[:, self._pos_bus] = Gaa.real
        Hav[:, self._pos_bus] = Gav.real
        Hva[:, self._pos_bus] = Gva.real
        Hvv[:, self._pos_bus] = Gvv.real

        if self._n_lim:
            nl = self._n_lim
            muF, muT = Mu_nl[:, :nl], Mu_nl[:, nl:]
            fdVa, fdVm, Sf, tdVa, tdVm, St = self._branch_derivatives(X, V)
            for hess, dVa_, dVm_, Sbr, mu_, pos in (
                (self._f_hess, fdVa, fdVm, Sf, muF, self._pos_f),
                (self._t_hess, tdVa, tdVm, St, muT, self._pos_t),
            ):
                Baa, Bav, Bva, Bvv = hess.blocks(dVa_, dVm_, Sbr, mu_, V)
                Haa[:, pos] += Baa
                Hav[:, pos] += Bav
                Hva[:, pos] += Bva
                Hvv[:, pos] += Bvv

        Dgg = np.zeros((batch, 2 * self._ng))
        Dgg[:, : self._ng] = self.objective_hessian_diag(X) * cost_mult
        return self._hess_cache.assemble_batch([Haa, Hav, Hva, Hvv, Dgg])


def batched_model(model: OPFModel) -> BatchedOPFModel:
    """The batched kernels of ``model``, built on first use and kept on it.

    Every lockstep solve on one :class:`OPFModel` reuses the same
    :class:`BatchedOPFModel`, so a one-row :func:`~repro.opf.solver.solve_opf`
    pays the pattern set-up once per model, not once per call.  Like the
    model itself, the kernels must not be shared between threads.
    """
    if model.batched is None:
        model.batched = BatchedOPFModel(model)
    return model.batched


def _warm_component(
    warm_starts: Sequence[Optional[WarmStart]],
    attr: str,
    n: int,
    floor: Optional[float] = None,
):
    """Stack one warm-start component into a value matrix plus presence mask."""
    batch = len(warm_starts)
    mask = np.zeros(batch, dtype=bool)
    values = np.zeros((batch, n))
    for i, warm in enumerate(warm_starts):
        component = getattr(warm, attr) if warm is not None else None
        if component is None:
            continue
        component = np.asarray(component, dtype=float)
        if component.shape != (n,):
            raise ValueError(
                f"warm start {i}: {attr} has shape {component.shape}, expected ({n},)"
            )
        values[i] = np.maximum(component, floor) if floor is not None else component
        mask[i] = True
    if not mask.any():
        return None, None
    return values, mask


def solve_opf_batch(
    case: Case,
    Pd_mw: np.ndarray,
    Qd_mvar: np.ndarray,
    warm_starts: Optional[Sequence[Optional[WarmStart]]] = None,
    options: Optional[OPFOptions] = None,
    model: Optional[OPFModel] = None,
    batched: Optional[BatchedOPFModel] = None,
    window: Optional[int] = None,
    deadline: Optional[object] = None,
) -> List[OPFResult]:
    """Solve a batch of load scenarios of one case in lockstep.

    ``Pd_mw``/``Qd_mvar`` are ``(B, nb)`` per-scenario loads in MW/MVAr;
    ``warm_starts`` is an optional per-scenario list (``None`` entries mean a
    cold start, and missing components fall back to solver defaults).
    Returns one :class:`OPFResult` per scenario, in input order.  Without
    ``batched`` the solve uses the model's cached kernels
    (:func:`batched_model`).

    ``window`` bounds the lockstep width: the solve starts with the first
    ``window`` scenarios and *streams* the rest through the active set via
    the batched solver's retire-and-refill feed — whenever scenarios converge
    and retire, queued ones are enrolled in their place, so stragglers never
    shrink the march below the available work.  Per-scenario results are
    bit-identical for every window size (including the default unbounded
    one); the scheduler-invariant harness pins that.  Note the window bounds
    the *march* (per-iteration evaluation/factorisation width), not memory:
    solver state is allocated for the whole batch up front, so callers
    bounding footprint should split the sweep into separate calls (as the
    fleet's micro-batch dispatch does).

    ``deadline`` is an absolute wall deadline on the ``time.monotonic()``
    clock — a scalar shared by every scenario or a ``(B,)`` vector of per-row
    deadlines.  Expired rows retire with ``timed_out`` between iterations
    through the ordinary retirement path, leaving the trajectories of their
    lockstep neighbours bitwise unchanged.
    """
    options = options or OPFOptions()
    t0 = time.perf_counter()
    if model is None:
        model = OPFModel(case, flow_limits=options.flow_limits)
    elif model.case is not case:
        raise ValueError("the supplied model was built for a different case object")
    if batched is None:
        batched = batched_model(model)
    elif batched.model is not model:
        raise ValueError("the supplied batched model wraps a different OPFModel")

    Pd_mw = np.atleast_2d(np.asarray(Pd_mw, dtype=float))
    Qd_mvar = np.atleast_2d(np.asarray(Qd_mvar, dtype=float))
    if Pd_mw.shape != Qd_mvar.shape or Pd_mw.shape[1] != case.n_bus:
        raise ValueError("Pd_mw/Qd_mvar must both be (B, n_bus)")
    batch = Pd_mw.shape[0]
    if warm_starts is None:
        warm_starts = [None] * batch
    if len(warm_starts) != batch:
        raise ValueError("warm_starts must have one entry per scenario")
    warm_starts = [
        None if w is None else w.clipped_duals() for w in warm_starts
    ]

    xmin, xmax = model.bounds()
    x_default = model.default_start() if options.init == "case" else model.flat_start()
    X0 = np.tile(x_default, (batch, 1))
    for i, warm in enumerate(warm_starts):
        if warm is not None and warm.x is not None:
            X0[i] = np.asarray(warm.x, dtype=float)

    # Sizes of the internal multiplier vectors (nonlinear rows + bound rows),
    # mirroring the _BoundHandler partition the batch solver will build.
    finite_lo = np.isfinite(xmin)
    finite_hi = np.isfinite(xmax)
    fixed = finite_lo & finite_hi & (np.abs(xmax - xmin) <= options.mips.bound_eq_tol)
    n_eq = model.n_eq_nonlin + np.count_nonzero(fixed)
    n_ineq = (
        model.n_ineq_nonlin
        + np.count_nonzero(finite_hi & ~fixed)
        + np.count_nonzero(finite_lo & ~fixed)
    )
    lam0, lam_mask = _warm_component(warm_starts, "lam", n_eq)
    mu0, mu_mask = _warm_component(warm_starts, "mu", n_ineq)
    z0, z_mask = _warm_component(warm_starts, "z", n_ineq)

    if deadline is None:
        deadlines = None
    else:
        deadlines = np.asarray(deadline, dtype=float)
        if deadlines.ndim == 0:
            deadlines = np.full(batch, float(deadlines))
        elif deadlines.shape != (batch,):
            raise ValueError("deadline must be a scalar or have one entry per scenario")

    Pd_pu = Pd_mw / case.base_mva
    Qd_pu = Qd_mvar / case.base_mva

    def f_fcn(X: np.ndarray, idx: np.ndarray):
        return batched.objective(X)

    def gh_fcn(X: np.ndarray, idx: np.ndarray):
        return batched.constraints(X, Pd_pu[idx], Qd_pu[idx])

    def hess_fcn(X, Lam_nl, Mu_nl, cost_mult, idx):
        return batched.hessian(X, Lam_nl, Mu_nl, cost_mult)

    preprocess_seconds = (time.perf_counter() - t0) / batch

    def rows(start: int, stop: int) -> dict:
        """Entry arguments for scenario rows ``[start, stop)``."""
        sl = slice(start, stop)
        return {
            "lam0": None if lam0 is None else lam0[sl],
            "mu0": None if mu0 is None else mu0[sl],
            "z0": None if z0 is None else z0[sl],
            "lam0_mask": None if lam0 is None else lam_mask[sl],
            "mu0_mask": None if mu0 is None else mu_mask[sl],
            "z0_mask": None if z0 is None else z_mask[sl],
            "deadline": None if deadlines is None else deadlines[sl],
        }

    if window is not None and window < 1:
        raise ValueError("window must be positive")
    if window is not None and window < batch:
        # Stream the batch through a bounded lockstep window: retired slots
        # are refilled from the remaining scenarios between iterations.
        cursor = window

        def feed(free_slots: int) -> Optional[BatchFeedPayload]:
            nonlocal cursor
            if cursor >= batch:
                return None
            stop = min(cursor + free_slots, batch)
            payload = BatchFeedPayload(x0=X0[cursor:stop], **rows(cursor, stop))
            cursor = stop
            return payload

        mips_results = mips_batch(
            f_fcn,
            X0[:window],
            gh_fcn=gh_fcn,
            hess_fcn=hess_fcn,
            jg_template=batched.jg_template,
            jh_template=batched.jh_template,
            hess_template=batched.hess_template,
            xmin=xmin,
            xmax=xmax,
            options=options.mips,
            feed=feed,
            feed_capacity=batch,
            **rows(0, window),
        )
    else:
        mips_results = mips_batch(
            f_fcn,
            X0,
            gh_fcn=gh_fcn,
            hess_fcn=hess_fcn,
            jg_template=batched.jg_template,
            jh_template=batched.jh_template,
            hess_template=batched.hess_template,
            xmin=xmin,
            xmax=xmax,
            lam0=lam0,
            mu0=mu0,
            z0=z0,
            lam0_mask=lam_mask,
            mu0_mask=mu_mask,
            z0_mask=z_mask,
            options=options.mips,
            deadline=deadlines,
        )
    return [
        build_opf_result(case, model, r, preprocess_seconds, Pd_mw[i], Qd_mvar[i])
        for i, r in enumerate(mips_results)
    ]
