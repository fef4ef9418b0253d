"""Parity suite: the lockstep batched solver against the scalar MIPS path.

The scalar side of the AC-OPF comparisons is :func:`solve_opf_scalar`, the
test-only reference that drives the scalar OPF callbacks through ``mips``.

``mips_batch`` must reproduce the scalar solver scenario-by-scenario — same
iteration counts, objectives and multipliers for converged scenarios, same
failure classification for diverging ones — on random same-structure QPs and
on warm-/cold-started AC-OPF sweeps, including mixed batches where individual
scenarios retire early or fall through to the recovery policy.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine.fallback import get_fallback_policy
from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.mips import MIPSOptions, mips_batch, qps_mips
from repro.opf import (
    BatchedOPFModel,
    OPFModel,
    OPFOptions,
    WarmStart,
    solve_opf,
    solve_opf_batch,
)
from repro.opf.constraints import constraint_function
from repro.opf.hessian import lagrangian_hessian
from repro.parallel import generate_scenarios, run_scenario_sweep
from repro.utils.sparse import csr_from_template
from scalar_reference import solve_opf_scalar


def _dense(template, data_row):
    return np.asarray(csr_from_template(template, data_row).todense())


# ------------------------------------------------------------------ random QPs
def _random_qp_batch(batch=5, nx=6, neq=2, niq=3, seed=0):
    """Same-structure convex QPs with fully dense (but per-scenario) data."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.5, 1.5, size=(batch, nx, nx))
    H = M @ M.transpose(0, 2, 1) + nx * np.eye(nx)
    c = rng.uniform(-1.0, 1.0, size=(batch, nx))
    Aeq = rng.uniform(0.5, 1.5, size=(batch, neq, nx))
    beq = rng.uniform(-0.5, 0.5, size=(batch, neq))
    Ain = rng.uniform(0.5, 1.5, size=(batch, niq, nx))
    bin_ = rng.uniform(1.0, 2.0, size=(batch, niq))
    xmin = np.full(nx, -5.0)
    xmax = np.full(nx, 5.0)
    return H, c, Aeq, beq, Ain, bin_, xmin, xmax


def test_qp_batch_matches_scalar():
    batch = 5
    H, c, Aeq, beq, Ain, bin_, xmin, xmax = _random_qp_batch(batch=batch)
    nx, neq, niq = c.shape[1], beq.shape[1], bin_.shape[1]

    def f_fcn(X, idx):
        Ha = H[idx]
        F = 0.5 * np.einsum("bi,bij,bj->b", X, Ha, X) + np.einsum("bi,bi->b", c[idx], X)
        dF = np.einsum("bij,bj->bi", Ha, X) + c[idx]
        return F, dF

    def gh_fcn(X, idx):
        G = np.einsum("bij,bj->bi", Aeq[idx], X) - beq[idx]
        Hc = np.einsum("bij,bj->bi", Ain[idx], X) - bin_[idx]
        return G, Hc, Aeq[idx].reshape(idx.size, -1), Ain[idx].reshape(idx.size, -1)

    def hess_fcn(X, lam_nl, mu_nl, cost_mult, idx):
        return (H[idx] * cost_mult).reshape(idx.size, -1)

    results = mips_batch(
        f_fcn,
        np.zeros((batch, nx)),
        gh_fcn=gh_fcn,
        hess_fcn=hess_fcn,
        jg_template=sp.csr_matrix(np.ones((neq, nx))),
        jh_template=sp.csr_matrix(np.ones((niq, nx))),
        hess_template=sp.csr_matrix(np.ones((nx, nx))),
        xmin=xmin,
        xmax=xmax,
    )
    assert len(results) == batch
    for b, result in enumerate(results):
        ref = qps_mips(
            H[b], c[b], A_eq=Aeq[b], b_eq=beq[b], A_in=Ain[b], b_in=bin_[b],
            xmin=xmin, xmax=xmax,
        )
        assert ref.converged and result.converged
        assert result.iterations == ref.iterations
        assert result.f == pytest.approx(ref.f, abs=1e-8, rel=1e-8)
        np.testing.assert_allclose(result.x, ref.x, atol=1e-8)
        np.testing.assert_allclose(result.lam, ref.lam, atol=1e-6)
        np.testing.assert_allclose(result.mu, ref.mu, atol=1e-6)
        np.testing.assert_allclose(result.z, ref.z, atol=1e-6)
        assert result.phase_seconds["factorization"] >= 0.0
        assert len(result.history) == result.iterations + 1


def test_mips_batch_validates_inputs():
    with pytest.raises(ValueError, match="hess_fcn"):
        mips_batch(lambda X, idx: (np.zeros(2), np.zeros((2, 3))), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="(B, nx)"):
        mips_batch(
            lambda X, idx: (np.zeros(1), np.zeros((1, 3))),
            np.zeros(3),
            hess_fcn=lambda *a: np.zeros((1, 0)),
            hess_template=sp.csr_matrix((3, 3)),
        )


# -------------------------------------------------------- batched OPF kernels
def test_batched_opf_model_matches_scalar_evaluation():
    """Jacobian/Hessian data planes reproduce the scalar matrices exactly."""
    case = get_case("case14")
    model = OPFModel(case)
    batched = BatchedOPFModel(model)
    rng = np.random.default_rng(2)
    batch = 4
    x0 = model.default_start()
    X = x0 + 0.05 * rng.standard_normal((batch, x0.size))
    samples = sample_loads(case, batch, variation=0.1, seed=9)
    Pd = np.stack([s.Pd for s in samples])
    Qd = np.stack([s.Qd for s in samples])

    F, dF = batched.objective(X)
    G, H, Jg_data, Jh_data = batched.constraints(X, Pd / case.base_mva, Qd / case.base_mva)
    lam = rng.standard_normal((batch, 2 * case.n_bus))
    mu = np.abs(rng.standard_normal((batch, model.n_ineq_nonlin)))
    Hdata = batched.hessian(X, lam, mu, cost_mult=1.0)

    scalar_model = OPFModel(case)
    from repro.opf.costs import objective as scalar_objective

    for b in range(batch):
        f_ref, df_ref, _ = scalar_objective(scalar_model, X[b])
        assert F[b] == pytest.approx(f_ref, rel=1e-12)
        np.testing.assert_allclose(dF[b], df_ref, atol=1e-12)
        gh = constraint_function(scalar_model, Pd[b], Qd[b])
        g_ref, h_ref, Jg_ref, Jh_ref = gh(X[b])
        np.testing.assert_allclose(G[b], g_ref, atol=1e-12)
        np.testing.assert_allclose(H[b], h_ref, atol=1e-12)
        np.testing.assert_allclose(
            _dense(batched.jg_template, Jg_data[b]), np.asarray(Jg_ref.todense()), atol=1e-12
        )
        np.testing.assert_allclose(
            _dense(batched.jh_template, Jh_data[b]), np.asarray(Jh_ref.todense()), atol=1e-12
        )
        H_ref = lagrangian_hessian(scalar_model, X[b], lam[b], mu[b])
        np.testing.assert_allclose(
            _dense(batched.hess_template, Hdata[b]), np.asarray(H_ref.todense()), atol=1e-10
        )


# ------------------------------------------------------------- OPF sweep parity
def _assert_opf_parity(batch_results, scalar_results):
    for got, ref in zip(batch_results, scalar_results):
        assert got.success == ref.success
        if ref.success:
            assert got.iterations == ref.iterations
            assert got.objective == pytest.approx(ref.objective, rel=1e-8)
            np.testing.assert_allclose(got.x, ref.x, atol=1e-8)
            np.testing.assert_allclose(got.lam, ref.lam, atol=1e-6)
            np.testing.assert_allclose(got.mu, ref.mu, atol=1e-6)
            np.testing.assert_allclose(got.z, ref.z, atol=1e-6)


@pytest.mark.parametrize("case_name", ["case9", "case14"])
def test_cold_sweep_parity(case_name):
    case = get_case(case_name)
    samples = sample_loads(case, 4, variation=0.08, seed=3)
    Pd = np.stack([s.Pd for s in samples])
    Qd = np.stack([s.Qd for s in samples])
    model = OPFModel(case)
    batch = solve_opf_batch(case, Pd, Qd, model=model)
    scalar_model = OPFModel(case)
    scalar = [
        solve_opf_scalar(case, Pd_mw=Pd[i], Qd_mvar=Qd[i], model=scalar_model)
        for i in range(Pd.shape[0])
    ]
    assert all(r.success for r in scalar)
    _assert_opf_parity(batch, scalar)


@pytest.mark.parametrize("case_name", ["case9", "case14"])
def test_warm_sweep_parity(case_name):
    case = get_case(case_name)
    samples = sample_loads(case, 4, variation=0.06, seed=5)
    Pd = np.stack([s.Pd for s in samples])
    Qd = np.stack([s.Qd for s in samples])
    model = OPFModel(case)
    base = [
        solve_opf(case, Pd_mw=Pd[i], Qd_mvar=Qd[i], model=model) for i in range(Pd.shape[0])
    ]
    warms = [r.warm_start() for r in base]
    # Nudge the loads so the warm starts are near-optimal but not exact.
    Pd2 = Pd * (1.0 + 0.01 * np.linspace(-1.0, 1.0, Pd.shape[0]))[:, None]
    batch = solve_opf_batch(case, Pd2, Qd, warm_starts=warms, model=model)
    scalar_model = OPFModel(case)
    scalar = [
        solve_opf_scalar(
            case, warm_start=warms[i], Pd_mw=Pd2[i], Qd_mvar=Qd[i], model=scalar_model
        )
        for i in range(Pd.shape[0])
    ]
    _assert_opf_parity(batch, scalar)
    # Warm starts must actually help (the whole point of the engine).
    assert max(r.iterations for r in batch) <= max(r.iterations for r in base)


def test_mixed_batch_with_cold_warm_and_divergent():
    """Scenarios retire individually; a diverging member cannot poison the rest."""
    case = get_case("case9")
    model = OPFModel(case)
    nominal = solve_opf(case, model=model)
    warm = nominal.warm_start()
    Pd = np.stack([case.bus.Pd * 1.02, case.bus.Pd, case.bus.Pd * 15.0])
    Qd = np.stack([case.bus.Qd * 1.02, case.bus.Qd, case.bus.Qd * 15.0])
    options = OPFOptions(mips=MIPSOptions(max_it=40))
    batch = solve_opf_batch(
        case, Pd, Qd, warm_starts=[None, warm, None], options=options, model=model
    )
    scalar_model = OPFModel(case)
    scalar = [
        solve_opf_scalar(
            case,
            warm_start=[None, warm, None][i],
            Pd_mw=Pd[i],
            Qd_mvar=Qd[i],
            options=options,
            model=scalar_model,
        )
        for i in range(3)
    ]
    # Converged members match the scalar path exactly.
    assert batch[0].success and batch[1].success
    _assert_opf_parity(batch[:2], scalar[:2])
    # The absurd-load member fails on both paths (iteration counts may differ
    # once a trajectory diverges — float noise amplifies chaotically).
    assert not batch[2].success and not scalar[2].success
    assert batch[2].message != "converged"
    # Retirement: the warm member finished in fewer iterations than the cold.
    assert batch[1].iterations < batch[0].iterations


# ----------------------------------------------------------- fleet integration
def test_fleet_batch_execution_matches_scenario_mode():
    """Fleet lockstep groups match per-scenario scalar solves, N-1 included."""
    case = get_case("case14")
    scenarios = generate_scenarios(
        case, 8, variation=0.08, contingency_fraction=0.4, seed=5
    )
    assert any(s.outage_branch is not None for s in scenarios)
    sweep = run_scenario_sweep(case, scenarios)
    assert sweep.n_scenarios == len(scenarios)
    for scenario, outcome in zip(scenarios, sweep.outcomes):
        reference = solve_opf_scalar(scenario.apply(case))
        assert outcome.scenario_id == scenario.scenario_id
        assert outcome.success == reference.success
        if reference.success:
            assert outcome.iterations == reference.iterations
            assert outcome.objective == pytest.approx(reference.objective, rel=1e-8)


def test_fleet_batch_mode_fallback_recovers_failures():
    """A poisoned warm start fails in the lockstep batch and is recovered."""
    case = get_case("case9")
    scenarios = generate_scenarios(case, 3, variation=0.05, seed=7)
    model = OPFModel(case)
    good = solve_opf(case, model=model).warm_start()
    # A wildly infeasible primal point makes the warm solve explode quickly.
    poisoned = WarmStart(x=good.x * 200.0, lam=good.lam, mu=good.mu, z=good.z)
    warms = [good, poisoned, good]
    sweep = run_scenario_sweep(
        case,
        scenarios,
        warm_starts=warms,
        fallback=get_fallback_policy("cold_restart"),
    )
    poisoned_outcome = sweep.outcomes[1]
    assert not poisoned_outcome.success
    assert poisoned_outcome.used_fallback and poisoned_outcome.fallback_success
    assert poisoned_outcome.converged
    assert poisoned_outcome.iterations_fallback > 0
    # The healthy members were solved warm, no fallback.
    assert sweep.outcomes[0].success and not sweep.outcomes[0].used_fallback
    assert sweep.success_rate == 1.0


def test_fleet_batch_execution_validation():
    from repro.data import generate_dataset
    from repro.parallel import SolverFleet

    case = get_case("case9")
    with pytest.raises(ValueError, match="execution"):
        SolverFleet(case, execution="warp")
    with pytest.raises(ValueError, match="execution"):
        generate_dataset(case, 2, execution="warp")


# ------------------------------------------------ batch-mode singular KKT paths
def _singular_slot_qp(batch=3, nx=5, neq=2, niq=2, seed=4, consistent=True):
    """Same-structure QP batch whose middle slot has rank-deficient equalities.

    Duplicating slot 1's equality rows makes its KKT system exactly singular
    at every iteration; with identical right-hand sides the system stays
    *consistent* (the regularised solve is accepted by the residual check),
    with different right-hand sides it becomes contradictory and the solve
    must fail cleanly.
    """
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.5, 1.5, size=(batch, nx, nx))
    H = M @ M.transpose(0, 2, 1) + nx * np.eye(nx)
    c = rng.uniform(-1.0, 1.0, size=(batch, nx))
    Aeq = rng.uniform(0.5, 1.5, size=(batch, neq, nx))
    beq = rng.uniform(-0.5, 0.5, size=(batch, neq))
    Aeq[1, 1] = Aeq[1, 0]
    beq[1, 1] = beq[1, 0] if consistent else beq[1, 0] + 1.0
    Ain = rng.uniform(0.5, 1.5, size=(batch, niq, nx))
    bin_ = rng.uniform(1.0, 2.0, size=(batch, niq))

    def f_fcn(X, idx):
        Ha = H[idx]
        F = 0.5 * np.einsum("bi,bij,bj->b", X, Ha, X) + np.einsum("bi,bi->b", c[idx], X)
        dF = np.einsum("bij,bj->bi", Ha, X) + c[idx]
        return F, dF

    def gh_fcn(X, idx):
        G = np.einsum("bij,bj->bi", Aeq[idx], X) - beq[idx]
        Hc = np.einsum("bij,bj->bi", Ain[idx], X) - bin_[idx]
        return G, Hc, Aeq[idx].reshape(idx.size, -1), Ain[idx].reshape(idx.size, -1)

    def hess_fcn(X, lam_nl, mu_nl, cost_mult, idx):
        return (H[idx] * cost_mult).reshape(idx.size, -1)

    kwargs = dict(
        gh_fcn=gh_fcn,
        hess_fcn=hess_fcn,
        jg_template=sp.csr_matrix(np.ones((neq, nx))),
        jh_template=sp.csr_matrix(np.ones((niq, nx))),
        hess_template=sp.csr_matrix(np.ones((nx, nx))),
    )
    return f_fcn, np.zeros((batch, nx)), kwargs


@pytest.mark.parametrize("backend", ["factorized", "blockdiag"])
def test_batch_singular_slot_recovered_by_regularization(backend):
    """A rank-deficient (but consistent) slot converges via the diagonal
    regularisation retry in both solver modes, and the recovery count is
    surfaced on exactly that scenario's result."""
    f_fcn, x0, kwargs = _singular_slot_qp()
    results = mips_batch(f_fcn, x0, options=MIPSOptions(kkt_solver=backend), **kwargs)
    assert all(r.converged for r in results)
    assert results[1].kkt_regularizations > 0
    assert results[0].kkt_regularizations == 0
    assert results[2].kkt_regularizations == 0


def test_batch_singular_slot_neighbours_bit_unaffected():
    """Regularising one slot must not leak into its neighbours.

    The per-slot mode isolates scenarios by construction (one solver per
    slot), so comparing the block-diagonal mode against it bit for bit proves
    the shared block factorisation's fallback kept the healthy neighbours'
    trajectories untouched while slot 1 was being regularised.
    """
    f_fcn, x0, kwargs = _singular_slot_qp()
    per_slot = mips_batch(f_fcn, x0, options=MIPSOptions(kkt_solver="factorized"), **kwargs)
    blocked = mips_batch(f_fcn, x0, options=MIPSOptions(kkt_solver="blockdiag"), **kwargs)
    for a, b in zip(per_slot, blocked):
        assert a.iterations == b.iterations
        assert a.kkt_regularizations == b.kkt_regularizations
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.lam, b.lam)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.z, b.z)


@pytest.mark.parametrize("backend", ["factorized", "blockdiag"])
def test_batch_inconsistent_singular_slot_fails_cleanly(backend):
    """An *inconsistent* singular slot is rejected by the residual check and
    classified as a singular-KKT failure; its neighbours still converge."""
    f_fcn, x0, kwargs = _singular_slot_qp(consistent=False)
    results = mips_batch(f_fcn, x0, options=MIPSOptions(kkt_solver=backend), **kwargs)
    assert not results[1].converged
    assert "singular KKT" in results[1].message
    # Failed recoveries are not counted (the counter reports accepted ones).
    assert results[1].kkt_regularizations == 0
    assert results[0].converged and results[2].converged


def test_batch_all_slots_singular_still_recovers():
    """Even when every slot is singular from the first iteration (so the
    block solver can never harvest a clean column permutation), the per-block
    degradation path recovers the whole batch."""
    import numpy as _np

    rng = _np.random.default_rng(4)
    batch, nx, neq, niq = 3, 5, 2, 2
    M = rng.uniform(0.5, 1.5, size=(batch, nx, nx))
    H = M @ M.transpose(0, 2, 1) + nx * _np.eye(nx)
    c = rng.uniform(-1.0, 1.0, size=(batch, nx))
    Aeq = rng.uniform(0.5, 1.5, size=(batch, neq, nx))
    Aeq[:, 1] = Aeq[:, 0]
    beq = rng.uniform(-0.5, 0.5, size=(batch, neq))
    beq[:, 1] = beq[:, 0]
    Ain = rng.uniform(0.5, 1.5, size=(batch, niq, nx))
    bin_ = rng.uniform(1.0, 2.0, size=(batch, niq))

    def f_fcn(X, idx):
        Ha = H[idx]
        F = 0.5 * _np.einsum("bi,bij,bj->b", X, Ha, X) + _np.einsum("bi,bi->b", c[idx], X)
        return F, _np.einsum("bij,bj->bi", Ha, X) + c[idx]

    def gh_fcn(X, idx):
        return (
            _np.einsum("bij,bj->bi", Aeq[idx], X) - beq[idx],
            _np.einsum("bij,bj->bi", Ain[idx], X) - bin_[idx],
            Aeq[idx].reshape(idx.size, -1),
            Ain[idx].reshape(idx.size, -1),
        )

    def hess_fcn(X, lam_nl, mu_nl, cost_mult, idx):
        return (H[idx] * cost_mult).reshape(idx.size, -1)

    results = mips_batch(
        f_fcn,
        _np.zeros((batch, nx)),
        gh_fcn=gh_fcn,
        hess_fcn=hess_fcn,
        jg_template=sp.csr_matrix(_np.ones((neq, nx))),
        jh_template=sp.csr_matrix(_np.ones((niq, nx))),
        hess_template=sp.csr_matrix(_np.ones((nx, nx))),
        options=MIPSOptions(kkt_solver="blockdiag"),
    )
    assert all(r.converged for r in results)
    assert all(r.kkt_regularizations > 0 for r in results)
