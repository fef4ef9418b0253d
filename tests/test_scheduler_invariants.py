"""Scheduler-invariant harness: the elastic dispatch must never change results.

The elastic scenario scheduler (PR 5) decides *where and with whom* a scenario
is solved — stolen micro-batches, retire-and-refill lockstep windows,
cross-sweep contingency groups — while the per-scenario result semantics
must survive every one of those choices bit for bit.  This suite pins that
contract:

* micro-batching partitions the sweep exactly once and keeps micro-batches
  topology-pure (property-based);
* ``mips_batch``'s retire-and-refill feed is bitwise-invariant in the lockstep
  window size, including singular-KKT scenarios enrolled mid-flight whose
  ``kkt_regularizations`` must land on the right scenario (property-based);
* fleet sweeps are exactly-once, invariant under scenario permutation and
  micro-batch size, and keep additive ``solve_seconds`` wall shares bounded
  by the sweep wall under stealing.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.mips.batch import BatchFeedPayload, mips_batch
from repro.mips.options import MIPSOptions
from repro.parallel import (
    Scenario,
    ScenarioSet,
    SolverFleet,
    auto_microbatch_size,
    generate_scenarios,
    make_microbatches,
    run_scenario_sweep,
    topology_key,
)
from repro.parallel.scheduler import MicroBatch


# --------------------------------------------------------------- pure policies
def _fake_scenarios(outages):
    nb = 3
    return [
        Scenario(i, np.full(nb, 10.0 + i), np.full(nb, 3.0), outage_branch=o)
        for i, o in enumerate(outages)
    ]


outage_lists = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)), min_size=1, max_size=24
)


@settings(max_examples=60, deadline=None)
@given(outages=outage_lists, data=st.data())
def test_microbatches_topology_pure_and_exactly_once(outages, data):
    scenarios = _fake_scenarios(outages)
    microbatch = data.draw(st.integers(min_value=1, max_value=8))
    batches = make_microbatches(scenarios, microbatch=microbatch)
    everything = sorted(pos for mb in batches for pos in mb.positions)
    assert everything == list(range(len(outages)))
    for mb in batches:
        assert isinstance(mb, MicroBatch)
        assert 1 <= len(mb) <= microbatch
        assert {topology_key(scenarios[pos]) for pos in mb.positions} == {mb.key}
        assert mb.key == (() if outages[mb.positions[0]] is None else (outages[mb.positions[0]],))


def test_auto_microbatch_size_oversubscribes():
    assert auto_microbatch_size(0, 4) == 1
    assert auto_microbatch_size(64, 4) == 4  # 64 / (4 workers * 4x) = 4
    assert auto_microbatch_size(3, 8) == 1
    assert auto_microbatch_size(10, 1) == 3


# --------------------------------------------------- retire-and-refill (QP level)
def _qp_problem(batch, nx, neq, niq, seed):
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.5, 1.5, size=(batch, nx, nx))
    H = M @ M.transpose(0, 2, 1) + nx * np.eye(nx)
    c = rng.uniform(-1.0, 1.0, size=(batch, nx))
    Aeq = rng.uniform(0.5, 1.5, size=(batch, neq, nx))
    beq = rng.uniform(-0.5, 0.5, size=(batch, neq))
    Ain = rng.uniform(0.5, 1.5, size=(batch, niq, nx))
    bin_ = rng.uniform(1.0, 2.0, size=(batch, niq))
    return H, c, Aeq, beq, Ain, bin_


def _solve_qp_batch(H, c, Aeq, beq, Ain, bin_, window=None, kkt_solver="factorized"):
    """Solve a same-structure QP batch through mips_batch, optionally windowed."""
    batch, nx = c.shape
    neq, niq = beq.shape[1], bin_.shape[1]

    # Row-wise loops (not batched einsum): the invariance contract only holds
    # for callbacks whose row results are independent of batch composition,
    # which the real batched OPF kernels guarantee and einsum does not.
    def f_fcn(X, idx):
        F = np.array([0.5 * x @ H[j] @ x + c[j] @ x for x, j in zip(X, idx)])
        dF = np.stack([H[j] @ x + c[j] for x, j in zip(X, idx)])
        return F, dF

    def gh_fcn(X, idx):
        G = np.stack([Aeq[j] @ x - beq[j] for x, j in zip(X, idx)])
        Hc = np.stack([Ain[j] @ x - bin_[j] for x, j in zip(X, idx)])
        return G, Hc, Aeq[idx].reshape(idx.size, -1), Ain[idx].reshape(idx.size, -1)

    def hess_fcn(X, lam_nl, mu_nl, cost_mult, idx):
        return (H[idx] * cost_mult).reshape(idx.size, -1)

    kwargs = dict(
        gh_fcn=gh_fcn,
        hess_fcn=hess_fcn,
        jg_template=sp.csr_matrix(np.ones((neq, nx))),
        jh_template=sp.csr_matrix(np.ones((niq, nx))),
        hess_template=sp.csr_matrix(np.ones((nx, nx))),
        xmin=np.full(nx, -5.0),
        xmax=np.full(nx, 5.0),
        options=MIPSOptions(kkt_solver=kkt_solver),
    )
    X0 = np.zeros((batch, nx))
    if window is None or window >= batch:
        return mips_batch(f_fcn, X0, **kwargs)

    cursor = window

    def feed(free):
        nonlocal cursor
        if cursor >= batch:
            return None
        stop = min(cursor + free, batch)
        payload = BatchFeedPayload(x0=X0[cursor:stop])
        cursor = stop
        return payload

    return mips_batch(f_fcn, X0[:window], feed=feed, feed_capacity=batch, **kwargs)


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(min_value=2, max_value=6),
    nx=st.integers(min_value=2, max_value=5),
    neq=st.integers(min_value=1, max_value=2),
    niq=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
    window=st.integers(min_value=1, max_value=6),
    backend=st.sampled_from(["factorized", "blockdiag"]),
)
def test_feed_window_bitwise_invariant(batch, nx, neq, niq, seed, window, backend):
    """Every lockstep window size yields bitwise the full-batch results."""
    problem = _qp_problem(batch, nx, max(neq, 1), niq, seed)
    full = _solve_qp_batch(*problem, kkt_solver=backend)
    windowed = _solve_qp_batch(*problem, window=min(window, batch), kkt_solver=backend)
    assert len(full) == len(windowed) == batch  # exactly once, in order
    for a, b in zip(full, windowed):
        assert a.converged == b.converged
        assert a.iterations == b.iterations
        assert a.f == b.f
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.z, b.z)
        assert a.kkt_regularizations == b.kkt_regularizations
        assert len(a.history) == len(b.history)


@settings(max_examples=15, deadline=None)
@given(
    batch=st.integers(min_value=2, max_value=5),
    window=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_feed_wall_shares_additive(batch, window, seed):
    """Wall shares of a windowed solve stay additive: they sum to ≤ the wall."""
    import time

    problem = _qp_problem(batch, 4, 2, 2, seed)
    t0 = time.perf_counter()
    results = _solve_qp_batch(*problem, window=min(window, batch))
    wall = time.perf_counter() - t0
    shares = sum(r.wall_share_seconds for r in results)
    assert all(r.wall_share_seconds >= 0.0 for r in results)
    assert shares <= wall + 1e-6


def _singular_requeue_problem(batch=4, nx=5, neq=2, niq=2, seed=4):
    """QP batch whose *third* slot has consistent rank-deficient equalities.

    With ``window=1`` the singular slot enrolls mid-flight (after slot 0
    retires), exercising regularisation attribution across a requeue.
    """
    H, c, Aeq, beq, Ain, bin_ = _qp_problem(batch, nx, neq, niq, seed)
    sick = 2
    Aeq = Aeq.copy()
    beq = beq.copy()
    Aeq[sick, 1] = Aeq[sick, 0]  # duplicated row: rank-deficient but consistent
    beq[sick, 1] = beq[sick, 0]
    return (H, c, Aeq, beq, Ain, bin_), sick


@pytest.mark.parametrize("backend", ["factorized", "blockdiag"])
def test_regularizations_attributed_after_requeue(backend):
    problem, sick = _singular_requeue_problem()
    full = _solve_qp_batch(*problem, kkt_solver=backend)
    assert full[sick].kkt_regularizations > 0
    for window in (1, 2, 3):
        windowed = _solve_qp_batch(*problem, window=window, kkt_solver=backend)
        for b, (a, w) in enumerate(zip(full, windowed)):
            # Recoveries land on the singular scenario only, wherever the
            # window happened to place it; neighbours stay bit-unaffected.
            assert w.kkt_regularizations == a.kkt_regularizations
            assert (w.kkt_regularizations > 0) == (b == sick)
            assert np.array_equal(a.x, w.x)
            assert a.iterations == w.iterations


# ------------------------------------------------------------ fleet invariants
@pytest.fixture(scope="module")
def sweep_case9():
    from repro.grid import get_case

    case = get_case("case9")
    scenarios = generate_scenarios(
        case, 8, variation=0.08, contingency_fraction=0.4, seed=5
    )
    assert any(s.outage_branch is not None for s in scenarios)
    return case, scenarios


def _by_id(sweep):
    return {o.scenario_id: o for o in sweep.outcomes}


def _assert_bitwise_equal_outcomes(a, b):
    assert a.scenario_id == b.scenario_id
    assert a.success == b.success
    assert a.converged == b.converged
    assert a.iterations == b.iterations
    if a.success:
        assert a.objective == b.objective


def test_fleet_exactly_once_and_sorted(sweep_case9):
    case, scenarios = sweep_case9
    sweep = run_scenario_sweep(case, scenarios, microbatch=2)
    ids = [o.scenario_id for o in sweep.outcomes]
    assert ids == sorted(ids)
    assert ids == [s.scenario_id for s in scenarios]


def test_fleet_steal_results_invariant_under_microbatch_size(sweep_case9):
    case, scenarios = sweep_case9
    reference = run_scenario_sweep(case, scenarios, microbatch=len(scenarios))
    for microbatch in (1, 2, 3, None):
        sweep = run_scenario_sweep(case, scenarios, microbatch=microbatch)
        for a, b in zip(reference.outcomes, sweep.outcomes):
            _assert_bitwise_equal_outcomes(a, b)


def test_fleet_steal_results_invariant_under_permutation(sweep_case9):
    """Submitting the sweep in any scenario order yields identical results."""
    case, scenarios = sweep_case9
    reference = _by_id(run_scenario_sweep(case, scenarios, microbatch=2))
    rng = np.random.default_rng(0)
    for _ in range(3):
        order = rng.permutation(len(scenarios))
        shuffled = ScenarioSet(case.name, [scenarios[int(i)] for i in order])
        sweep = run_scenario_sweep(case, shuffled, microbatch=2)
        assert sorted(o.scenario_id for o in sweep.outcomes) == sorted(reference)
        for outcome in sweep.outcomes:
            _assert_bitwise_equal_outcomes(reference[outcome.scenario_id], outcome)


def test_fleet_steal_wall_shares_bounded_by_sweep_wall(sweep_case9):
    """Additive solve_seconds shares stay bounded by the sweep wall (in-process)."""
    case, scenarios = sweep_case9
    sweep = run_scenario_sweep(case, scenarios, microbatch=2)
    assert all(o.solve_seconds >= 0.0 for o in sweep.outcomes)
    assert sweep.total_solver_seconds() <= sweep.wall_seconds + 1e-6


def test_fleet_solve_many_matches_separate_sweeps(sweep_case9):
    case, scenarios = sweep_case9
    other = generate_scenarios(case, 5, variation=0.06, contingency_fraction=0.4, seed=11)
    with SolverFleet(case, microbatch=2) as fleet:
        separate = [fleet.solve(scenarios), fleet.solve(other)]
        grouped = fleet.solve_many([scenarios, other])
    assert len(grouped) == 2
    for sep, grp in zip(separate, grouped):
        assert grp.n_scenarios == sep.n_scenarios
        for a, b in zip(sep.outcomes, grp.outcomes):
            _assert_bitwise_equal_outcomes(a, b)


def test_fleet_validates_schedule_and_microbatch(sweep_case9):
    case, _ = sweep_case9
    with pytest.raises(ValueError, match="schedule"):
        SolverFleet(case, schedule="static")
    with pytest.raises(ValueError, match="schedule"):
        SolverFleet(case, schedule="magic")
    with pytest.raises(ValueError, match="microbatch"):
        SolverFleet(case, schedule="steal", microbatch=0)
    from repro.data import generate_dataset

    with pytest.raises(ValueError, match="schedule"):
        generate_dataset(case, 2, schedule="magic")
