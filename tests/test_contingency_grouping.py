"""Cross-sweep contingency batching parity: grouped == per-sweep, bit for bit.

Outage-heavy SC-ACOPF screening runs many N-1 sweeps whose scenarios repeat
the same outage branches.  :meth:`SolverFleet.solve_many` merges such sweeps
into one elastic dispatch so same-branch scenarios of different sweeps share
one lockstep group (served by the workers' memoized per-branch batched
models).  Grouping must be a pure scheduling decision: every scenario's
iterations, objective and multipliers must match the per-sweep path exactly —
including scenarios whose warm attempt fails and is recovered by the fallback
policy, whose accounting must survive the regrouping untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.fallback import get_fallback_policy
from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.opf import OPFModel, solve_opf
from repro.opf.warmstart import WarmStart
from repro.parallel import Scenario, ScenarioSet, SolverFleet


def _outage_candidates(case, count):
    """First ``count`` branches whose removal keeps every bus degree >= 1."""
    f, t = case.branch_bus_indices()
    live = case.branch.status > 0
    degree = np.bincount(f[live], minlength=case.n_bus) + np.bincount(
        t[live], minlength=case.n_bus
    )
    candidates = np.flatnonzero(live & (degree[f] > 1) & (degree[t] > 1))
    assert candidates.size >= count
    return [int(b) for b in candidates[:count]]


def _n1_sweeps(case, branches, per_sweep, n_sweeps, seed):
    """N-1 screening sweeps cycling over a shared outage-branch set."""
    samples = sample_loads(case, per_sweep * n_sweeps, variation=0.05, seed=seed)
    sweeps = []
    k = 0
    for _ in range(n_sweeps):
        scenarios = []
        for i in range(per_sweep):
            outage = branches[k % len(branches)] if i % 2 == 0 else None
            scenarios.append(
                Scenario(i, samples[k].Pd, samples[k].Qd, outage_branch=outage)
            )
            k += 1
        sweeps.append(ScenarioSet(case.name, scenarios))
    return sweeps


def _assert_sweeps_bitwise(per_sweep_results, grouped_results):
    for sep, grp in zip(per_sweep_results, grouped_results):
        assert grp.n_scenarios == sep.n_scenarios
        for a, b in zip(sep.outcomes, grp.outcomes):
            assert a.scenario_id == b.scenario_id
            assert a.success == b.success
            assert a.converged == b.converged
            assert a.iterations == b.iterations
            assert a.used_fallback == b.used_fallback
            assert a.fallback_success == b.fallback_success
            assert a.iterations_fallback == b.iterations_fallback
            if a.success:
                assert a.objective == b.objective
            if a.used_fallback and a.fallback_success:
                assert a.objective_fallback == b.objective_fallback
            if a.solution is not None:
                assert b.solution is not None
                assert np.array_equal(a.solution.x, b.solution.x)
                assert np.array_equal(a.solution.lam, b.solution.lam)
                assert np.array_equal(a.solution.mu, b.solution.mu)
                assert np.array_equal(a.solution.z, b.solution.z)


@pytest.mark.parametrize("case_name", ["case14", "case118s"])
def test_grouped_n1_screening_matches_per_sweep_bitwise(case_name):
    case = get_case(case_name)
    branches = _outage_candidates(case, 2)
    per_sweep = 4 if case_name == "case118s" else 6
    sweeps = _n1_sweeps(case, branches, per_sweep=per_sweep, n_sweeps=2, seed=3)
    # The sweeps genuinely share outage branches (the fragmentation scenario).
    shared = set.intersection(
        *({s.outage_branch for s in sweep if s.outage_branch is not None} for sweep in sweeps)
    )
    assert shared

    with SolverFleet(
        case,
        microbatch=3,
        collect_solutions=True,
    ) as fleet:
        separate = [fleet.solve(sweep) for sweep in sweeps]
        grouped = fleet.solve_many(sweeps)
    _assert_sweeps_bitwise(separate, grouped)


def test_grouped_parity_with_mixed_fallback_members():
    """A poisoned warm start fails identically under grouping and recovers."""
    case = get_case("case14")
    branches = _outage_candidates(case, 2)
    sweeps = _n1_sweeps(case, branches, per_sweep=4, n_sweeps=2, seed=7)

    model = OPFModel(case)
    good = solve_opf(case, model=model).warm_start()
    poisoned = WarmStart(x=good.x * 200.0, lam=good.lam, mu=good.mu, z=good.z)
    # One poisoned load-only member in the first sweep, the rest cold.
    warm_lists = [[None] * 4 for _ in sweeps]
    warm_lists[0][1] = poisoned

    with SolverFleet(
        case,
        microbatch=2,
        fallback=get_fallback_policy("cold_restart"),
        collect_solutions=True,
    ) as fleet:
        separate = [fleet.solve(sweep, warms) for sweep, warms in zip(sweeps, warm_lists)]
        grouped = fleet.solve_many(sweeps, warm_lists)

    poisoned_outcome = grouped[0].outcomes[1]
    assert not poisoned_outcome.success
    assert poisoned_outcome.used_fallback and poisoned_outcome.fallback_success
    assert poisoned_outcome.converged
    _assert_sweeps_bitwise(separate, grouped)


def test_solve_many_wall_and_share_semantics():
    """Each grouped sweep records the joint wall; shares stay additive."""
    case = get_case("case14")
    branches = _outage_candidates(case, 2)
    sweeps = _n1_sweeps(case, branches, per_sweep=4, n_sweeps=2, seed=9)
    with SolverFleet(case, microbatch=2) as fleet:
        grouped = fleet.solve_many(sweeps)
    assert grouped[0].wall_seconds == grouped[1].wall_seconds
    total_share = sum(sweep.total_solver_seconds() for sweep in grouped)
    assert 0.0 < total_share <= grouped[0].wall_seconds + 1e-6
