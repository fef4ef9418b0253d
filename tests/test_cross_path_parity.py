"""One solve path: a scenario's outcome is bitwise independent of how it was dispatched.

Every OPF solve — fleet first attempts, fallback recoveries and ``solve_opf``
itself — is a lockstep ``solve_opf_batch`` group, and lockstep rows are
independent bit for bit.  This suite builds one case14 sweep that mixes intact
scenarios, N-1 singleton topologies and shared N-2 topologies, poisons one warm
start so its fallback runs, and checks that iterations, objective bytes,
fallback fields and solution bytes agree across worker counts, micro-batch
sizes, ``solve`` vs ``solve_many`` and a direct ``solve_opf`` of every row.
"""

from __future__ import annotations

import pytest

from repro.engine.fallback import get_fallback_policy
from repro.grid import case14
from repro.grid.perturb import sample_loads
from repro.opf import OPFModel, WarmStart, solve_opf
from repro.parallel import Scenario, ScenarioSet, SolverFleet, screened_outage_sets

#: Position (and scenario id) of the row whose warm start is poisoned.
POISONED = 5


@pytest.fixture(scope="module")
def mixed_sweep():
    """Intact rows, three N-1 singleton topologies and two shared N-2 sets."""
    case = case14()
    n1 = screened_outage_sets(case, 1, max_sets=3, seed=2)
    n2 = screened_outage_sets(case, 2, max_sets=2, seed=3)
    outages = [(), n1[0], (), n2[0], n2[1], n1[1], (), n2[0], n2[1], n1[2]]
    samples = sample_loads(case, len(outages), variation=0.08, seed=17)
    scenarios = ScenarioSet(
        case.name,
        [
            Scenario(i, sample.Pd, sample.Qd, outage_branches=outage)
            for i, (sample, outage) in enumerate(zip(samples, outages))
        ],
        n_bus=case.n_bus,
    )
    good = solve_opf(case).warm_start()
    poisoned = WarmStart(x=good.x * 200.0, lam=good.lam, mu=good.mu, z=good.z)
    warms = [poisoned if i == POISONED else good for i in range(len(outages))]
    return case, scenarios, warms


def _signature(outcome):
    """Every field of an outcome that a dispatch path could perturb."""
    return (
        outcome.scenario_id,
        outcome.success,
        outcome.iterations,
        outcome.objective.hex(),
        outcome.used_fallback,
        outcome.fallback_success,
        outcome.iterations_fallback,
        outcome.objective_fallback.hex(),
        outcome.solution.x.tobytes(),
    )


def _fleet(case, **kwargs):
    return SolverFleet(
        case,
        fallback=get_fallback_policy("cold_restart"),
        collect_solutions=True,
        execution="batch",
        schedule="steal",
        **kwargs,
    )


@pytest.fixture(scope="module")
def reference(mixed_sweep):
    case, scenarios, warms = mixed_sweep
    with _fleet(case) as fleet:
        sweep = fleet.solve(scenarios, warms)
    assert sweep.errors == 0 and sweep.quarantined == 0
    return sweep


def test_poisoned_row_takes_the_fallback(reference):
    outcomes = {o.scenario_id: o for o in reference.outcomes}
    assert not outcomes[POISONED].success
    assert outcomes[POISONED].used_fallback and outcomes[POISONED].fallback_success
    assert all(o.success for sid, o in outcomes.items() if sid != POISONED)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("microbatch", [1, None])
def test_fleet_paths_are_bitwise_identical(mixed_sweep, reference, n_workers, microbatch):
    case, scenarios, warms = mixed_sweep
    with _fleet(case, n_workers=n_workers, microbatch=microbatch) as fleet:
        sweep = fleet.solve(scenarios, warms)
    assert [_signature(o) for o in sweep.outcomes] == [
        _signature(o) for o in reference.outcomes
    ]


def test_solve_many_is_bitwise_identical(mixed_sweep, reference):
    case, scenarios, warms = mixed_sweep
    split = len(scenarios) // 2
    halves = [
        ScenarioSet(case.name, list(scenarios)[:split], n_bus=case.n_bus),
        ScenarioSet(case.name, list(scenarios)[split:], n_bus=case.n_bus),
    ]
    with _fleet(case, microbatch=2) as fleet:
        grouped = fleet.solve_many(halves, [warms[:split], warms[split:]])
    merged = sorted(
        (o for sweep in grouped for o in sweep.outcomes), key=lambda o: o.scenario_id
    )
    assert [_signature(o) for o in merged] == [_signature(o) for o in reference.outcomes]


def test_direct_solve_opf_of_each_row_is_bitwise_identical(mixed_sweep, reference):
    """``solve_opf`` of a row reproduces its fleet outcome; the poisoned row's
    ``cold_restart`` outcome equals a direct cold ``solve_opf``."""
    case, scenarios, warms = mixed_sweep
    base_ineq = OPFModel(case).n_ineq_nonlin
    for scenario, warm, outcome in zip(scenarios, warms, reference.outcomes):
        row_case = scenario.apply(case)
        model = OPFModel(row_case)
        if model.n_ineq_nonlin != base_ineq:
            # The fleet drops base-network µ/Z on topologies with other ratings.
            warm = warm.masked(use_mu=False, use_z=False)
        first = solve_opf(row_case, warm_start=warm, model=model)
        assert (first.success, first.iterations, first.objective.hex()) == (
            outcome.success, outcome.iterations, outcome.objective.hex()
        )
        final = first
        if outcome.used_fallback:
            final = solve_opf(row_case, model=model)
            assert (final.iterations, final.objective.hex()) == (
                outcome.iterations_fallback, outcome.objective_fallback.hex()
            )
        assert final.x.tobytes() == outcome.solution.x.tobytes()
