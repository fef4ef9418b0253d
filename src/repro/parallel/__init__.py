"""Parallel scenario sweeps, the solver fleet and the multi-worker scaling model."""

from repro.parallel.cluster import PAPER_WORKER_COUNTS, ClusterModel, calibrate_from_inference
from repro.parallel.pool import (
    ScenarioOutcome,
    ScenarioSolution,
    SolverFleet,
    SweepResult,
    run_scenario_sweep,
)
from repro.parallel.scenarios import (
    Scenario,
    ScenarioSet,
    generate_contingency_set,
    generate_scenarios,
    outage_keeps_connected,
    screened_outage_sets,
    validate_outage_branches,
)
from repro.parallel.scheduler import (
    MicroBatch,
    auto_microbatch_size,
    make_microbatches,
    topology_key,
)
from repro.parallel.supervision import PoolClosedError, SupervisedPool
from repro.parallel.trajectory import (
    MultiPeriodSweep,
    TrajectoryResult,
    chained_warm_start,
    trajectory_steps,
)

__all__ = [
    "Scenario",
    "ScenarioSet",
    "generate_scenarios",
    "generate_contingency_set",
    "outage_keeps_connected",
    "screened_outage_sets",
    "validate_outage_branches",
    "ScenarioOutcome",
    "ScenarioSolution",
    "SolverFleet",
    "SweepResult",
    "run_scenario_sweep",
    "MicroBatch",
    "auto_microbatch_size",
    "make_microbatches",
    "topology_key",
    "ClusterModel",
    "calibrate_from_inference",
    "PAPER_WORKER_COUNTS",
    "PoolClosedError",
    "SupervisedPool",
    "MultiPeriodSweep",
    "TrajectoryResult",
    "chained_warm_start",
    "trajectory_steps",
]
