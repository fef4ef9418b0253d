"""Scenario-universe workloads: N-k screening, trajectory serving, stochastic streams.

Three workload families opened by the scenario-universe expansion, each with a
recorded perf summary:

* **N-2 contingency screening** — screened pairs solved as lockstep topology
  groups on the elastic fleet; records throughput and the per-scenario
  iteration profile of a grouped N-2 sweep.
* **24-step multi-period trajectory** — the headline measurement: a day-long
  warm-chained trajectory (step ``t``'s solution warm-starts step ``t+1``)
  against the same trajectory served per-step cold.  Warm chaining must cut
  total solver iterations sharply; the iteration ratio is deterministic, the
  wall ratio is recorded (and only gated under ``REPRO_BENCH_STRICT=1``).
* **correlated stochastic streams** — bounded-batch streamed ground-truth
  generation with the diffusion-kernel sampler; records the stream rate and
  pins bit-equality between chopped and unchopped streams.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.data.dataset import generate_dataset
from repro.grid import CorrelatedLoadSampler, get_case, sample_load_trajectory
from repro.parallel import (
    MultiPeriodSweep,
    SolverFleet,
    generate_contingency_set,
    topology_key,
    trajectory_steps,
)

STRICT = os.environ.get("REPRO_BENCH_STRICT", "") == "1"

#: Trajectory length: one day at hourly resolution (the acceptance workload).
TRAJECTORY_STEPS = 24


def test_bench_n2_contingency_screening(perf_recorder):
    """Grouped N-2 screening sweep: throughput and lockstep group profile."""
    case = get_case("case14")
    sweep_set = generate_contingency_set(case, 12, k=2, max_outage_sets=4, seed=31)
    n_topologies = len({topology_key(s) for s in sweep_set})

    with SolverFleet(
        case, collect_solutions=True
    ) as fleet:
        t0 = time.perf_counter()
        sweep = fleet.solve(sweep_set)
        wall = time.perf_counter() - t0

    assert sweep.success_rate == 1.0
    assert n_topologies == 4
    perf_recorder(
        "n2_contingency_screening",
        n_scenarios=len(sweep_set),
        n_topologies=n_topologies,
        wall_seconds=wall,
        scenarios_per_second=len(sweep_set) / wall,
        total_iterations=sum(o.iterations for o in sweep.outcomes),
    )


def test_bench_trajectory_warm_chaining_speedup(perf_recorder):
    """24-step warm-chained trajectory vs per-step cold serving (acceptance)."""
    case = get_case("case9")
    samples = sample_load_trajectory(case, n_steps=TRAJECTORY_STEPS, seed=17)
    steps = trajectory_steps(case, samples)

    with SolverFleet(case, collect_solutions=True) as fleet:
        driver_warm = MultiPeriodSweep(fleet, warm_chain=True)
        driver_cold = MultiPeriodSweep(fleet, warm_chain=False)
        # Warm-up solve so neither measured pass pays one-time model setup.
        driver_cold.run(steps[:1])

        t0 = time.perf_counter()
        chained = driver_warm.run(steps)
        chained_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        cold = driver_cold.run(steps)
        cold_wall = time.perf_counter() - t0

    assert chained.success_rate == 1.0 and cold.success_rate == 1.0
    chained_iters = chained.total_iterations
    cold_iters = cold.total_iterations
    iteration_speedup = cold_iters / chained_iters
    wall_speedup = cold_wall / chained_wall

    # Deterministic gate: chaining must cut the post-cold tail hard.  Step 0
    # is cold either way, so compare the tails too.
    tail_chained = sum(chained.iterations_by_step()[1:])
    tail_cold = sum(cold.iterations_by_step()[1:])
    assert tail_chained < 0.5 * tail_cold
    assert iteration_speedup > 1.5
    if STRICT:
        assert wall_speedup > 1.2

    perf_recorder(
        "trajectory_warm_chaining",
        n_steps=TRAJECTORY_STEPS,
        chained_iterations=chained_iters,
        cold_iterations=cold_iters,
        iteration_speedup=iteration_speedup,
        chained_wall_seconds=chained_wall,
        cold_wall_seconds=cold_wall,
        wall_speedup=wall_speedup,
        chained_iterations_by_step=chained.iterations_by_step(),
        cold_iterations_by_step=cold.iterations_by_step(),
    )


def test_bench_stochastic_stream_rate(perf_recorder):
    """Bounded-batch correlated-stream dataset generation: rate + bit parity."""
    case = get_case("case9")
    sampler = CorrelatedLoadSampler(case, variation=0.1, beta=1.0)
    n = 12

    t0 = time.perf_counter()
    streamed = generate_dataset(case, n, sampler=sampler, stream_batch=4, seed=23)
    stream_wall = time.perf_counter() - t0

    whole = generate_dataset(case, n, sampler=sampler, seed=23)
    assert np.array_equal(streamed.inputs, whole.inputs)
    assert np.array_equal(streamed.objectives, whole.objectives)

    assert streamed.n_samples == n
    perf_recorder(
        "stochastic_stream",
        n_samples=n,
        stream_batch=4,
        wall_seconds=stream_wall,
        samples_per_second=n / stream_wall,
    )
