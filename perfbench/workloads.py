"""The three benchmark workloads and the checks run on their outputs.

* ``sweep-118`` — the paper's offline many-simulations use: back-to-back
  ``engine.serve`` calls of 32 case118s scenarios, one in-process worker.
* ``stream-14`` — the online use: open-loop Poisson arrivals of 1-3 scenario
  case14 requests through ``AsyncServer``, on a fixed rate ladder.
* ``screen-14-n2`` — SC-ACOPF screening: every connectivity-preserving case14
  N-2 outage set, 16 sets x 8 load draws per sweep, served closed-loop on a
  2-process spawn fleet.

Every engine uses ``execution="batch"``, ``schedule="steal"`` and the
library defaults for the KKT backend and the fallback (``cold_restart``).
The offline phase always trains with ``OFFLINE_SEED``, so the model is a fixed
artifact; ``--seed`` draws the traffic the program serves.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import SmartPGSim, SmartPGSimConfig
from repro.data.dataset import generate_dataset
from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.mips.options import MIPSOptions
from repro.mtl import fast_config
from repro.parallel import generate_scenarios
from repro.parallel.pool import SolverFleet
from repro.parallel.scenarios import Scenario, ScenarioSet, screened_outage_sets
from repro.parallel.scheduler import topology_key
from repro.serving import AsyncServer, OverloadedError

from tracing import Tracer

#: Seed of the offline phase (dataset draw, network init, split).  Fixed so a
#: run's model does not depend on ``--seed``: the spread between runs then
#: measures the program on different traffic, not the luck of one training.
OFFLINE_SEED = 0
PHASES = ("eval", "assembly", "factorization", "backsolve")

SWEEP_WIDTH = 32
#: Fresh 32-scenario draws prepared per run (cycled if a run outlasts them).
SWEEP_BATCHES = 48
#: Every COLD_STRIDE-th scenario of each closed-loop input is solved cold for
#: the objective check.  A cold case118s solve costs ~3.5 warm ones, so
#: checking every row would triple a run.
COLD_STRIDE = 4
#: A converged objective more than ``MIPSOptions.costtol`` (relative) from its
#: cold reference counts as a failed operation; only a gap above
#: ``WRONG_GAP_FACTOR * costtol`` marks the output incorrect.  ``costtol`` is
#: MIPS's stopping test on the cost change between two iterates, not a bound
#: on the distance to the optimum.  Over 3063 case118s warm/cold pairs (two
#: seeds, every scenario checked) the gap had median 5e-10, the warm objective
#: was above the cold one in 1501 pairs and below it in 1562, and the largest
#: gap was 1.04e-6 (seed 602293389, scenario 248; two cold solves of that
#: scenario from the case and the flat start differ by 3.2e-7 already).  A
#: wrong optimum or wrong loads move the objective by far more than 1e-5.
WRONG_GAP_FACTOR = 10.0

STREAM_LADDER = (25, 50, 100, 200, 400)
#: Latency is reported at the lowest rung.  At 50 req/s a 2-vCPU box runs the
#: one-request-per-flush server at ~70 % of capacity, where p99 swung from
#: 74 ms to over the 1 s deadline between runs of one seed.
STREAM_REF_RATE = 25
STREAM_LIMIT_S = 0.100
STREAM_DEADLINE_S = 1.0
#: The reference rung sends ``STREAM_REF_RATE * seconds`` requests, so it
#: measures for the run's ``--seconds`` (500 requests at 20 s: p99 then has
#: fewer than ten samples beyond it).  The tail percentiles are printed per
#: rung but not reported as gated metrics: across ten seeds on a shared 2-vCPU
#: VM their IQR over median reached 0.47 (p99) and 0.42 (p90) even with 1000
#: requests per run, against 0.06-0.19 for p50.
#: Untraced requests a traced run replays to measure the tracing overhead.
STREAM_OVERHEAD_REQUESTS = 200
#: Set-ups before and after the rungs.  One case14 set-up takes ~0.7 s, and
#: the same set-up ran anywhere from 0.56 to 0.93 s within one process on a
#: shared 2-vCPU VM, so the median needs many samples spread over the run.
STREAM_SETUPS = (6, 6)

SCREEN_OUTAGE_SETS = 16
SCREEN_DRAWS = 8


# --------------------------------------------------------------------- stats
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else float("nan")


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; an infinite sample (a missed request)
    makes every quantile it reaches infinite."""
    if not len(values):
        return float("nan")
    ordered = np.sort(np.asarray(values, dtype=float))
    pos = q * (len(ordered) - 1)
    lo, hi = int(np.floor(pos)), int(np.ceil(pos))
    if np.isinf(ordered[hi]):
        return float("inf")
    return float(ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]))


def tail_q(n: int) -> float:
    """Highest percentile (at most p99, at least p50) with ten samples beyond it."""
    return min(0.99, max(0.5, 1.0 - 10.0 / max(n, 1)))


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, q3 = np.quantile(np.asarray(values, dtype=float), [0.25, 0.75])
    mid = median(values)
    return float((q3 - q1) / mid) if mid else 0.0


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1
    spread: float = 0.0
    note: str = ""


@dataclass
class Result:
    """What one workload run measured, checked and counted."""

    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    check_failures: int = 0
    #: Unconverged scenarios that an independent cold solve cannot solve either.
    cold_unsolved: int = 0
    #: Largest relative warm/cold objective gap checked, and how many were
    #: over ``costtol``.
    max_gap: float = 0.0
    gaps_over_costtol: int = 0
    lines: List[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None


# --------------------------------------------------------------------- setup
@dataclass
class Setup:
    framework: SmartPGSim
    n_samples: int
    data_s: float
    train_s: float
    fleet_start_s: float
    first_serve_s: float

    @property
    def total_s(self) -> float:
        return self.data_s + self.train_s + self.fleet_start_s + self.first_serve_s

    @property
    def engine(self):
        return self.framework.engine


def set_up(case_name: str, n_samples: int, epochs: int, n_workers: int, first: ScenarioSet) -> Setup:
    """Offline phase (dataset + MTL training), fleet start and first serve."""
    case = get_case(case_name)
    config = SmartPGSimConfig(
        n_samples=n_samples,
        mtl=fast_config(epochs=epochs),
        seed=OFFLINE_SEED,
        execution="batch",
        schedule="steal",
    )
    framework = SmartPGSim(case, config)
    t0 = time.perf_counter()
    dataset = generate_dataset(
        case,
        n_samples,
        variation=config.load_variation,
        seed=OFFLINE_SEED,
        options=config.opf,
        model=framework.opf_model,
        execution="batch",
        schedule="steal",
    )
    t1 = time.perf_counter()
    framework.offline(dataset=dataset)
    t2 = time.perf_counter()
    framework.engine.fleet(n_workers)
    t3 = time.perf_counter()
    framework.engine.serve(first, n_workers=n_workers)
    t4 = time.perf_counter()
    return Setup(framework, dataset.n_samples, t1 - t0, t2 - t1, t3 - t2, t4 - t3)


def repeated_setup(repeats: int, *args) -> Tuple[Setup, List[Setup]]:
    """Set up ``repeats`` times; keep the last engine, close the others."""
    setups = []
    for _ in range(repeats):
        if setups:
            setups[-1].framework.close()
            gc.collect()  # so the parent's peak RSS does not depend on when the old engine is freed
        setups.append(set_up(*args))
    return setups[-1], setups


def closed_setups(repeats: int, *args) -> List[Setup]:
    """Set up ``repeats`` more times after the measured window, closing each.

    With samples from before and after the measurement, the set-up median
    follows the host's speed over the whole run, not over its first seconds.
    """
    setups = []
    for _ in range(repeats):
        setups.append(set_up(*args))
        setups[-1].framework.close()
    gc.collect()
    reap_children()
    return setups


def setup_metrics(result: Result, setups: List[Setup]) -> None:
    totals = [s.total_s for s in setups]
    result.end_to_end["setup_s"] = Metric(median(totals), "s", len(totals), spread(totals))
    n = setups[-1].n_samples
    layers = result.layers
    layers["mtl.train_s"] = Metric(median([s.train_s for s in setups]), "s", len(setups))
    layers["data.generate_s"] = Metric(median([s.data_s for s in setups]), "s", len(setups))
    layers["data.cold_ms_per_scen"] = Metric(
        1e3 * median([s.data_s for s in setups]) / n, "ms", len(setups) * n
    )
    layers["parallel.fleet_start_s"] = Metric(
        median([s.fleet_start_s for s in setups]), "s", len(setups)
    )


def peak_rss_mb() -> float:
    """Parent's peak RSS plus the largest reaped child's (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def reap_children() -> None:
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)


# ------------------------------------------------------------------- tracing
def solve_summary(args, sweep) -> Dict[str, object]:
    """Span attributes of one ``fleet.solve``: work per worker and per phase."""
    busy: Dict[str, float] = {}
    for o in sweep.outcomes:
        busy[str(o.worker)] = busy.get(str(o.worker), 0.0) + o.solve_seconds + o.fallback_seconds
    return {
        "n_scen": len(sweep.outcomes),
        "n_workers": sweep.n_workers,
        "groups": len({topology_key(s) for s in args[0]}),
        "worker_busy": busy,
        "phases": {p: sum(o.phase_seconds.get(p, 0.0) for o in sweep.outcomes) for p in PHASES},
        "retries": sweep.retries,
        "errors": sweep.errors,
        "quarantined": sweep.quarantined,
    }


def instrument(tracer: Tracer, engine, n_workers: int) -> None:
    """Trace ``engine.serve`` and the fleet's ``solve`` on these instances."""
    tracer.wrap(
        engine,
        "serve",
        "engine.serve",
        lambda args, sweep: {"n_scen": len(args[0]), "pd_ids": [id(s.Pd) for s in args[0]]},
    )
    tracer.wrap(engine.fleet(n_workers), "solve", "fleet.solve", solve_summary)


def inference_ms_per_row(engine, feature_sets: Sequence[np.ndarray], repeats: int = 5) -> float:
    """``predict_physical`` replayed on the workload's own request widths."""
    per_row = []
    for features in feature_sets:
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            engine.predict_physical(features)
            walls.append(time.perf_counter() - t0)
        per_row.append(1e3 * median(walls) / features.shape[0])
    return median(per_row)


def solver_layers(
    result: Result,
    tracer: Tracer,
    outcomes: List,
    cold_pairs: List[Tuple[int, int]],
    inference_ms_row: float,
) -> None:
    """Engine, parallel, opf and mips layer metrics from traced calls.

    ``cold_pairs`` holds (cold iterations, warm iterations) for scenarios that
    converged both ways.
    """
    serves = tracer.named("engine.serve")
    solves = {s["parent"]: s for s in tracer.named("fleet.solve")}
    layers = result.layers
    pre, dispatch, busy_share, imbalance, groups = [], [], [], [], []
    serve_closure_num = serve_closure_den = 0.0
    phase_total = {p: 0.0 for p in PHASES}
    fleet_capacity = 0.0
    retries = errors = quarantined = 0
    for serve in serves:
        solve = solves.get(serve["id"])
        if solve is None:
            continue
        serve_wall = serve["end"] - serve["start"]
        solve_wall = solve["end"] - solve["start"]
        pre.append(serve_wall - solve_wall)
        serve_closure_num += solve_wall + inference_ms_row * 1e-3 * serve["n_scen"]
        serve_closure_den += serve_wall
        busy = list(solve["worker_busy"].values()) or [0.0]
        dispatch.append(solve_wall - max(busy))
        n_workers = solve["n_workers"]
        busy_share.append(sum(busy) / (n_workers * solve_wall))
        mean_busy = sum(busy) / n_workers
        imbalance.append(max(busy) / mean_busy - 1.0 if mean_busy > 0 else 0.0)
        groups.append(solve["groups"])
        for p in PHASES:
            phase_total[p] += solve["phases"][p]
        fleet_capacity += n_workers * solve_wall
        retries += solve["retries"]
        errors += solve["errors"]
        quarantined += solve["quarantined"]
    n_calls = len(pre)
    n_scen = max(len(outcomes), 1)
    solve_s = sum(o.solve_seconds for o in outcomes)
    fallback_s = sum(o.fallback_seconds for o in outcomes)
    cold_iters = sum(cold for cold, _ in cold_pairs)
    warm_iters = sum(warm for _, warm in cold_pairs)
    layers["engine.pre_solve_ms_per_call"] = Metric(1e3 * median(pre), "ms", n_calls, spread(pre))
    layers["engine.warm_success_rate"] = Metric(
        sum(o.success for o in outcomes) / n_scen, "ratio", n_scen
    )
    layers["engine.fallback_rate"] = Metric(
        sum(o.used_fallback for o in outcomes) / n_scen, "ratio", n_scen
    )
    layers["engine.fallback_share"] = Metric(
        fallback_s / (solve_s + fallback_s) if solve_s + fallback_s > 0 else 0.0, "ratio", n_scen
    )
    layers["engine.iteration_reduction"] = Metric(
        cold_iters / warm_iters if warm_iters else 0.0, "ratio", len(cold_pairs)
    )
    layers["engine.unattributed_share"] = Metric(
        1.0 - serve_closure_num / serve_closure_den if serve_closure_den else 0.0, "ratio", n_calls
    )
    layers["mtl.inference_ms_per_row"] = Metric(inference_ms_row, "ms")
    layers["parallel.dispatch_ms_per_call"] = Metric(1e3 * median(dispatch), "ms", n_calls, spread(dispatch))
    layers["parallel.worker_busy_share"] = Metric(median(busy_share), "ratio", n_calls)
    layers["parallel.worker_imbalance"] = Metric(median(imbalance), "ratio", n_calls)
    layers["parallel.topology_groups_per_call"] = Metric(median(groups), "count", n_calls)
    layers["parallel.retries"] = Metric(retries, "count", n_calls)
    layers["parallel.errors"] = Metric(errors, "count", n_calls)
    layers["parallel.quarantined"] = Metric(quarantined, "count", n_calls)
    layers["mips.iters_per_scen"] = Metric(
        sum(o.final_iterations + (o.iterations if o.used_fallback else 0) for o in outcomes) / n_scen,
        "count",
        n_scen,
    )
    layers["mips.cold_iters_per_scen"] = Metric(
        cold_iters / len(cold_pairs) if cold_pairs else 0.0, "count", len(cold_pairs)
    )
    names = {
        "eval": "opf.eval_ms_per_scen",
        "assembly": "mips.assembly_ms_per_scen",
        "factorization": "mips.factorization_ms_per_scen",
        "backsolve": "mips.backsolve_ms_per_scen",
    }
    for phase, name in names.items():
        layers[name] = Metric(1e3 * phase_total[phase] / n_scen, "ms", n_scen)
    for counter in ("numeric_refactorizations", "symbolic_reuses"):
        layers[f"mips.{counter}_per_scen"] = Metric(
            sum(o.kkt_telemetry.get(counter, 0) for o in outcomes) / n_scen, "count", n_scen
        )
    layers["mips.unattributed_share"] = Metric(
        1.0 - sum(phase_total.values()) / fleet_capacity if fleet_capacity else 0.0, "ratio", n_calls
    )
    result.lines.append(
        "layer closure: serve wall vs inference + fleet.solve: "
        f"{100 * layers['engine.unattributed_share'].value:.1f} % unattributed; "
        "fleet.solve wall x workers vs solver phases: "
        f"{100 * layers['mips.unattributed_share'].value:.1f} % unattributed"
    )


SERVING_LAYERS = (
    ("serving.queue_wait_ms_p50", "ms"),
    ("serving.queue_wait_ms_p99", "ms"),
    ("serving.flush_ms_p50", "ms"),
    ("serving.requests_per_flush", "count"),
    ("serving.scen_per_flush", "count"),
    ("serving.rejected", "count"),
    ("serving.timed_out", "count"),
    ("serving.generator_lag_ms_p99", "ms"),
    ("serving.unattributed_share", "ratio"),
)


def zero_serving_layers(result: Result) -> None:
    for name, unit in SERVING_LAYERS:
        result.layers[name] = Metric(0.0, unit, 0, note="no serving tier on this workload")


# ------------------------------------------------------------------- checks
def signature(outcome) -> tuple:
    """Everything an outcome reports about the solve, floats compared bitwise."""
    return (
        outcome.scenario_id,
        outcome.success,
        outcome.iterations,
        np.float64(outcome.objective).tobytes(),
        outcome.used_fallback,
        outcome.fallback_success,
        outcome.iterations_fallback,
        np.float64(outcome.objective_fallback).tobytes(),
        outcome.timed_out,
        outcome.quarantined,
    )


def objective_gap(outcome, cold) -> Optional[float]:
    """Relative gap between two converged objectives, else ``None``."""
    if cold is None or not (outcome.converged and cold.converged):
        return None
    return abs(outcome.final_objective - cold.final_objective) / max(1.0, abs(cold.final_objective))


def classify(outcome, cold, costtol: Optional[float]) -> str:
    """``ok``, ``failed``, ``wrong`` or ``cold_unsolved`` for one served scenario.

    A scenario that the program leaves unconverged fails unless an independent
    cold solve of it does not converge either.  With ``costtol`` a converged
    objective further than that from the cold one fails, and one further than
    ``WRONG_GAP_FACTOR * costtol`` is ``wrong``.
    """
    if outcome.timed_out or outcome.quarantined:
        return "failed"
    if not outcome.converged:
        return "failed" if cold is None or cold.converged else "cold_unsolved"
    gap = objective_gap(outcome, cold)
    if costtol is not None and gap is not None:
        if gap > WRONG_GAP_FACTOR * costtol:
            return "wrong"
        if gap > costtol:
            return "failed"
    return "ok"


# -------------------------------------------------------------- closed loop
@dataclass
class Call:
    batch: int
    wall: float
    sweep: object
    traced: bool


def closed_loop(
    engine,
    n_workers: int,
    batches: List[ScenarioSet],
    seconds: float,
    tracer: Optional[Tracer],
    min_calls: int,
    check: Callable[[Call], None],
) -> List[Call]:
    """Serve the batches in order for ``seconds`` of call wall and at least
    ``min_calls`` calls, running the untimed ``check`` after each call.

    The host's speed drifts by tens of percent over ~15 s phases; with the
    checks between the calls, the timed calls spread over twice the span
    and sample more of those phases.  With a tracer, even calls are traced
    and odd ones are not, so one run also gives the tracing overhead.
    """
    calls: List[Call] = []
    measured = 0.0
    while measured < seconds or len(calls) < min_calls:
        index = len(calls)
        b = index % len(batches)
        traced = tracer is not None and index % 2 == 0
        if tracer is not None:
            tracer.enabled = traced
        t0 = time.perf_counter()
        if traced:
            with tracer.span("client.call", request_id=index):
                sweep = engine.serve(batches[b], n_workers=n_workers)
        else:
            sweep = engine.serve(batches[b], n_workers=n_workers)
        wall = time.perf_counter() - t0
        measured += wall
        calls.append(Call(b, wall, sweep, traced))
        if tracer is not None:
            tracer.enabled = False
        check(calls[-1])
    return calls


def cold_references(engine, batch: ScenarioSet, sweep) -> Dict[int, object]:
    """Cold solves (no warm start, no fallback) of every ``COLD_STRIDE``-th
    scenario and of every scenario the program left unconverged."""
    unconverged = {o.scenario_id for o in sweep.outcomes if not o.converged}
    rows = [
        s for i, s in enumerate(batch)
        if i % COLD_STRIDE == 0 or s.scenario_id in unconverged
    ]
    with SolverFleet(
        engine.case,
        options=engine.opf_options,
        model=engine.opf_model,
        execution="batch",
        schedule="steal",
    ) as fleet:
        cold = fleet.solve(ScenarioSet(batch.case_name, rows, n_bus=batch.n_bus))
    return {o.scenario_id: o for o in cold.outcomes}


def score_calls(result: Result, calls: List[Call], colds, references) -> None:
    """Count operations (scenarios) and failures, and run the output checks.

    Every call of a batch must repeat the first call's outcomes bit for bit
    and, when given, the reference outcomes; sampled scenarios must match
    their cold objective to ``costtol`` (see ``WRONG_GAP_FACTOR``).
    """
    costtol = MIPSOptions().costtol
    first: Dict[int, List[tuple]] = {}
    for call in calls:
        expected = references.get(call.batch) or first.setdefault(
            call.batch, [signature(o) for o in call.sweep.outcomes]
        )
        got = [signature(o) for o in call.sweep.outcomes]
        result.attempted += len(got)
        if got != expected:
            mismatched = sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
            result.check_failures += mismatched
            result.failed += mismatched
            continue
        cold = colds[call.batch]
        for outcome in call.sweep.outcomes:
            reference = cold.get(outcome.scenario_id)
            verdict = classify(outcome, reference, costtol)
            gap = objective_gap(outcome, reference)
            if gap is not None:
                result.max_gap = max(result.max_gap, gap)
                result.gaps_over_costtol += gap > costtol
            if verdict in ("failed", "wrong"):
                result.failed += 1
                result.check_failures += verdict == "wrong"
            elif verdict == "cold_unsolved":
                result.cold_unsolved += 1


def closed_loop_overhead(calls: List[Call]) -> float:
    """Traced over untraced median call wall, minus one; paired per batch
    where a batch was served both ways."""
    pairs = []
    for b in {c.batch for c in calls}:
        on = [c.wall for c in calls if c.batch == b and c.traced]
        off = [c.wall for c in calls if c.batch == b and not c.traced]
        if on and off:
            pairs.append((median(on), median(off)))
    if pairs:
        return sum(on for on, _ in pairs) / sum(off for _, off in pairs) - 1.0
    on = median([c.wall for c in calls if c.traced])
    return on / median([c.wall for c in calls if not c.traced]) - 1.0


def run_closed_loop(
    case_name: str,
    first: ScenarioSet,
    batches: List[ScenarioSet],
    n_samples: int,
    epochs: int,
    n_workers: int,
    setup_repeats: Tuple[int, int],
    seconds: float,
    traced: bool,
    min_calls: int,
) -> Result:
    t0 = time.perf_counter()
    setup_args = (case_name, n_samples, epochs, n_workers, first)
    setup, setups = repeated_setup(setup_repeats[0], *setup_args)
    engine = setup.engine
    tracer = Tracer() if traced else None
    if tracer is not None:
        instrument(tracer, engine, n_workers)
        tracer.enabled = False
    colds: Dict[int, Dict[int, object]] = {}
    references: Dict[int, List[tuple]] = {}

    def check(call: Call) -> None:
        """Cold MIPS references of each input's first call; a multi-worker
        fleet must also reproduce the 1-worker elastic serve bit for bit."""
        if call.batch in colds:
            return
        colds[call.batch] = cold_references(engine, batches[call.batch], call.sweep)
        if n_workers > 1:
            references[call.batch] = [
                signature(o) for o in engine.serve(batches[call.batch], n_workers=1).outcomes
            ]

    t1 = time.perf_counter()
    try:
        calls = closed_loop(engine, n_workers, batches, seconds, tracer, min_calls, check)
        engine.close()  # reap fleet workers so their peak RSS is readable
        reap_children()
        rss = peak_rss_mb()
        t2 = time.perf_counter()
    finally:
        setup.framework.close()
        reap_children()
    setups += closed_setups(setup_repeats[1], *setup_args)

    result = Result(tracer=tracer)
    score_calls(result, calls, colds, references)
    setup_metrics(result, setups)
    untraced = [c for c in calls if not c.traced] or calls
    e2e = result.end_to_end
    # Each distinct input counts once, at the median of its calls: the
    # screening sweeps differ in cost, and where the time window cuts a pass
    # would otherwise change the mix the median is taken over.
    per_input: Dict[int, List[Call]] = {}
    for call in untraced:
        per_input.setdefault(call.batch, []).append(call)
    walls = [median([c.wall for c in group]) for group in per_input.values()]
    rates = [
        sum(o.converged for o in group[0].sweep.outcomes) / wall
        for group, wall in zip(per_input.values(), walls)
    ]
    note = f"median over {len(walls)} inputs"
    e2e["scen_per_s"] = Metric(median(rates), "1/s", len(untraced), spread(rates), note)
    walls_ms = [1e3 * wall for wall in walls]
    e2e["latency_p50_ms"] = Metric(
        median(walls_ms), "ms", len(untraced), spread(walls_ms), f"call latency, {note}"
    )
    e2e["peak_rss_mb"] = Metric(rss, "MB")
    if tracer is not None:
        traced_calls = [c for c in calls if c.traced]
        outcomes = [o for c in traced_calls for o in c.sweep.outcomes]
        cold_pairs = [
            (colds[c.batch][o.scenario_id].iterations, o.iterations)
            for c in traced_calls
            for o in c.sweep.outcomes
            if o.success and o.scenario_id in colds[c.batch] and colds[c.batch][o.scenario_id].converged
        ]
        features = [batches[b].feature_matrix(engine.case.base_mva) for b in sorted(colds)[:8]]
        solver_layers(result, tracer, outcomes, cold_pairs, inference_ms_per_row(engine, features))
        zero_serving_layers(result)
        result.layers["trace.overhead_share"] = Metric(
            closed_loop_overhead(calls), "ratio", len(calls), note="traced vs untraced call wall"
        )
    slow = sorted(walls_ms)[-3:]
    result.lines.append(
        f"{len(calls)} calls over {len(colds)} distinct inputs; "
        f"slowest calls {', '.join(f'{w:.0f}' for w in slow)} ms; "
        f"{sum(o.used_fallback for c in calls for o in c.sweep.outcomes)} fallbacks"
    )
    result.lines.append(
        f"wall: set-up {t1 - t0:.1f} s, calls {sum(c.wall for c in calls):.1f} s of {t2 - t1:.1f} s "
        f"with the checks between them, late set-up {time.perf_counter() - t2:.1f} s"
    )
    return result


# --------------------------------------------------------------- workloads
def sweep_118(seed: int, seconds: float, traced: bool) -> Result:
    """case118s, ±10 % load draws, intact topology, 32-scenario calls, 1 worker.

    Every call serves a fresh draw: fallbacks are rare random events here,
    and the median over many independent calls keeps one from deciding a run.
    """
    case = get_case("case118s")
    rows = list(generate_scenarios(case, SWEEP_WIDTH * (SWEEP_BATCHES + 1), variation=0.1, seed=seed))
    first, *batches = [
        ScenarioSet(case.name, rows[i : i + SWEEP_WIDTH], n_bus=case.n_bus)
        for i in range(0, len(rows), SWEEP_WIDTH)
    ]
    return run_closed_loop(
        "case118s", first, batches, n_samples=24, epochs=15, n_workers=1, setup_repeats=(2, 1),
        seconds=seconds, traced=traced, min_calls=4,
    )


def n2_universe_sweeps(case, rng: np.random.Generator) -> List[ScenarioSet]:
    """Every connectivity-preserving N-2 outage set, 16 per sweep in
    lexicographic order (the last sweep wraps), each with 8 load draws
    assigned round-robin as ``generate_contingency_set`` does."""
    universe = screened_outage_sets(case, k=2)
    sweeps = []
    for j in range(-(-len(universe) // SCREEN_OUTAGE_SETS)):
        sets = [universe[(SCREEN_OUTAGE_SETS * j + i) % len(universe)] for i in range(SCREEN_OUTAGE_SETS)]
        loads = sample_loads(case, SCREEN_OUTAGE_SETS * SCREEN_DRAWS, variation=0.1, seed=rng)
        rows = [
            Scenario(i, sample.Pd, sample.Qd, outage_branches=sets[i % len(sets)])
            for i, sample in enumerate(loads)
        ]
        sweeps.append(ScenarioSet(case.name, rows, n_bus=case.n_bus))
    return sweeps


def screen_14_n2(seed: int, seconds: float, traced: bool) -> Result:
    """case14 N-2 screening of the whole outage universe on a 2-process fleet.

    The outage sets are fixed (all of them) and ``--seed`` draws the loads:
    a few N-2 sets are infeasible at any load and cost cold-restart
    fallbacks, so a random subset would make throughput depend on how many
    of them a seed happened to pick.  A run serves at least one whole pass.
    Throughput is the median over the sweeps, so the two holding those sets
    do not decide it; their cold-restart cost shows per layer
    (``engine.fallback_share``) and in the slowest calls printed.
    """
    case = get_case("case14")
    batches = n2_universe_sweeps(case, np.random.default_rng(seed))
    return run_closed_loop(
        "case14", batches[0], batches, n_samples=48, epochs=20, n_workers=2, setup_repeats=(2, 1),
        seconds=seconds, traced=traced, min_calls=len(batches),
    )


# ------------------------------------------------------------------ stream
@dataclass
class Request:
    offset: float
    scenarios: ScenarioSet


@dataclass
class Served:
    due: float
    sent: float = 0.0
    done: float = 0.0
    inflight: int = 0
    rejected: bool = False
    sweep: object = None

    @property
    def timed_out(self) -> bool:
        return self.sweep is not None and any(o.timed_out for o in self.sweep.outcomes)

    @property
    def missed(self) -> bool:
        return self.rejected or self.timed_out

    @property
    def latency(self) -> float:
        return float("inf") if self.missed else self.done - self.due


def poisson_requests(case, rate: float, count: int, rng: np.random.Generator) -> List[Request]:
    """``count`` open-loop Poisson arrivals at ``rate`` req/s, 1-3 scenarios each.

    Arrival times are a Poisson process conditioned on ``count`` arrivals in
    ``count / rate`` seconds (sorted uniform draws), and widths 1, 2 and 3
    come in equal shares, so the offered load is the same for every seed and
    only its timing and content vary.
    """
    offsets = np.sort(rng.uniform(0.0, count / rate, size=count))
    widths = rng.permutation(np.resize([1, 2, 3], count))
    rows = list(generate_scenarios(case, int(widths.sum()), variation=0.1, seed=rng))
    requests, start = [], 0
    for offset, width in zip(offsets, widths):
        chunk = [replace(s, scenario_id=j) for j, s in enumerate(rows[start : start + width])]
        requests.append(Request(offset, ScenarioSet(case.name, chunk, n_bus=case.n_bus)))
        start += width
    return requests


async def _drive(engine, requests: List[Request], tracer: Optional[Tracer]) -> List[Served]:
    """Send each request at its due time, whatever the server is doing."""
    served = [Served(due=0.0) for _ in requests]
    inflight = 0

    async def one(index: int, request: Request, record: Served) -> None:
        nonlocal inflight
        record.sent = time.perf_counter()
        record.inflight = inflight
        inflight += 1
        try:
            record.sweep = await server.submit(request.scenarios, deadline_seconds=STREAM_DEADLINE_S)
        except OverloadedError:
            record.rejected = True
        record.done = time.perf_counter()
        inflight -= 1
        if tracer is not None:
            tracer.record(
                "serving.submit", record.sent, record.done, request_id=index,
                pd_ids=[id(s.Pd) for s in request.scenarios],
            )

    async with AsyncServer(engine, n_workers=1) as server:
        tasks = []
        start = time.perf_counter()
        for index, request in enumerate(requests):
            served[index].due = start + request.offset
            delay = served[index].due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(index, request, served[index])))
        await asyncio.gather(*tasks)
    return served


def backlog_grew(served: List[Served], rate: float) -> bool:
    """In-flight requests at send time rose by more than a limit's worth of
    arrivals between the second and the last quarter of the send window."""
    quarter = max(len(served) // 4, 1)
    early = [s.inflight for s in served[quarter : 2 * quarter]] or [0]
    late = [s.inflight for s in served[-quarter:]]
    return float(np.mean(late)) - float(np.mean(early)) > rate * STREAM_LIMIT_S


@dataclass
class Rung:
    rate: int
    requests: List[Request]
    served: List[Served]

    @property
    def p99(self) -> float:
        return quantile([s.latency for s in self.served], 0.99)

    @property
    def passed(self) -> bool:
        return (
            self.p99 <= STREAM_LIMIT_S
            and not any(s.missed for s in self.served)
            and not backlog_grew(self.served, self.rate)
        )


def run_rung(engine, case, rate: int, count: int, seed: int, tracer: Optional[Tracer] = None) -> Rung:
    rng = np.random.default_rng([seed, rate])
    requests = poisson_requests(case, rate, count, rng)
    served = asyncio.run(_drive(engine, requests, tracer))
    return Rung(rate, requests, served)


def stream_14(seed: int, seconds: float, traced: bool) -> Result:
    """case14 open-loop requests through AsyncServer on the fixed rate ladder."""
    case = get_case("case14")
    first = poisson_requests(case, STREAM_REF_RATE, 1, np.random.default_rng([seed, 0]))[0]
    setup_args = ("case14", 48, 20, 1, first.scenarios)
    setup, setups = repeated_setup(STREAM_SETUPS[0], *setup_args)
    engine = setup.engine
    tracer = Tracer() if traced else None
    ref_requests = int(STREAM_REF_RATE * seconds)
    try:
        rungs: List[Rung] = []
        traced_rung = None
        if tracer is None:
            # Climb the ladder; the reference rung always runs for the latency
            # metrics, rungs above it only while every rung so far passed.
            max_rate, climbing = 0, True
            for rate in STREAM_LADDER:
                if not climbing and rate > STREAM_REF_RATE:
                    break
                count = ref_requests if rate == STREAM_REF_RATE else int(rate * seconds / 4)
                rung = run_rung(engine, case, rate, count, seed)
                rungs.append(rung)
                climbing = climbing and rung.passed
                if climbing:
                    max_rate = rate
        else:
            # The untraced twin replays the first arrivals of the traced rung
            # (same rng), so the two latency medians compare like for like.
            twin = min(STREAM_OVERHEAD_REQUESTS, ref_requests)
            rungs.append(run_rung(engine, case, STREAM_REF_RATE, twin, seed))
            instrument(tracer, engine, 1)
            traced_rung = run_rung(engine, case, STREAM_REF_RATE, ref_requests, seed, tracer)
            tracer.enabled = False
            rungs.append(traced_rung)
        rss = peak_rss_mb()
        result = Result(tracer=tracer)
        for rung in rungs:
            # Misses on rungs above the reference rate are the capacity
            # probe's signal (they decide max_rate_rps), not failed operations
            # of the workload; their served requests are still checked.
            probe = rung.rate > STREAM_REF_RATE
            for request, record in zip(rung.requests, rung.served):
                if record.missed:
                    if not probe:
                        result.attempted += 1
                        result.failed += 1
                    continue
                result.attempted += 1
                direct = engine.serve(request.scenarios, n_workers=1)
                if [signature(o) for o in record.sweep.outcomes] != [signature(o) for o in direct.outcomes]:
                    result.check_failures += 1
                    result.failed += 1
                    continue
                unconverged = [o for o in record.sweep.outcomes if not o.converged]
                if unconverged:
                    cold = cold_references(engine, request.scenarios, record.sweep)
                    verdicts = [classify(o, cold[o.scenario_id], None) for o in unconverged]
                    if "failed" in verdicts:
                        result.failed += 1
                    else:
                        result.cold_unsolved += len(verdicts)
        ref = next(r for r in rungs if r.rate == STREAM_REF_RATE)
        latencies_ms = [1e3 * s.latency for s in ref.served]
        ok = [s for s in ref.served if not s.missed]
        converged = sum(o.converged for s in ok for o in s.sweep.outcomes)
        window = max(s.done for s in ref.served) - min(s.due for s in ref.served)
        e2e = result.end_to_end
        e2e["scen_per_s"] = Metric(
            converged / window, "1/s", len(ref.served), note=f"goodput at {STREAM_REF_RATE} req/s"
        )
        finite_ms = [x for x in latencies_ms if np.isfinite(x)]
        e2e["latency_p50_ms"] = Metric(
            median(latencies_ms), "ms", len(latencies_ms), spread(finite_ms),
            note=f"from due time at {STREAM_REF_RATE} req/s",
        )
        e2e["peak_rss_mb"] = Metric(rss, "MB")
        lags = [1e3 * (s.sent - s.due) for r in rungs for s in r.served]
        result.lines.append(
            f"generator lag p99 {quantile(lags, 0.99):.2f} ms over {len(lags)} sends "
            f"(single process, event loop plus one flush thread)"
        )
        for rung in rungs:
            latencies = [s.latency for s in rung.served]
            tail = tail_q(len(latencies))
            result.lines.append(
                f"rung {rung.rate:>3} req/s: {len(rung.served)} requests, "
                f"p50 {1e3 * quantile(latencies, 0.5):.1f} ms, "
                f"p{100 * tail:g} {1e3 * quantile(latencies, tail):.1f} ms (ten beyond), "
                f"p99 {1e3 * rung.p99:.1f} ms, missed {sum(s.missed for s in rung.served)}, "
                f"backlog grew {backlog_grew(rung.served, rung.rate)} -> {'pass' if rung.passed else 'fail'}"
                + (" (traced)" if rung is traced_rung else "")
            )
        if tracer is None:
            beyond = int(len(latencies_ms) * 0.01)
            e2e["latency_p99_ms"] = Metric(
                1e3 * ref.p99, "ms", len(latencies_ms),
                note=f"at {STREAM_REF_RATE} req/s, {beyond} samples beyond it",
            )
            e2e["max_rate_rps"] = Metric(
                max_rate, "req/s", len(rungs),
                note="highest rung with p99 <= 100 ms, nothing missed, no backlog growth",
            )
        else:
            stream_layers(result, tracer, engine, rungs[0], traced_rung)
    finally:
        setup.framework.close()
        reap_children()
    setup_metrics(result, setups + closed_setups(STREAM_SETUPS[1], *setup_args))
    return result


def stream_layers(result: Result, tracer: Tracer, engine, untraced: Rung, traced: Rung) -> None:
    """Serving-layer metrics from the traced reference rung."""
    owner: Dict[int, int] = {}
    for index, request in enumerate(traced.requests):
        for s in request.scenarios:
            owner[id(s.Pd)] = index
    serves = tracer.named("engine.serve")
    flush_of: Dict[int, dict] = {}
    per_flush = []
    for serve in serves:
        riders = {owner[p] for p in serve["pd_ids"] if p in owner}
        per_flush.append(len(riders))
        for index in riders:
            flush_of[index] = serve
    waits, closure_num, closure_den = [], 0.0, 0.0
    for index, record in enumerate(traced.served):
        serve = flush_of.get(index)
        if serve is None or record.missed:
            continue
        wait = serve["start"] - record.sent
        waits.append(1e3 * wait)
        closure_num += wait + (serve["end"] - serve["start"])
        closure_den += record.done - record.sent
    flush_ms = [1e3 * (s["end"] - s["start"]) for s in serves]
    layers = result.layers
    layers["serving.queue_wait_ms_p50"] = Metric(median(waits), "ms", len(waits))
    layers["serving.queue_wait_ms_p99"] = Metric(quantile(waits, tail_q(len(waits))), "ms", len(waits))
    layers["serving.flush_ms_p50"] = Metric(median(flush_ms), "ms", len(flush_ms))
    layers["serving.requests_per_flush"] = Metric(float(np.mean(per_flush)), "count", len(per_flush))
    layers["serving.scen_per_flush"] = Metric(
        float(np.mean([s["n_scen"] for s in serves])), "count", len(serves)
    )
    layers["serving.rejected"] = Metric(sum(s.rejected for s in traced.served), "count", len(traced.served))
    layers["serving.timed_out"] = Metric(sum(s.timed_out for s in traced.served), "count", len(traced.served))
    lags = [1e3 * (s.sent - s.due) for s in traced.served]
    layers["serving.generator_lag_ms_p99"] = Metric(
        quantile(lags, 0.99), "ms", len(lags), note="load generator validity, not a program metric"
    )
    layers["serving.unattributed_share"] = Metric(
        1.0 - closure_num / closure_den if closure_den else 0.0, "ratio", len(waits)
    )
    outcomes = [o for s in traced.served if not s.missed for o in s.sweep.outcomes]
    cold_pairs = []
    for request, record in list(zip(traced.requests, traced.served))[:64]:
        if not record.missed:
            cold = cold_references(engine, request.scenarios, record.sweep)
            cold_pairs += [
                (cold[o.scenario_id].iterations, o.iterations)
                for o in record.sweep.outcomes
                if o.success and o.scenario_id in cold and cold[o.scenario_id].converged
            ]
    widths = [r.scenarios.feature_matrix(engine.case.base_mva) for r in traced.requests[:64]]
    solver_layers(result, tracer, outcomes, cold_pairs, inference_ms_per_row(engine, widths))
    off = median([s.latency for s in untraced.served])
    on = median([s.latency for s in traced.served[: len(untraced.served)]])
    layers["trace.overhead_share"] = Metric(
        on / off - 1.0, "ratio", len(untraced.served), note="traced vs untraced p50 latency, same arrivals"
    )
    result.lines.append(
        "layer closure: request latency (from submit) vs queue wait + flush: "
        f"{100 * layers['serving.unattributed_share'].value:.1f} % unattributed"
    )


WORKLOADS: Dict[str, Callable[[int, float, bool], Result]] = {
    "sweep-118": sweep_118,
    "stream-14": stream_14,
    "screen-14-n2": screen_14_n2,
}
