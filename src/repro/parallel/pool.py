"""Process-pool scenario runner and the persistent solver fleet.

The SC-ACOPF scenario sweep is embarrassingly parallel: each worker receives a
batch of scenarios, pairs them with warm starts produced by batched MTL
inference in the parent and solves them independently.  This module
distributes that sweep over CPU processes — the same scatter → compute →
gather structure as the paper's multi-GPU data parallelism, with processes
standing in for GPUs.

Workers are *persistent* at two levels.  Within one sweep the case and solver
options are shipped once via the pool initializer, each worker builds its
:class:`~repro.opf.model.OPFModel` (admittances, sparsity-structure caches)
once and per-batch messages carry only scenarios and warm starts.  Across
sweeps a :class:`SolverFleet` keeps the worker processes alive, which is what
the serving engine uses to amortise process start-up over many requests.

Every solve — first attempts and fallback recoveries alike — runs through one
path: a topology-keyed group solved in lockstep by
:func:`repro.opf.batch.solve_opf_batch`, which vectorises the
evaluation/assembly phases across the group and loops only for the
per-scenario factorise/backsolve.  A recovery is a one-row group.  Lockstep
rows are independent bit for bit, so a scenario's result is the same whatever
group, worker or micro-batch carried it.

Failed solves can be recovered in-worker through a pluggable fallback policy
(see :mod:`repro.engine.fallback`); the policy object is shipped with the
initializer, so recovery costs no extra scatter/gather round trip.  The
(rare) recoveries run per scenario after the lockstep solve.

Work reaches the workers through a shared queue of topology-keyed
micro-batches (:mod:`repro.parallel.scheduler`) that idle workers pull
dynamically — a straggling scenario keeps only its own micro-batch busy while
the rest of the sweep is stolen by the other workers — and the in-process
fleet streams each topology group through a lockstep window whose retired
slots are refilled from the queue between iterations.
:meth:`SolverFleet.solve_many` extends the same machinery across *several*
sweeps at once: scenarios of different sweeps that share a topology key (the
sorted outage-branch *set* — N-1 singles and N-k tuples alike) merge into one
lockstep group (cross-sweep contingency batching).  Scheduling
only decides where and with whom a scenario is solved; lockstep solves are
row-independent bit for bit, so per-scenario results are invariant under
chunking, steal order, worker count and micro-batch size.

Dispatch is *supervised* (:mod:`repro.parallel.supervision`): tasks flow
through a crash-aware worker pool, and a task whose worker dies (or whose
solve raises) is retried with a bounded budget, then **bisected** — split
along topology-group lines first, then halved — until the culprit scenario is
isolated and quarantined as a structured failed outcome.  Bisection fragments
re-enter the normal solve paths, and lockstep row independence guarantees the
surviving scenarios' results stay bit-identical to a fault-free sweep.
Wall deadlines ride along with each task **per scenario** — a request-wide
scalar and a per-scenario vector (the async batcher's coalesced-flush shape)
normalise to the same per-row form — and reach the solver's cooperative
between-iteration checks; an expired scenario retires as a ``timed_out``
outcome without perturbing its lockstep neighbours, and a dispatched task
whose deadlines have partially passed retires only the expired rows while
solving the rest.
Deterministic chaos for all of this comes from an optional
:class:`~repro.testing.faults.FaultPlan` shipped to the workers with the
initializer.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.components import Case
from repro.opf.batch import solve_opf_batch
from repro.opf.model import OPFModel
from repro.opf.options import OPFOptions
from repro.opf.result import OPFResult
from repro.opf.warmstart import WarmStart
from repro.parallel.scenarios import Scenario, ScenarioSet, validate_outage_branches
from repro.parallel.scheduler import make_microbatches, topology_key
from repro.parallel.supervision import SupervisedPool
from repro.testing.faults import FaultInjectionError, FaultPlan, execute_kill

if TYPE_CHECKING:  # pragma: no cover - import-time cycle guard (engine imports pool)
    from repro.engine.fallback import FallbackPolicy


def validate_solve_path(execution: str, schedule: str) -> None:
    """Reject any solve path but the lockstep one.

    ``execution`` and ``schedule`` survive as keywords of
    :class:`SolverFleet`, :func:`~repro.data.dataset.generate_dataset` and
    :class:`~repro.core.framework.SmartPGSimConfig` so existing callers keep
    working; each accepts only the one path there is.
    """
    if execution != "batch":
        raise ValueError(f"execution must be 'batch' (the lockstep solver), got {execution!r}")
    if schedule != "steal":
        raise ValueError(f"schedule must be 'steal' (the micro-batch queue), got {schedule!r}")


@dataclass(frozen=True)
class ScenarioSolution:
    """Converged primal/dual variables of one scenario solve.

    Collected (on request) so ground-truth generation can run through the same
    pooled batch-solve path as online serving.
    """

    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of one scenario solve.

    ``success`` / ``iterations`` / ``objective`` / ``solve_seconds`` always
    describe the first (warm) attempt; when a fallback policy recovered a
    failure, the ``fallback_*`` fields describe the recovery and the
    ``final_*`` properties select the solve that produced the final answer.
    ``solve_seconds`` is the scenario's *additive* solve cost: its share of
    the lockstep wall, where every iteration's wall time is split evenly over
    the scenarios active in it (see :class:`SweepResult`).
    """

    scenario_id: int
    success: bool
    iterations: int
    objective: float
    solve_seconds: float
    worker: int = 0
    used_fallback: bool = False
    fallback_success: bool = False
    #: Summed over *every* recovery solve (a relaxed retry that degrades to a
    #: cold restart counts both), matching ``fallback_seconds``' coverage.
    iterations_fallback: int = 0
    objective_fallback: float = float("nan")
    fallback_seconds: float = 0.0
    #: Per-phase solver times of the solve that produced the final answer.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: KKT backend factorisation counters of the final solve (symbolic
    #: reuses, numeric refactorisations, block factorisations …) — the Fig. 5
    #: attribution inputs, harvested from ``OPFResult.kkt_telemetry``.
    kkt_telemetry: Dict[str, int] = field(default_factory=dict)
    #: Final primal/dual variables (present when solutions were requested).
    solution: Optional[ScenarioSolution] = None
    #: Crash/error retries of the tasks that carried this scenario (0 for a
    #: clean dispatch; includes retries of fragments it rode along in).
    retries: int = 0
    #: True when the scenario retired on a wall deadline or per-solve budget
    #: (a resource outcome — no fallback recovery is attempted).
    timed_out: bool = False
    #: True when supervision isolated this scenario as the culprit of repeated
    #: worker crashes / solver errors and retired it without a solution.
    quarantined: bool = False
    #: Description of the crash or exception that quarantined the scenario.
    error: str = ""

    @property
    def converged(self) -> bool:
        """True when either the first attempt or its fallback converged."""
        return self.success or (self.used_fallback and self.fallback_success)

    @property
    def final_iterations(self) -> int:
        """Iterations spent on the path that produced the final answer."""
        return self.iterations_fallback if self.used_fallback else self.iterations

    @property
    def final_objective(self) -> float:
        """Objective of the solve that produced the final answer."""
        return self.objective_fallback if self.used_fallback else self.objective


@dataclass
class SweepResult:
    """Aggregated outcome of a scenario sweep.

    Every outcome was solved in lockstep, so ``ScenarioOutcome.solve_seconds``
    is an additive share of the lockstep wall: the shares of one worker sum
    to its solve wall, and :meth:`total_solver_seconds` is the serial-
    equivalent work of the sweep.
    """

    case_name: str
    n_workers: int
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Task failure events the supervisor observed (worker crashes plus
    #: raised worker exceptions) while dispatching this sweep.
    errors: int = 0
    #: Task retry attempts the supervisor dispatched for this sweep.
    retries: int = 0
    #: Scenarios quarantined as crash/error culprits (see
    #: ``ScenarioOutcome.quarantined``).  For :meth:`SolverFleet.solve_many`
    #: the three counters record the *joint* dispatch, repeated on each sweep.
    quarantined: int = 0
    #: Model generation that served this sweep (stamped by the engine; 0 for
    #: bare-fleet sweeps).  A request in flight across a hot-swap keeps the
    #: generation it snapshotted on entry — never a hybrid.
    model_generation: int = 0
    #: Trajectory step index when this sweep is one period of a multi-period
    #: sweep (stamped by :class:`~repro.parallel.trajectory.MultiPeriodSweep`);
    #: ``None`` for ordinary one-shot sweeps.
    period: Optional[int] = None

    @property
    def n_scenarios(self) -> int:
        """Number of solved scenarios."""
        return len(self.outcomes)

    @property
    def success_rate(self) -> float:
        """Fraction of scenarios that converged (after any fallback)."""
        return float(np.mean([o.converged for o in self.outcomes])) if self.outcomes else 0.0

    @property
    def warm_success_rate(self) -> float:
        """Fraction of scenarios whose first (warm) attempt converged."""
        return float(np.mean([o.success for o in self.outcomes])) if self.outcomes else 0.0

    @property
    def fallback_rate(self) -> float:
        """Fraction of scenarios that needed the fallback policy."""
        return float(np.mean([o.used_fallback for o in self.outcomes])) if self.outcomes else 0.0

    @property
    def throughput(self) -> float:
        """Scenarios per wall-clock second."""
        return self.n_scenarios / self.wall_seconds if self.wall_seconds > 0 else float("nan")

    def total_solver_seconds(self) -> float:
        """Sum of per-scenario solver times (the serial-equivalent work)."""
        return float(sum(o.solve_seconds + o.fallback_seconds for o in self.outcomes))


# ---------------------------------------------------------------------- workers
#: Per-process worker state: populated once by :func:`_init_worker`, reused by
#: every batch the worker processes (model construction and case transfer are
#: paid once per worker, not once per batch).
_WORKER_STATE: Dict[str, object] = {}


def _build_state(
    case: Case,
    options: OPFOptions,
    fallback: "Optional[FallbackPolicy]" = None,
    collect_solutions: bool = False,
    model: Optional[OPFModel] = None,
    faults: Optional[FaultPlan] = None,
    in_subprocess: bool = False,
) -> Dict[str, object]:
    return {
        "case": case,
        "options": options,
        "model": model or OPFModel(case, flow_limits=options.flow_limits),
        "outage_models": {},
        "fallback": fallback,
        "collect_solutions": collect_solutions,
        "faults": faults,
        "in_subprocess": in_subprocess,
        # Tasks processed by this worker process (drives ``kill_at_task``).
        "task_count": 0,
    }


def _init_worker(
    case: Case,
    options: OPFOptions,
    fallback: "Optional[FallbackPolicy]" = None,
    collect_solutions: bool = False,
    faults: Optional[FaultPlan] = None,
) -> None:
    """Pool initializer: build the per-process OPF model once."""
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        _build_state(
            case, options, fallback, collect_solutions, faults=faults, in_subprocess=True
        )
    )


def _outage_case_and_model(state: Dict[str, object], branches: Tuple[int, ...]):
    """Per-worker memo of outaged-network cases/models, keyed by topology key.

    The key is the scenario's sorted outage-branch tuple — an N-1 single and
    an N-2 pair memoise the same way.  Sweeps draw outages from a small
    candidate set, so the same topology recurs across scenarios; building its
    admittances and structure caches once per worker keeps contingency
    scenarios as cheap as load-only ones.  Loads stay at the base-case values
    — scenarios override them per solve.  Branch indices are bounds-checked
    here (typed :class:`ValueError`) before they can reach NumPy fancy
    indexing.
    """
    case: Case = state["case"]
    options: OPFOptions = state["options"]
    cache: Dict[Tuple[int, ...], tuple] = state["outage_models"]
    entry = cache.get(branches)
    if entry is None:
        validate_outage_branches(branches, case.n_branch)
        label = "+".join(str(b) for b in branches)
        outage_case = case.with_loads(
            case.bus.Pd, case.bus.Qd, name=f"{case.name}#out{label}"
        )
        outage_case.branch.status[list(branches)] = 0
        entry = (outage_case, OPFModel(outage_case, flow_limits=options.flow_limits))
        cache[branches] = entry
    return entry


def _topology_groups(scenarios: Sequence[Scenario]) -> Dict[Tuple[int, ...], List[int]]:
    """Group scenario positions by :func:`topology_key` (first-appearance order).

    The in-process dispatch groups with this and the scheduler's
    micro-batches (:func:`~repro.parallel.scheduler.make_microbatches`) with
    the same ``topology_key``, so lockstep group membership cannot silently
    diverge between the two.
    """
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for pos, scenario in enumerate(scenarios):
        groups.setdefault(topology_key(scenario), []).append(pos)
    return groups


def _lockstep_group(
    state: Dict[str, object],
    key: Tuple[int, ...],
    scenarios: Sequence[Scenario],
    warm_starts: Sequence[Optional[WarmStart]],
    options: Optional[OPFOptions] = None,
    window: Optional[int] = None,
    deadline: Optional[object] = None,
) -> List[OPFResult]:
    """Solve a *topology-pure* scenario group in lockstep — the only solve path.

    Every scenario must share ``key`` (its sorted outage-branch tuple; ``()``
    = the intact network).  Load-only scenarios reuse the persistent
    per-worker model; an outage changes the network topology (admittances,
    rated-branch set), so those scenarios get a dedicated case/model.  When
    the outage drops a rated branch the inequality multipliers/slacks of a
    base-network warm start no longer line up, so ``µ``/``Z`` fall back to
    solver defaults while the primal point and equality multipliers are kept.

    ``options`` overrides the fleet's solver options (relaxed fallback
    retries).  ``window`` bounds the lockstep width (retire-and-refill
    streaming, see :func:`repro.opf.batch.solve_opf_batch`).  ``deadline`` is
    a scalar or a per-scenario vector of absolute wall deadlines (``inf`` =
    unbounded), forwarded to the batch solver's per-row retirement checks.
    """
    base_model: OPFModel = state["model"]
    key = tuple(key or ())
    if not key:
        case, model = state["case"], base_model
    else:
        case, model = _outage_case_and_model(state, key)
    if model.n_ineq_nonlin != base_model.n_ineq_nonlin:
        warm_starts = [
            None if warm is None else warm.masked(use_mu=False, use_z=False)
            for warm in warm_starts
        ]
    return solve_opf_batch(
        case,
        np.stack([s.Pd for s in scenarios]),
        np.stack([s.Qd for s in scenarios]),
        warm_starts=list(warm_starts),
        options=options or state["options"],
        model=model,
        window=window,
        deadline=deadline,
    )


def _row_deadline(deadlines: Optional[List[float]], pos: int) -> Optional[float]:
    """The scalar deadline of one row (``None`` for unbounded/absent rows)."""
    if deadlines is None:
        return None
    value = deadlines[pos]
    return None if np.isinf(value) else float(value)


def _outcome_for(
    state: Dict[str, object],
    scenario: Scenario,
    warm: Optional[WarmStart],
    worker_id: int,
    first: OPFResult,
    deadline: Optional[float] = None,
) -> ScenarioOutcome:
    """Apply the fallback policy to a first attempt and package the outcome.

    Recovery solves are one-row lockstep groups on the scenario's topology.
    A first attempt that timed out retires as-is — recovery would only burn
    more of a budget that is already spent — and recovery solves for ordinary
    failures inherit the scenario's deadline.
    """
    options: OPFOptions = state["options"]
    policy = state["fallback"]
    recovered: Optional[OPFResult] = None
    fallback_seconds = 0.0
    fallback_iterations = 0
    if not first.success and not first.timed_out and policy is not None:
        attempts: List[OPFResult] = []

        def solve(warm_start, solve_options=None):
            (result,) = _lockstep_group(
                state, topology_key(scenario), [scenario], [warm_start],
                options=solve_options, deadline=deadline,
            )
            attempts.append(result)
            return result

        t0 = time.perf_counter()
        recovered = policy.recover(solve, warm, first, options)
        fallback_seconds = time.perf_counter() - t0
        if recovered is not None:
            # Charge every recovery solve (e.g. a failed relaxed retry plus
            # the cold restart), keeping iteration and wall-time accounting
            # consistent.
            fallback_iterations = (
                sum(r.iterations for r in attempts) if attempts else recovered.iterations
            )

    final = recovered if recovered is not None else first
    solution = None
    if state["collect_solutions"]:
        solution = ScenarioSolution(
            x=final.x.copy(), lam=final.lam.copy(), mu=final.mu.copy(), z=final.z.copy()
        )
    return ScenarioOutcome(
        scenario_id=scenario.scenario_id,
        success=first.success,
        iterations=first.iterations,
        objective=first.objective,
        solve_seconds=first.total_seconds,
        worker=worker_id,
        used_fallback=recovered is not None,
        fallback_success=bool(recovered.success) if recovered is not None else False,
        iterations_fallback=fallback_iterations,
        objective_fallback=recovered.objective if recovered is not None else float("nan"),
        fallback_seconds=fallback_seconds,
        phase_seconds=dict(final.phase_seconds),
        kkt_telemetry=dict(getattr(final, "kkt_telemetry", {}) or {}),
        solution=solution,
        timed_out=first.timed_out or (recovered is not None and recovered.timed_out),
    )


def _worker_identity() -> int:
    """This process's 1-based pool-worker index (0 in the parent process).

    Observability only (fills ``ScenarioOutcome.worker``), so the undocumented
    ``Process._identity`` is read defensively — a runtime without it simply
    reports worker 0 rather than failing the sweep.
    """
    identity = getattr(mp.current_process(), "_identity", None) or ()
    return int(identity[0]) if identity else 0


# -------------------------------------------------------------- task machinery
#: A dispatch task is a plain picklable dict carrying one topology-pure
#: lockstep group:
#:
#: * ``positions`` — global sweep positions of the carried scenarios;
#: * ``scenarios`` / ``warm_starts`` — the carried work, aligned with
#:   ``positions``;
#: * ``key`` — the shared topology key (the sorted outage-branch tuple;
#:   ``()`` for the intact network);
#: * ``worker_id`` — the worker label stamped on outcomes (``None`` = the
#:   executing process's own identity);
#: * ``window`` — optional lockstep window;
#: * ``attempt`` — crash-retry attempt number (0 = first dispatch), which
#:   fault plans key on;
#: * ``deadline`` — ``None`` (unbounded task) or a tuple of absolute
#:   ``time.monotonic()`` wall deadlines aligned with ``scenarios``
#:   (``inf`` entries = unbounded rows).  A scalar is also accepted and
#:   broadcast over the task's rows.


def _make_task(
    positions: Sequence[int],
    key: Optional[Tuple[int, ...]],
    scenarios: List[Scenario],
    warm_starts: List[Optional[WarmStart]],
    worker_id: Optional[int],
    window: Optional[int],
    due: Optional[np.ndarray],
) -> Dict[str, object]:
    return {
        "positions": tuple(positions),
        "key": key,
        "scenarios": [scenarios[i] for i in positions],
        "warm_starts": [warm_starts[i] for i in positions],
        "worker_id": worker_id,
        "window": window,
        "attempt": 0,
        "deadline": None if due is None else tuple(float(due[i]) for i in positions),
    }


def _task_deadlines(task: Dict[str, object]) -> Optional[List[float]]:
    """The task's per-row absolute deadlines (``None`` when unbounded).

    Scalars broadcast over the task's scenarios so hand-built tasks keep
    working; ``inf`` rows mean unbounded.
    """
    deadline = task["deadline"]
    if deadline is None:
        return None
    if isinstance(deadline, (int, float)):
        return [float(deadline)] * len(task["scenarios"])
    return [float(d) for d in deadline]


def _split_task(task: Dict[str, object]) -> Optional[List[Dict[str, object]]]:
    """Bisect a repeatedly-failing task into two halves; ``None`` at one row.

    Lockstep rows are independent bit for bit, so any cut of a group
    reproduces its rows and the surviving scenarios keep their fault-free
    results.  Fragments restart the retry budget (``attempt=0``).
    """
    positions: Tuple[int, ...] = task["positions"]
    if len(positions) <= 1:
        return None
    deadlines = _task_deadlines(task)
    half = len(positions) // 2
    return [
        dict(
            task,
            positions=positions[part],
            scenarios=task["scenarios"][part],
            warm_starts=task["warm_starts"][part],
            attempt=0,
            deadline=None if deadlines is None else tuple(deadlines[part]),
        )
        for part in (slice(None, half), slice(half, None))
    ]


def _task_worker_label(task: Dict[str, object]) -> int:
    """The worker id stamped on this task's outcomes (see ``_make_task``)."""
    worker_id = task["worker_id"]
    return _worker_identity() if worker_id is None else int(worker_id)


def _retired_outcome(
    scenario: Scenario,
    worker: int,
    message: str,
    timed_out: bool = False,
    quarantined: bool = False,
    retries: int = 0,
) -> ScenarioOutcome:
    """A structured outcome for a scenario retired without a solution."""
    return ScenarioOutcome(
        scenario_id=scenario.scenario_id,
        success=False,
        iterations=0,
        objective=float("nan"),
        solve_seconds=0.0,
        worker=worker,
        timed_out=timed_out,
        quarantined=quarantined,
        error=message,
        retries=retries,
    )


def _solve_task_in_state(
    state: Dict[str, object], task: Dict[str, object]
) -> List[ScenarioOutcome]:
    """Execute one dispatch task: faults, deadline gate, then the solve path."""
    scenarios: List[Scenario] = task["scenarios"]
    attempt: int = task["attempt"]
    plan: Optional[FaultPlan] = state.get("faults")
    if plan:
        index = int(state.get("task_count", 0))
        state["task_count"] = index + 1
        scenario_ids = [s.scenario_id for s in scenarios]
        if plan.kill_at_task_index(index) or plan.kill_for(scenario_ids, attempt):
            execute_kill(bool(state.get("in_subprocess")))
        stall = plan.stall_seconds(scenario_ids, attempt)
        if stall > 0.0:
            time.sleep(stall)
        spec = plan.raise_for(scenario_ids, attempt)
        if spec is not None:
            raise FaultInjectionError(spec.message)
    deadlines = _task_deadlines(task)
    warm_starts: List[Optional[WarmStart]] = task["warm_starts"]
    worker = _task_worker_label(task)
    retired: Dict[int, ScenarioOutcome] = {}
    if deadlines is not None:
        # Row-wise deadline gate: a coalesced task carries rows with different
        # deadlines, so only the rows that already missed theirs retire as
        # timed out — the rest are solved with their own per-row deadlines.
        # Lockstep rows are bit-independent, so retiring a subset up front
        # leaves the surviving rows' results bitwise identical to a sweep
        # where the expired rows never existed.
        now = time.monotonic()
        for pos, row_deadline in enumerate(deadlines):
            if now >= row_deadline:
                retired[pos] = _retired_outcome(
                    scenarios[pos], worker, "wall deadline exceeded", timed_out=True
                )
        if retired and len(retired) == len(scenarios):
            return [retired[pos] for pos in range(len(scenarios))]

    # Lockstep rows are bit-independent, so dropping the expired rows keeps
    # the survivors on their canonical numeric path.
    if retired:
        live = [pos for pos in range(len(scenarios)) if pos not in retired]
        scenarios = [scenarios[pos] for pos in live]
        warm_starts = [warm_starts[pos] for pos in live]
        deadlines = [deadlines[pos] for pos in live]
    firsts = _lockstep_group(
        state, task["key"], scenarios, warm_starts, window=task["window"], deadline=deadlines
    )
    solved = [
        _outcome_for(state, scenario, warm, worker, first, _row_deadline(deadlines, row))
        for row, (scenario, warm, first) in enumerate(zip(scenarios, warm_starts, firsts))
    ]
    if not retired:
        return solved
    outs: List[ScenarioOutcome] = []
    solved_iter = iter(solved)
    for pos in range(len(task["scenarios"])):
        outs.append(retired[pos] if pos in retired else next(solved_iter))
    return outs


def _solve_task(task: Dict[str, object]) -> List[ScenarioOutcome]:
    """Worker entry point (module-level for pickling); uses the initializer state."""
    return _solve_task_in_state(_WORKER_STATE, task)


# ------------------------------------------------------------------------ fleet
class SolverFleet:
    """A persistent fleet of solver workers for one case.

    ``n_workers == 1`` runs everything in-process (no subprocesses, optionally
    reusing a caller-provided :class:`OPFModel`); larger fleets hold a spawn
    pool whose workers stay alive across :meth:`solve` calls, so a serving
    engine pays process start-up and model construction once, not per batch.

    Every scenario is solved in a topology-keyed lockstep group (see
    :func:`repro.opf.batch.solve_opf_batch`).  Multi-worker fleets cut the
    sweep into micro-batches (``microbatch`` scenarios each, auto-sized when
    omitted) that idle workers pull from a shared queue; the in-process
    fleet solves whole topology groups, through a retire-and-refill lockstep
    window of ``microbatch`` rows when one is given.  Results are invariant
    under steal order, worker count and micro-batch size.  ``execution`` and
    ``schedule`` accept only ``"batch"`` and ``"steal"`` (see
    :func:`validate_solve_path`).  ``model`` must be built on ``case``
    itself.

    Dispatch is supervised: a worker that dies mid-task is respawned and its
    task retried (``crash_retries`` attempts per task), then bisected until
    the culprit scenario is quarantined as a structured failed outcome —
    a sweep always returns one outcome per scenario.  ``faults`` injects
    deterministic chaos (worker kills, solver raises, stalls) for tests; see
    :mod:`repro.testing.faults`.  Per-request wall deadlines are accepted by
    :meth:`solve` / :meth:`solve_many`.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        case: Case,
        options: Optional[OPFOptions] = None,
        n_workers: int = 1,
        fallback: "Optional[FallbackPolicy]" = None,
        collect_solutions: bool = False,
        model: Optional[OPFModel] = None,
        execution: str = "batch",
        schedule: str = "steal",
        microbatch: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        crash_retries: int = 1,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        validate_solve_path(execution, schedule)
        if model is not None and model.case is not case:
            # Every task would fail on it and be retried, bisected and
            # quarantined; reject it before any work is dispatched.
            raise ValueError("the supplied model was built for a different case object")
        if microbatch is not None and microbatch < 1:
            raise ValueError("microbatch must be positive")
        if crash_retries < 0:
            raise ValueError("crash_retries must be non-negative")
        self.case = case
        self.options = options or OPFOptions()
        self.n_workers = n_workers
        self.fallback = fallback
        self.collect_solutions = collect_solutions
        self.microbatch = microbatch
        self.faults = faults
        self.crash_retries = crash_retries
        self._pool: Optional[SupervisedPool] = None
        self._state: Optional[Dict[str, object]] = None
        if n_workers == 1:
            self._state = _build_state(
                case, self.options, fallback, collect_solutions, model=model, faults=faults
            )
        else:
            self._pool = SupervisedPool(
                n_workers,
                initializer=_init_worker,
                initargs=(case, self.options, fallback, collect_solutions, faults),
            )

    # ------------------------------------------------------------------ solving
    @staticmethod
    def _deadline_vector(
        deadline_seconds: Optional[object],
        deadline: Optional[object],
        n_scenarios: int,
    ) -> Optional[np.ndarray]:
        """Normalise request deadlines to one absolute deadline per scenario.

        ``deadline_seconds`` (relative wall budgets) and ``deadline``
        (absolute ``time.monotonic()`` deadlines) each accept a scalar —
        broadcast over the sweep — or a per-scenario sequence; ``inf`` /
        ``nan`` entries mean unbounded.  When both are given the earlier
        deadline wins per scenario.  Returns ``None`` when no scenario is
        bounded (the unbounded fast path).
        """

        def as_vector(value: object, label: str) -> np.ndarray:
            arr = np.asarray(value, dtype=float)
            if arr.ndim == 0:
                arr = np.full(n_scenarios, float(arr))
            elif arr.shape != (n_scenarios,):
                raise ValueError(f"{label} must be a scalar or have one entry per scenario")
            return np.where(np.isnan(arr), np.inf, arr)

        due: Optional[np.ndarray] = None
        if deadline_seconds is not None:
            budgets = as_vector(deadline_seconds, "deadline_seconds")
            if np.any(budgets[np.isfinite(budgets)] <= 0):
                raise ValueError("deadline_seconds must be positive")
            due = time.monotonic() + budgets
        if deadline is not None:
            absolute = as_vector(deadline, "deadline")
            due = absolute if due is None else np.minimum(due, absolute)
        if due is None or not np.any(np.isfinite(due)):
            return None
        return due

    def solve(
        self,
        scenario_set: ScenarioSet,
        warm_starts: Optional[List[Optional[WarmStart]]] = None,
        deadline_seconds: Optional[object] = None,
        deadline: Optional[object] = None,
    ) -> SweepResult:
        """Solve every scenario of ``scenario_set`` on the fleet.

        ``warm_starts`` is an optional per-scenario list (``None`` entries mean
        a cold start), typically produced by batched MTL inference in the
        parent process.  ``deadline_seconds`` (wall budgets for this request)
        and ``deadline`` (absolute ``time.monotonic()`` deadlines) bound the
        sweep cooperatively — each a scalar shared by the whole sweep or a
        per-scenario sequence (``inf``/``nan`` = unbounded), the shape a
        deadline-aware batcher needs when it coalesces requests with
        different budgets into one sweep.  Scenarios that miss their cut
        retire as ``timed_out`` outcomes instead of blocking the request.
        """
        if warm_starts is None:
            warm_starts = [None] * len(scenario_set)
        if len(warm_starts) != len(scenario_set):
            raise ValueError("warm_starts must have one entry per scenario")
        due = self._deadline_vector(deadline_seconds, deadline, len(scenario_set))

        scenarios = list(scenario_set)
        start = time.perf_counter()
        outcomes, stats = self._dispatch(scenarios, list(warm_starts), due)
        wall = time.perf_counter() - start

        sweep = SweepResult(
            case_name=self.case.name,
            n_workers=self.n_workers,
            wall_seconds=wall,
            errors=stats["errors"],
            retries=stats["retries"],
            quarantined=stats["quarantined"],
        )
        sweep.outcomes.extend(outcomes)
        sweep.outcomes.sort(key=lambda o: o.scenario_id)
        return sweep

    def solve_many(
        self,
        scenario_sets: Sequence[ScenarioSet],
        warm_starts: Optional[Sequence[Optional[List[Optional[WarmStart]]]]] = None,
        deadline_seconds: Optional[object] = None,
        deadline: Optional[object] = None,
    ) -> List[SweepResult]:
        """Solve several sweeps at once with cross-sweep contingency batching.

        The sweeps' scenarios are merged into one elastic dispatch, so
        scenarios of *different* sweeps that share an outage branch (or the
        base network) land in the same lockstep group — outage-heavy SC-ACOPF
        screening no longer fragments into tiny per-sweep per-branch groups
        that forfeit the batch win.  Per-scenario results are bit-identical
        to solving each sweep separately.

        ``warm_starts`` is an optional per-sweep sequence of per-scenario
        lists (``None`` sweeps mean all-cold).  Returns one
        :class:`SweepResult` per input sweep (outcomes sorted by scenario
        id); each records the *joint* dispatch wall — and the joint
        ``errors`` / ``retries`` / ``quarantined`` counters — so aggregate
        cost by summing per-scenario ``solve_seconds``, not walls across
        sweeps.  ``deadline_seconds`` / ``deadline`` bound the joint dispatch
        like :meth:`solve`; per-scenario sequences follow the flattened
        dispatch order (sweep 0's scenarios, then sweep 1's, …).
        """
        sets = list(scenario_sets)
        if warm_starts is None:
            warm_starts = [None] * len(sets)
        if len(warm_starts) != len(sets):
            raise ValueError("warm_starts must have one entry per scenario set")
        flat_scenarios: List[Scenario] = []
        flat_warms: List[Optional[WarmStart]] = []
        origins: List[int] = []
        for si, scenario_set in enumerate(sets):
            warm_list = warm_starts[si]
            if warm_list is None:
                warm_list = [None] * len(scenario_set)
            if len(warm_list) != len(scenario_set):
                raise ValueError(f"warm_starts[{si}] must have one entry per scenario")
            for scenario, warm in zip(scenario_set, warm_list):
                flat_scenarios.append(scenario)
                flat_warms.append(warm)
                origins.append(si)

        due = self._deadline_vector(deadline_seconds, deadline, len(flat_scenarios))
        start = time.perf_counter()
        outcomes, stats = self._dispatch(flat_scenarios, flat_warms, due)
        wall = time.perf_counter() - start

        sweeps = [
            SweepResult(
                case_name=self.case.name,
                n_workers=self.n_workers,
                wall_seconds=wall,
                errors=stats["errors"],
                retries=stats["retries"],
                quarantined=stats["quarantined"],
            )
            for _ in sets
        ]
        for outcome, origin in zip(outcomes, origins):
            sweeps[origin].outcomes.append(outcome)
        for sweep in sweeps:
            sweep.outcomes.sort(key=lambda o: o.scenario_id)
        return sweeps

    # ------------------------------------------------------------- dispatchers
    def _require_state(self) -> Dict[str, object]:
        if self._state is None:
            raise RuntimeError("fleet is closed")
        return self._state

    def _dispatch(
        self,
        scenarios: List[Scenario],
        warm_starts: List[Optional[WarmStart]],
        due: Optional[np.ndarray] = None,
    ) -> Tuple[List[ScenarioOutcome], Dict[str, int]]:
        """Shared micro-batch queue with stealing; outcomes returned by position.

        Multi-worker fleets submit the topology-keyed micro-batches to the
        supervised pool's shared task queue, and whichever worker drains its
        current micro-batch first pulls (steals) the next one.  The
        in-process fleet instead streams each topology group through a
        lockstep window of one micro-batch, refilling retired slots from the
        queue between iterations (see :func:`repro.opf.batch.solve_opf_batch`).
        """
        if self._pool is None:
            # With a single in-process worker there is nobody to steal from,
            # so micro-batch boundaries are irrelevant: solve whole topology
            # groups, where a bounded lockstep window only caps how many
            # scenarios march per iteration — default to unbounded (maximum
            # amortisation) and let an explicit ``microbatch`` opt into
            # bounded retire-and-refill streaming.  Results are
            # window-invariant bit for bit either way.
            grouped = _topology_groups(scenarios)
            tasks = [
                _make_task(positions, key, scenarios, warm_starts, 0, self.microbatch, due)
                for key, positions in grouped.items()
            ]
        else:
            microbatches = make_microbatches(
                scenarios, microbatch=self.microbatch, n_workers=self.n_workers
            )
            tasks = [
                _make_task(
                    microbatch.positions, microbatch.key, scenarios, warm_starts, None, None, due
                )
                for microbatch in microbatches
            ]
        return self._run_tasks(tasks, len(scenarios))

    def _run_tasks(
        self, tasks: List[Dict[str, object]], n_scenarios: int
    ) -> Tuple[List[ScenarioOutcome], Dict[str, int]]:
        """Run dispatch tasks under supervision; one outcome per position.

        A failing task (dead worker or raised exception — including injected
        faults) is retried up to ``crash_retries`` times, then bisected by
        :func:`_split_task` until the culprit scenario is isolated and
        quarantined.  The multi-worker path consumes the supervised pool's
        event stream (crashed workers are respawned by the pool); the
        in-process path runs the identical policy inline, treating any
        exception from the solve as the failure event.
        """
        outcomes: List[Optional[ScenarioOutcome]] = [None] * n_scenarios
        stats = {"errors": 0, "retries": 0, "quarantined": 0}
        #: Retry attempts each global position has ridden along in — folded
        #: into its final outcome whichever task eventually carries it home.
        retry_counts: Dict[int, int] = {}

        def place(task: Dict[str, object], outs: List[ScenarioOutcome]) -> None:
            for pos, outcome in zip(task["positions"], outs):
                extra = retry_counts.get(pos, 0)
                if extra:
                    outcome = replace(outcome, retries=outcome.retries + extra)
                outcomes[pos] = outcome

        def on_failure(
            task: Dict[str, object], message: str
        ) -> List[Dict[str, object]]:
            """Retry, bisect or quarantine; returns the tasks to (re)dispatch."""
            stats["errors"] += 1
            if task["attempt"] < self.crash_retries:
                stats["retries"] += 1
                for pos in task["positions"]:
                    retry_counts[pos] = retry_counts.get(pos, 0) + 1
                return [dict(task, attempt=task["attempt"] + 1)]
            fragments = _split_task(task)
            if fragments is not None:
                return fragments
            scenario = task["scenarios"][0]
            pos = task["positions"][0]
            worker = task["worker_id"]
            outcomes[pos] = _retired_outcome(
                scenario,
                0 if worker is None else int(worker),
                message,
                quarantined=True,
                retries=retry_counts.get(pos, 0),
            )
            stats["quarantined"] += 1
            return []

        if self._pool is None:
            state = self._require_state()
            queue: List[Dict[str, object]] = list(tasks)
            while queue:
                task = queue.pop(0)
                try:
                    outs = _solve_task_in_state(state, task)
                except Exception as exc:  # noqa: BLE001 - the supervision boundary
                    queue.extend(on_failure(task, f"{type(exc).__name__}: {exc}"))
                else:
                    place(task, outs)
        else:
            # Hold a local reference: a cross-thread close() nulls self._pool,
            # and the terminated pool then raises PoolClosedError from
            # next_event()/submit() — the designed abort signal — rather than
            # this loop tripping over a vanished attribute.
            pool = self._pool
            inflight: Dict[int, Dict[str, object]] = {}
            for task in tasks:
                inflight[pool.submit(_solve_task, task)] = task
            while inflight:
                kind, task_id, payload = pool.next_event()
                task = inflight.pop(task_id)
                if kind == "done":
                    place(task, payload)
                    continue
                for fragment in on_failure(task, str(payload)):
                    inflight[pool.submit(_solve_task, fragment)] = fragment
        return outcomes, stats  # type: ignore[return-value]

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut the fleet down (terminates pool workers; idempotent).

        Safe to call from another thread while a sweep is in flight: the
        supervised pool's event loop then aborts the dispatch with
        :class:`~repro.parallel.supervision.PoolClosedError` instead of
        hanging on workers that no longer exist.
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None
        self._state = None

    def __enter__(self) -> "SolverFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_scenario_sweep(
    case: Case,
    scenario_set: ScenarioSet,
    warm_starts: Optional[List[Optional[WarmStart]]] = None,
    n_workers: int = 1,
    options: Optional[OPFOptions] = None,
    fallback: "Optional[FallbackPolicy]" = None,
    collect_solutions: bool = False,
    model: Optional[OPFModel] = None,
    microbatch: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    crash_retries: int = 1,
    deadline_seconds: Optional[float] = None,
) -> SweepResult:
    """Solve every scenario of ``scenario_set`` using a one-shot fleet.

    Convenience wrapper over :class:`SolverFleet` for single sweeps;
    ``n_workers=1`` runs everything in-process, which is what the unit tests
    use.  Long-lived callers (the serving engine) hold a fleet instead so the
    workers persist across sweeps.
    """
    with SolverFleet(
        case,
        options=options,
        n_workers=n_workers,
        fallback=fallback,
        collect_solutions=collect_solutions,
        model=model,
        microbatch=microbatch,
        faults=faults,
        crash_retries=crash_retries,
    ) as fleet:
        return fleet.solve(scenario_set, warm_starts, deadline_seconds=deadline_seconds)
