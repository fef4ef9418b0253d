"""The batched warm-start serving engine.

:class:`WarmStartEngine` is the deployable half of Smart-PGSim: a trained
prediction network plus everything needed to turn load scenarios into solved
AC-OPF problems at throughput —

* **batched MTL inference** — one forward pass covers a whole batch of load
  vectors (``warm_starts_for``), instead of one per-row predict per scenario;
* **a persistent solver fleet** — warm-started MIPS solves are dispatched
  across the :class:`~repro.parallel.pool.SolverFleet` workers, which stay
  alive across requests;
* **pluggable failure recovery** — a :class:`~repro.engine.fallback.FallbackPolicy`
  decides what happens when a warm solve does not converge;
* **artifact persistence** — :meth:`save_artifact` / :meth:`load_artifact`
  bundle model weights, normalizer statistics, configuration and a case
  fingerprint, so an engine can be reconstructed from disk and serve requests
  without retraining.

The offline/online driver in :mod:`repro.core.framework` is a thin
orchestrator over this class.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.data.dataset import OPFDataset
from repro.engine.drift import DriftMonitor, DriftReport
from repro.engine.fallback import CircuitBreaker, FallbackPolicy, get_fallback_policy
from repro.engine.records import OnlineEvaluation, OnlineRecord
from repro.grid.components import Case
from repro.mtl.config import MTLConfig
from repro.mtl.normalization import DatasetNormalizer
from repro.mtl.trainer import MTLTrainer, predict_physical, warm_starts_from_predictions
from repro.nn.modules import Module
from repro.opf.model import OPFModel
from repro.opf.solver import OPFOptions
from repro.opf.warmstart import WarmStart
from repro.parallel.pool import SolverFleet, SweepResult
from repro.parallel.scenarios import Scenario, ScenarioSet
from repro.testing.faults import FaultPlan
from repro.utils.logging import get_logger

LOGGER = get_logger("engine")


def _predict_rows(
    network: Module, normalizer: DatasetNormalizer, inputs_pu: np.ndarray
) -> Dict[str, np.ndarray]:
    """Batched inference whose per-row outputs are independent of batch width.

    Requests ride whatever flush the async batcher happened to cut, so the
    serving path must not let the flush width leak into the predicted warm
    starts.  The shared :func:`repro.mtl.trainer.predict_physical` helper
    provides the guarantee — every forward pass runs in canonical
    fixed-width gemm blocks — so row ``i``'s prediction is bitwise identical
    whether it was served alone, in a pair, or in the middle of a wide
    coalesced batch, and trainer-side predictions match the serving path
    bit for bit.
    """
    return predict_physical(network, normalizer, inputs_pu)

#: Sentinel for :meth:`WarmStartEngine.load_artifact`: "use the fallback
#: policy persisted in the artifact" (``None`` keeps meaning no recovery).
PERSISTED_FALLBACK = object()


@dataclass(frozen=True)
class ServingModel:
    """One immutable generation of the engine's learned state.

    The engine publishes exactly one of these at a time; a hot-swap builds the
    next generation completely and then replaces the published reference in a
    single assignment.  Requests snapshot the reference once on entry, so a
    request in flight during a swap finishes on the generation it started
    with — every request is served by a *pure* generation, never a hybrid.
    """

    network: Module
    normalizer: DatasetNormalizer
    config: MTLConfig
    generation: int = 0


class WarmStartEngine:
    """Serves batches of load scenarios with MTL warm starts and a solver fleet."""

    def __init__(
        self,
        case: Case,
        network: Module,
        normalizer: DatasetNormalizer,
        config: Optional[MTLConfig] = None,
        opf_options: Optional[OPFOptions] = None,
        fallback: Union[str, FallbackPolicy, None] = "cold_restart",
        opf_model: Optional[OPFModel] = None,
        microbatch: Optional[int] = None,
        breaker: Optional[CircuitBreaker] = None,
        faults: Optional[FaultPlan] = None,
        crash_retries: int = 1,
        drift_monitor: Optional[DriftMonitor] = None,
    ):
        self.case = case
        #: The published model generation.  Swapped atomically by
        #: :meth:`hot_swap`; read it through the ``network`` / ``normalizer``
        #: / ``config`` / ``generation`` properties, or snapshot the whole
        #: :class:`ServingModel` for request-pure serving.
        self._serving = ServingModel(
            network=network,
            normalizer=normalizer,
            config=config or getattr(network, "config", MTLConfig()),
        )
        self._swap_lock = threading.Lock()
        self.opf_options = opf_options or OPFOptions()
        self.fallback = get_fallback_policy(fallback)
        self.opf_model = opf_model or OPFModel(case, flow_limits=self.opf_options.flow_limits)
        if microbatch is not None and microbatch < 1:
            # Fail at construction, not at the first (lazy) fleet creation.
            raise ValueError("microbatch must be positive")
        #: Micro-batch size for the fleet scheduler (auto-sized when None).
        self.microbatch = microbatch
        #: Optional health-aware circuit breaker over the warm-start path.
        #: While open, new requests skip inference and go straight to the
        #: relaxed/cold path; per-request outcomes feed its health window.
        self.breaker = breaker
        #: Optional predictive drift monitor fed one outcome per served
        #: scenario (in scenario-id order); surfaces trends on
        #: :meth:`drift_report` *before* the breaker has anything to trip on.
        self.drift_monitor = drift_monitor
        #: Optional deterministic fault plan injected into fleet workers
        #: (testing only) and the crash-retry budget handed to fleets.
        self.faults = faults
        self.crash_retries = crash_retries
        #: Live fleets keyed by worker count; created lazily, kept across calls.
        self._fleets: Dict[int, SolverFleet] = {}
        #: Trajectory-serving fleets (``collect_solutions=True`` — the
        #: step-to-step warm chain *is* the previous step's solutions), kept
        #: separate so ordinary serving keeps its lean no-solution transfers.
        self._trajectory_fleets: Dict[int, SolverFleet] = {}

    # ------------------------------------------------------------ serving state
    @property
    def network(self) -> Module:
        """The live generation's prediction network."""
        return self._serving.network

    @property
    def normalizer(self) -> DatasetNormalizer:
        """The live generation's normalizer statistics."""
        return self._serving.normalizer

    @property
    def config(self) -> MTLConfig:
        """The live generation's MTL configuration."""
        return self._serving.config

    @property
    def generation(self) -> int:
        """Monotonic model-generation counter (0 at construction)."""
        return self._serving.generation

    @property
    def serving_model(self) -> ServingModel:
        """Snapshot of the published generation (immutable)."""
        return self._serving

    def hot_swap(
        self,
        network: Module,
        normalizer: DatasetNormalizer,
        config: Optional[MTLConfig] = None,
    ) -> int:
        """Atomically publish a new model generation; returns its number.

        The next :class:`ServingModel` is built completely before being
        published in one reference assignment, so there is no instant at which
        a request can observe a half-swapped engine: requests already past
        their snapshot finish on the old generation, requests entering after
        the assignment serve the new one, and nothing is dropped.  On success
        the health machinery is reset — a freshly promoted model must not
        inherit the previous model's open breaker or drift stream (trip
        counts are cumulative telemetry and survive the reset).
        """
        with self._swap_lock:
            incumbent = self._serving
            self._serving = ServingModel(
                network=network,
                normalizer=normalizer,
                config=config or getattr(network, "config", incumbent.config),
                generation=incumbent.generation + 1,
            )
            published = self._serving
        if self.breaker is not None:
            self.breaker.reset()
        if self.drift_monitor is not None:
            self.drift_monitor.reset()
        LOGGER.info(
            "%s: hot-swapped serving model to generation %d",
            self.case.name,
            published.generation,
        )
        return published.generation

    def adopt_artifact(self, path: Union[str, Path]) -> int:
        """Hot-swap to the model persisted in an artifact file.

        The artifact's case fingerprint and content checksum are verified
        *before* anything is published — a mismatched or corrupt artifact
        raises (:class:`~repro.engine.artifact.ArtifactMismatchError` /
        :class:`~repro.engine.artifact.ArtifactCorruptError`) with the
        incumbent generation untouched.  Returns the new generation.
        """
        from repro.engine.artifact import load_artifact

        candidate = load_artifact(
            path,
            self.case,
            opf_options=self.opf_options,
            opf_model=self.opf_model,
        )
        return self.hot_swap(candidate.network, candidate.normalizer, candidate.config)

    def drift_report(self) -> Optional[DriftReport]:
        """The drift monitor's current verdict (``None`` without a monitor)."""
        return None if self.drift_monitor is None else self.drift_monitor.report()

    # -------------------------------------------------------------- constructors
    @classmethod
    def from_trainer(
        cls,
        trainer: MTLTrainer,
        opf_options: Optional[OPFOptions] = None,
        fallback: Union[str, FallbackPolicy, None] = "cold_restart",
        microbatch: Optional[int] = None,
        breaker: Optional[CircuitBreaker] = None,
        drift_monitor: Optional[DriftMonitor] = None,
    ) -> "WarmStartEngine":
        """Build an engine that shares a trained :class:`MTLTrainer`'s state."""
        return cls(
            trainer.opf_model.case,
            trainer.network,
            trainer.normalizer,
            config=trainer.config,
            opf_options=opf_options,
            fallback=fallback,
            opf_model=trainer.opf_model,
            microbatch=microbatch,
            breaker=breaker,
            drift_monitor=drift_monitor,
        )

    # ---------------------------------------------------------------- inference
    def predict_physical(self, inputs_pu: np.ndarray) -> Dict[str, np.ndarray]:
        """Batched inference for raw p.u. load vectors; outputs in physical units.

        Row-deterministic: a row's prediction is bitwise identical whether it
        is served alone or inside a batch (see :func:`_predict_rows`).
        """
        return _predict_rows(self.network, self.normalizer, inputs_pu)

    def warm_starts_for(self, inputs_pu: np.ndarray) -> List[WarmStart]:
        """One forward pass over a batch of load vectors → one warm start per row."""
        return warm_starts_from_predictions(
            self.predict_physical(np.atleast_2d(inputs_pu)), self.opf_model
        )

    # ------------------------------------------------------------------ serving
    def fleet(self, n_workers: int = 1) -> SolverFleet:
        """The persistent solver fleet for ``n_workers`` (created on first use)."""
        fleet = self._fleets.get(n_workers)
        if fleet is None:
            fleet = SolverFleet(
                self.case,
                options=self.opf_options,
                n_workers=n_workers,
                fallback=self.fallback,
                model=self.opf_model if n_workers == 1 else None,
                microbatch=self.microbatch,
                faults=self.faults,
                crash_retries=self.crash_retries,
            )
            self._fleets[n_workers] = fleet
            LOGGER.info("%s: started solver fleet with %d worker(s)", self.case.name, n_workers)
        return fleet

    def serve(
        self,
        scenarios: ScenarioSet,
        n_workers: int = 1,
        deadline_seconds: Optional[object] = None,
        deadline: Optional[object] = None,
    ) -> SweepResult:
        """Serve a batch of scenarios: batched inference + fleet dispatch.

        ``deadline_seconds`` (relative wall budgets) and ``deadline``
        (absolute ``time.monotonic()`` deadlines) bound the request — each a
        scalar shared by every scenario or a per-scenario sequence
        (``inf``/``nan`` = unbounded), which is how the async batcher
        forwards the different budgets of coalesced requests.  Expired solves
        retire with ``timed_out`` outcomes instead of raising.  When the
        engine's :class:`~repro.engine.fallback.CircuitBreaker` is open, the
        request skips inference entirely and is served from the degraded
        (cold-start + fallback) path.  Faults injected via the engine's
        :class:`~repro.testing.faults.FaultPlan` never escape this method —
        they surface as structured failed outcomes in the sweep.

        The published :class:`ServingModel` is snapshotted once on entry, so
        a hot-swap concurrent with this request cannot produce a hybrid: the
        whole request is served by the generation recorded on the returned
        sweep's ``model_generation``.

        An empty request short-circuits to an empty sweep stamped with the
        live generation — it never reaches inference, the fleet or the
        health machinery.
        """
        serving = self._serving
        if len(scenarios) == 0:
            return SweepResult(
                case_name=self.case.name,
                n_workers=n_workers,
                model_generation=serving.generation,
            )
        degraded = self.breaker is not None and not self.breaker.allow_warm()
        if degraded:
            warm_starts = None
            LOGGER.info(
                "%s: circuit breaker open — serving %d scenario(s) on the degraded path",
                self.case.name,
                len(scenarios),
            )
        else:
            warm_starts = warm_starts_from_predictions(
                _predict_rows(
                    serving.network,
                    serving.normalizer,
                    np.atleast_2d(scenarios.feature_matrix(self.case.base_mva)),
                ),
                self.opf_model,
            )
        sweep = self.fleet(n_workers).solve(
            scenarios, warm_starts, deadline_seconds=deadline_seconds, deadline=deadline
        )
        sweep.model_generation = serving.generation
        # Feed health machinery in scenario order so both count-based state
        # machines are deterministic regardless of worker scheduling.  The
        # drift monitor sees every outcome first: trends surface on
        # ``drift_report()`` before the breaker has accumulated enough
        # realized fallbacks to trip.
        ordered = sorted(sweep.outcomes, key=lambda o: o.scenario_id)
        if self.drift_monitor is not None:
            for outcome in ordered:
                self.drift_monitor.observe_outcome(outcome)
        if self.breaker is not None:
            for outcome in ordered:
                self.breaker.record(outcome.used_fallback)
        return sweep

    def serve_loads(
        self,
        Pd_mw: np.ndarray,
        Qd_mvar: np.ndarray,
        n_workers: int = 1,
        deadline_seconds: Optional[object] = None,
        deadline: Optional[object] = None,
    ) -> SweepResult:
        """Serve raw per-bus load matrices (one row per scenario, MW/MVAr).

        Deadlines follow :meth:`serve` (scalar or one entry per row).  An
        empty load matrix (zero rows or a zero-size array) is a valid empty
        request and returns an empty generation-stamped sweep.
        """
        Pd_mw = np.asarray(Pd_mw, dtype=float)
        Qd_mvar = np.asarray(Qd_mvar, dtype=float)
        if Pd_mw.size == 0 and Qd_mvar.size == 0:
            return self.serve(
                ScenarioSet(self.case.name, [], n_bus=self.case.n_bus),
                n_workers=n_workers,
                deadline_seconds=deadline_seconds,
                deadline=deadline,
            )
        Pd_mw = np.atleast_2d(Pd_mw)
        Qd_mvar = np.atleast_2d(Qd_mvar)
        if Pd_mw.shape != Qd_mvar.shape:
            raise ValueError("Pd_mw and Qd_mvar must have matching shapes")
        # Row views into the validated matrices are enough: Scenario is frozen
        # and the rows are consumed within this call — copying every row just
        # doubled the request's allocation rate.
        scenarios = ScenarioSet(
            self.case.name,
            [Scenario(i, Pd_mw[i], Qd_mvar[i]) for i in range(Pd_mw.shape[0])],
            n_bus=self.case.n_bus,
        )
        return self.serve(
            scenarios,
            n_workers=n_workers,
            deadline_seconds=deadline_seconds,
            deadline=deadline,
        )

    def trajectory_fleet(self, n_workers: int = 1) -> SolverFleet:
        """The persistent solution-collecting fleet for trajectory serving.

        Separate from :meth:`fleet` because trajectory chaining needs every
        converged solve's primal/dual variables shipped back
        (``collect_solutions=True``), which ordinary serving deliberately
        avoids paying for.
        """
        fleet = self._trajectory_fleets.get(n_workers)
        if fleet is None:
            fleet = SolverFleet(
                self.case,
                options=self.opf_options,
                n_workers=n_workers,
                fallback=self.fallback,
                collect_solutions=True,
                model=self.opf_model if n_workers == 1 else None,
                microbatch=self.microbatch,
                faults=self.faults,
                crash_retries=self.crash_retries,
            )
            self._trajectory_fleets[n_workers] = fleet
            LOGGER.info(
                "%s: started trajectory fleet with %d worker(s)", self.case.name, n_workers
            )
        return fleet

    def serve_trajectory(
        self,
        steps: "Sequence[ScenarioSet]",
        n_workers: int = 1,
        warm_chain: bool = True,
        deadline_seconds: Optional[object] = None,
    ) -> "TrajectoryResult":
        """Serve a time-coupled multi-period trajectory with warm chaining.

        ``steps`` is the per-period scenario sets of one trajectory (equally
        sized — see :func:`repro.parallel.trajectory.trajectory_steps`).
        Step 0 is warm-started from batched MTL inference exactly like
        :meth:`serve`; every later step chains from its predecessor's
        converged solutions (primal + equality multipliers, with ``µ``/``Z``
        masked across topology changes) — the model predicts once, the
        trajectory's temporal locality does the rest.  ``warm_chain=False``
        serves every step from the model instead (the per-step baseline the
        benchmark compares against).

        The published :class:`ServingModel` is snapshotted once for the whole
        trajectory and stamped on every per-step sweep; the health machinery
        is fed per step in scenario order, like :meth:`serve`.
        """
        from repro.parallel.trajectory import MultiPeriodSweep, TrajectoryResult

        steps = list(steps)
        serving = self._serving
        if not steps:
            return TrajectoryResult(case_name=self.case.name)

        degraded = self.breaker is not None and not self.breaker.allow_warm()

        def model_warm_starts(step: ScenarioSet) -> Optional[List[WarmStart]]:
            if degraded or len(step) == 0:
                return None
            return warm_starts_from_predictions(
                _predict_rows(
                    serving.network,
                    serving.normalizer,
                    np.atleast_2d(step.feature_matrix(self.case.base_mva)),
                ),
                self.opf_model,
            )

        fleet = self.trajectory_fleet(n_workers)
        if warm_chain:
            driver = MultiPeriodSweep(fleet, warm_chain=True)
            result = driver.run(
                steps,
                initial_warm_starts=model_warm_starts(steps[0]),
                deadline_seconds=deadline_seconds,
            )
        else:
            # Per-step model serving: no chaining, every period predicted.
            result = TrajectoryResult(case_name=self.case.name)
            for t, step in enumerate(steps):
                sweep = fleet.solve(
                    step,
                    warm_starts=model_warm_starts(step),
                    deadline_seconds=deadline_seconds,
                )
                sweep.period = t
                result.steps.append(sweep)
        for sweep in result.steps:
            sweep.model_generation = serving.generation
            ordered = sorted(sweep.outcomes, key=lambda o: o.scenario_id)
            if self.drift_monitor is not None:
                for outcome in ordered:
                    self.drift_monitor.observe_outcome(outcome)
            if self.breaker is not None:
                for outcome in ordered:
                    self.breaker.record(outcome.used_fallback)
        return result

    # --------------------------------------------------------------- evaluation
    def evaluate(
        self,
        dataset: OPFDataset,
        max_problems: Optional[int] = None,
        n_workers: int = 1,
        deadline_seconds: Optional[object] = None,
        deadline: Optional[object] = None,
    ) -> OnlineEvaluation:
        """Warm-start every problem of ``dataset`` and aggregate the outcomes.

        Cold-start timings and iteration counts are taken from the dataset
        (they were measured while generating the ground truth), so the online
        phase only pays for inference plus the warm-started solve — exactly
        like the deployed system.  Inference is one batched forward pass; its
        wall-clock is attributed evenly across the records.
        """
        n = dataset.n_samples if max_problems is None else min(max_problems, dataset.n_samples)
        if n < 1:
            raise ValueError("dataset has no problems to evaluate")

        serving = self._serving
        t0 = time.perf_counter()
        warm_starts = warm_starts_from_predictions(
            _predict_rows(
                serving.network, serving.normalizer, np.atleast_2d(dataset.inputs[:n])
            ),
            self.opf_model,
        )
        inference_seconds = (time.perf_counter() - t0) / n

        scenarios = ScenarioSet(
            self.case.name,
            [Scenario(i, dataset.Pd_mw[i], dataset.Qd_mw[i]) for i in range(n)],
            n_bus=self.case.n_bus,
        )
        sweep = self.fleet(n_workers).solve(
            scenarios, warm_starts, deadline_seconds=deadline_seconds, deadline=deadline
        )
        sweep.model_generation = serving.generation

        evaluation = OnlineEvaluation(case_name=self.case.name)
        for outcome in sweep.outcomes:
            i = outcome.scenario_id
            # Outcomes arrive sorted by scenario id (the sweep sorts), so the
            # drift stream — and the per-record status snapshot — is
            # deterministic whatever the worker scheduling did.
            drift_status = "stationary"
            if self.drift_monitor is not None:
                self.drift_monitor.observe_outcome(outcome)
                drift_status = self.drift_monitor.status
            # Evaluation traffic drives the breaker exactly like serving
            # traffic (same scenario-id order), and each record snapshots the
            # trip count *after* its own outcome was observed — previously the
            # whole evaluation stamped a stale pre-sweep count and the breaker
            # never saw evaluate-path fallbacks at all.
            if self.breaker is not None:
                self.breaker.record(outcome.used_fallback)
            trips = 0 if self.breaker is None else self.breaker.trips
            evaluation.records.append(
                OnlineRecord(
                    scenario_id=i,
                    success=outcome.success,
                    used_fallback=outcome.used_fallback,
                    iterations_warm=outcome.iterations,
                    iterations_cold=float(dataset.iterations[i]),
                    inference_seconds=inference_seconds,
                    warm_solve_seconds=outcome.solve_seconds,
                    cold_solve_seconds=float(dataset.solve_seconds[i]),
                    cost_warm=outcome.objective,
                    cost_cold=float(dataset.objectives[i]),
                    fallback_success=outcome.fallback_success,
                    iterations_fallback=outcome.iterations_fallback,
                    fallback_solve_seconds=outcome.fallback_seconds,
                    cost_fallback=outcome.objective_fallback,
                    solver_phase_seconds=dict(outcome.phase_seconds),
                    retries=outcome.retries,
                    timed_out=outcome.timed_out,
                    fallback_trips=trips,
                    drift_status=drift_status,
                    model_generation=serving.generation,
                )
            )
        return evaluation

    # -------------------------------------------------------------- persistence
    def save_artifact(self, path: Union[str, Path]) -> Path:
        """Persist the engine (weights, normalizer, config, case fingerprint)."""
        from repro.engine.artifact import save_artifact

        return save_artifact(self, path)

    @staticmethod
    def load_artifact(
        path: Union[str, Path],
        case: Case,
        opf_options: Optional[OPFOptions] = None,
        fallback: object = PERSISTED_FALLBACK,
        opf_model: Optional[OPFModel] = None,
        microbatch: Optional[int] = None,
    ) -> "WarmStartEngine":
        """Reconstruct an engine previously written by :meth:`save_artifact`.

        ``fallback`` defaults to the policy persisted in the artifact; pass a
        name, a policy instance or ``None`` (no recovery) to override.
        """
        from repro.engine.artifact import load_artifact

        return load_artifact(
            path,
            case,
            opf_options=opf_options,
            fallback=fallback,
            opf_model=opf_model,
            microbatch=microbatch,
        )

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down every fleet this engine started (idempotent)."""
        for fleet in self._fleets.values():
            fleet.close()
        self._fleets.clear()
        for fleet in self._trajectory_fleets.values():
            fleet.close()
        self._trajectory_fleets.clear()

    def __enter__(self) -> "WarmStartEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
