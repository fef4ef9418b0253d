"""Training-data containers and ground-truth generation.

The offline phase of Smart-PGSim samples load scenarios, solves each of them
with the exact MIPS solver and collects the converged primal/dual variables as
supervision targets.  :func:`generate_dataset` implements that collection over
the same lockstep fleet path the serving engine uses (cold starts, one
persistent solver worker per process) and :class:`OPFDataset` stores the
result as flat NumPy arrays (one row per scenario) ready for model training.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.grid.components import Case
from repro.grid.perturb import CorrelatedLoadSampler, iter_load_samples
from repro.opf.model import OPFModel, VariableIndex
from repro.opf.solver import OPFOptions
from repro.parallel.pool import SolverFleet, validate_solve_path
from repro.parallel.scenarios import Scenario, ScenarioSet
from repro.utils.logging import get_logger
from repro.utils.rng import RNGLike

LOGGER = get_logger("data")

#: Names of the seven prediction tasks, in canonical order.
TASK_NAMES: Tuple[str, ...] = ("Va", "Vm", "Pg", "Qg", "lam", "z", "mu")


@dataclass
class OPFDataset:
    """Supervised dataset for one test system.

    ``inputs`` holds the per-scenario feature vector ``[Pd, Qd]`` in p.u.
    (2·nb columns); ``targets`` maps each task name to an ``(n_samples, dim)``
    array of raw (un-normalised) solver values; ``objectives`` holds the
    ground-truth cost ``f0`` used by the cost-consistency physics loss, and
    ``iterations`` / ``solve_seconds`` record the cold-start solver effort so
    the evaluation can compute speedups without re-solving everything.
    """

    case_name: str
    inputs: np.ndarray
    targets: Dict[str, np.ndarray]
    objectives: np.ndarray
    iterations: np.ndarray
    solve_seconds: np.ndarray
    Pd_mw: np.ndarray
    Qd_mw: np.ndarray
    base_mva: float

    # --------------------------------------------------------------- basic API
    @property
    def n_samples(self) -> int:
        """Number of scenarios in the dataset."""
        return int(self.inputs.shape[0])

    @property
    def n_features(self) -> int:
        """Input dimensionality (2·nb)."""
        return int(self.inputs.shape[1])

    def task_dim(self, task: str) -> int:
        """Output dimensionality of ``task``."""
        return int(self.targets[task].shape[1])

    def subset(self, index: np.ndarray) -> "OPFDataset":
        """Row-indexed subset (used for train/validation splits)."""
        index = np.asarray(index)
        return OPFDataset(
            case_name=self.case_name,
            inputs=self.inputs[index],
            targets={k: v[index] for k, v in self.targets.items()},
            objectives=self.objectives[index],
            iterations=self.iterations[index],
            solve_seconds=self.solve_seconds[index],
            Pd_mw=self.Pd_mw[index],
            Qd_mw=self.Qd_mw[index],
            base_mva=self.base_mva,
        )

    def split(self, train_fraction: float = 0.8, seed: RNGLike = 0) -> Tuple["OPFDataset", "OPFDataset"]:
        """Shuffled train/validation split (default 80/20 as in the paper)."""
        if not 0 < train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.n_samples)
        n_train = int(round(train_fraction * self.n_samples))
        n_train = min(max(n_train, 1), self.n_samples - 1) if self.n_samples > 1 else 1
        return self.subset(perm[:n_train]), self.subset(perm[n_train:])

    def batches(self, batch_size: int, seed: RNGLike = None, shuffle: bool = True):
        """Yield row-index arrays forming mini-batches."""
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        order = np.arange(self.n_samples)
        if shuffle:
            np.random.default_rng(seed).shuffle(order)
        for start in range(0, self.n_samples, batch_size):
            yield order[start : start + batch_size]

    # ------------------------------------------------------------- persistence
    def save(self, path: Union[str, Path]) -> Path:
        """Write the dataset to an ``.npz`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "case_name": np.array(self.case_name),
            "inputs": self.inputs,
            "objectives": self.objectives,
            "iterations": self.iterations,
            "solve_seconds": self.solve_seconds,
            "Pd_mw": self.Pd_mw,
            "Qd_mw": self.Qd_mw,
            "base_mva": np.array(self.base_mva),
        }
        for task, values in self.targets.items():
            payload[f"target_{task}"] = values
        np.savez(path, **payload)
        return path

    @staticmethod
    def load(path: Union[str, Path]) -> "OPFDataset":
        """Read a dataset previously written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            targets = {
                key[len("target_") :]: data[key].copy()
                for key in data.files
                if key.startswith("target_")
            }
            return OPFDataset(
                case_name=str(data["case_name"]),
                inputs=data["inputs"].copy(),
                targets=targets,
                objectives=data["objectives"].copy(),
                iterations=data["iterations"].copy(),
                solve_seconds=data["solve_seconds"].copy(),
                Pd_mw=data["Pd_mw"].copy(),
                Qd_mw=data["Qd_mw"].copy(),
                base_mva=float(data["base_mva"]),
            )


def _batched(iterable, batch: int):
    """Chop any sample iterable into lists of at most ``batch`` items."""
    block: list = []
    for item in iterable:
        block.append(item)
        if len(block) == batch:
            yield block
            block = []
    if block:
        yield block


def generate_dataset(
    case: Case,
    n_samples: int,
    variation: float = 0.1,
    seed: RNGLike = 0,
    options: Optional[OPFOptions] = None,
    model: Optional[OPFModel] = None,
    drop_failures: bool = True,
    n_workers: int = 1,
    execution: str = "batch",
    schedule: str = "steal",
    microbatch: Optional[int] = None,
    sampler: Optional[CorrelatedLoadSampler] = None,
    stream_batch: Optional[int] = None,
) -> OPFDataset:
    """Generate ground-truth data by solving sampled scenarios with MIPS.

    The cold-start solves run through the same lockstep fleet path as the
    serving engine: ``n_workers=1`` solves in-process (reusing ``model`` when
    provided), larger counts distribute the scenarios over persistent solver
    workers, and every topology group is solved in lockstep (see
    :func:`repro.opf.batch.solve_opf_batch`).  Scenarios whose cold-start
    solve fails to converge are dropped (they are rare for the built-in cases
    at ±10 % load variation), matching the paper's use of converged solutions
    as supervision signal.  ``microbatch`` bounds the fleet's micro-batch
    size; ``execution`` and ``schedule`` accept only ``"batch"`` and
    ``"steal"``.

    **Timing semantics.**  ``solve_seconds`` records each scenario's
    *additive wall share* of its solve: every lockstep iteration's wall time
    is split evenly over the scenarios active in it, so the values sum to the
    lockstep wall.  The Fig. 4 speedup ratios consume these as the cold-MIPS
    reference, which makes the reported speedups *conservative*: warm starts
    are measured against the batched cold baseline rather than a slower
    one-at-a-time loop.

    **Stochastic streams.**  ``sampler`` swaps the paper's independent
    per-bus draws for spatially-correlated ones
    (:class:`~repro.grid.perturb.CorrelatedLoadSampler`), and ``stream_batch``
    feeds the sweep in bounded batches through one persistent fleet instead of
    materialising every load array up front — the load-side memory footprint
    becomes ``O(stream_batch)``, not ``O(n_samples)``.  Sampler draws are
    keyed per scenario and lockstep rows are independent bit for bit, so the
    generated dataset is bit-identical for any ``stream_batch`` (including
    the unbatched default, one block of ``n_samples``).
    """
    options = options or OPFOptions()
    validate_solve_path(execution, schedule)
    if stream_batch is not None and stream_batch < 1:
        raise ValueError("stream_batch must be positive")
    if sampler is not None and sampler.case.n_bus != case.n_bus:
        raise ValueError(
            f"sampler was built for a {sampler.case.n_bus}-bus case, "
            f"got {case.n_bus} buses"
        )

    idx = model.idx if model is not None else VariableIndex(nb=case.n_bus, ng=case.n_gen)
    rows_in, pd_rows, qd_rows = [], [], []
    rows_targets: Dict[str, list] = {task: [] for task in TASK_NAMES}
    objectives, iterations, seconds = [], [], []

    def collect(samples, outcomes) -> None:
        for sample, outcome in zip(samples, outcomes):
            if not outcome.success:
                LOGGER.warning("scenario %d failed to converge; %s", sample.scenario_id,
                               "dropping" if drop_failures else "keeping")
                if drop_failures:
                    continue
            solution = outcome.solution
            assert solution is not None
            parts = idx.split(solution.x)
            rows_in.append(sample.feature_vector() / case.base_mva)
            for task in ("Va", "Vm", "Pg", "Qg"):
                rows_targets[task].append(parts[task].copy())
            rows_targets["lam"].append(solution.lam)
            rows_targets["z"].append(solution.z)
            rows_targets["mu"].append(solution.mu)
            objectives.append(outcome.objective)
            iterations.append(outcome.iterations)
            seconds.append(outcome.solve_seconds)
            pd_rows.append(sample.Pd)
            qd_rows.append(sample.Qd)

    batch = stream_batch if stream_batch is not None else max(int(n_samples), 1)
    if sampler is not None:
        if not (seed is None or isinstance(seed, (int, np.integer))):
            raise ValueError(
                "the correlated-sampler path needs an integer (or None) "
                "seed — per-scenario draws are keyed on it"
            )
        blocks = sampler.stream(n_samples, batch, seed=None if seed is None else int(seed))
    else:
        blocks = _batched(
            iter_load_samples(case, n_samples, variation=variation, seed=seed), batch
        )
    with SolverFleet(
        case,
        options=options,
        n_workers=n_workers,
        collect_solutions=True,
        model=model if n_workers == 1 else None,
        microbatch=microbatch,
    ) as fleet:
        for block in blocks:
            scenario_set = ScenarioSet(
                case.name,
                [Scenario(s.scenario_id, s.Pd, s.Qd) for s in block],
                n_bus=case.n_bus,
            )
            collect(block, fleet.solve(scenario_set).outcomes)

    if not rows_in:
        raise RuntimeError(f"no scenario of {case.name} converged; cannot build a dataset")

    return OPFDataset(
        case_name=case.name,
        inputs=np.vstack(rows_in),
        targets={task: np.vstack(rows) for task, rows in rows_targets.items()},
        objectives=np.asarray(objectives, dtype=float),
        iterations=np.asarray(iterations, dtype=float),
        solve_seconds=np.asarray(seconds, dtype=float),
        Pd_mw=np.vstack(pd_rows),
        Qd_mw=np.vstack(qd_rows),
        base_mva=case.base_mva,
    )
