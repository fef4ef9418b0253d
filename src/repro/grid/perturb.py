"""Load-scenario sampling.

The paper samples every bus load uniformly at random within ``±t`` of its
nominal value (``t = 10 %``), consistent with prior AC-OPF learning work, and
feeds the sampled problems to the solver to build training data.  This module
implements that sampling plus the structured variants the scenario universe
needs: correlated system-wide scaling, per-area stress, spatially-correlated
stochastic streams (:class:`CorrelatedLoadSampler` — a diffusion kernel over
the network graph, Cholesky-factored) and time-coupled multi-period load
trajectories (:func:`sample_load_trajectory` — a daily profile with smooth
per-bus jitter, built so consecutive steps stay close enough for step-to-step
warm starting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.grid.components import Case
from repro.utils.rng import RNGLike, derive_seed, ensure_rng


@dataclass(frozen=True)
class LoadSample:
    """One sampled load scenario (MW / MVAr per bus)."""

    Pd: np.ndarray
    Qd: np.ndarray
    scenario_id: int = 0

    def apply(self, case: Case) -> Case:
        """Return a copy of ``case`` with this scenario's loads installed."""
        return case.with_loads(self.Pd, self.Qd, name=f"{case.name}#s{self.scenario_id}")

    def feature_vector(self) -> np.ndarray:
        """Concatenated ``[Pd, Qd]`` vector — the MTL model input (Section VI-C)."""
        return np.concatenate([self.Pd, self.Qd])


def sample_loads(
    case: Case,
    n_samples: int,
    variation: float = 0.1,
    seed: RNGLike = None,
) -> List[LoadSample]:
    """Sample ``n_samples`` independent ±``variation`` uniform load scenarios.

    Each bus load is drawn uniformly from ``[(1 - t) * Pd_i, (1 + t) * Pd_i]``
    (and likewise for ``Qd``), matching the paper's load-sampling protocol.
    Buses with zero nominal load stay at zero.
    """
    return list(iter_load_samples(case, n_samples, variation=variation, seed=seed))


def iter_load_samples(
    case: Case,
    n_samples: int,
    variation: float = 0.1,
    seed: RNGLike = None,
) -> Iterator[LoadSample]:
    """Iterator version of :func:`sample_loads` (constant memory).

    The arguments are validated on the call, not on the first draw.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    if variation < 0:
        raise ValueError("variation must be non-negative")
    rng = ensure_rng(seed)
    Pd0, Qd0 = case.bus.Pd, case.bus.Qd

    def draws() -> Iterator[LoadSample]:
        for i in range(n_samples):
            fp = rng.uniform(1.0 - variation, 1.0 + variation, size=case.n_bus)
            fq = rng.uniform(1.0 - variation, 1.0 + variation, size=case.n_bus)
            yield LoadSample(Pd=Pd0 * fp, Qd=Qd0 * fq, scenario_id=i)

    return draws()


def scaled_load(case: Case, factor: float, scenario_id: int = 0) -> LoadSample:
    """System-wide correlated scaling of all loads by ``factor``."""
    if factor < 0:
        raise ValueError("factor must be non-negative")
    return LoadSample(
        Pd=case.bus.Pd * factor, Qd=case.bus.Qd * factor, scenario_id=scenario_id
    )


def stressed_area_load(
    case: Case,
    area: int,
    factor: float,
    scenario_id: int = 0,
    background_factor: float = 1.0,
) -> LoadSample:
    """Scale loads inside one area by ``factor`` and the rest by ``background_factor``.

    Models a localised demand surge — a scenario class the SC-ACOPF discussion
    in Section VIII-E motivates.
    """
    mask = case.bus.area == area
    if not np.any(mask):
        raise ValueError(f"case has no buses in area {area}")
    fp = np.where(mask, factor, background_factor)
    return LoadSample(Pd=case.bus.Pd * fp, Qd=case.bus.Qd * fp, scenario_id=scenario_id)


def nominal_load(case: Case) -> LoadSample:
    """The unperturbed nominal scenario."""
    return LoadSample(Pd=case.bus.Pd.copy(), Qd=case.bus.Qd.copy(), scenario_id=-1)


# ------------------------------------------------------- stochastic streams
class CorrelatedLoadSampler:
    """Spatially-correlated stochastic load sampling over the network graph.

    Independent per-bus draws ignore that demand moves together across a
    neighbourhood (weather, industry shifts).  This sampler draws load factors
    from a **diffusion kernel** on the case's live branch graph: with ``L``
    the graph Laplacian and eigendecomposition ``L = U Λ Uᵀ``, the kernel
    ``K = U exp(-β Λ) Uᵀ`` (diagonal-normalised, plus a small nugget) is
    positive semi-definite *by construction* — electrically close buses get
    strongly correlated factors, far ones nearly independent, and ``β``
    tunes the correlation length.  ``K``'s Cholesky factor turns i.i.d.
    normals into correlated fields; factors are bounded to ``1 ± variation``
    through ``tanh`` so a rare deep draw cannot push a load negative.

    Draws are **bit-reproducible per scenario**: scenario ``i`` uses its own
    generator derived from ``(seed, i)``, so a stream chopped into batches of
    any size yields identical samples (the property the streamed
    ``generate_dataset`` path relies on).
    """

    def __init__(
        self,
        case: Case,
        variation: float = 0.1,
        beta: float = 1.0,
        nugget: float = 1e-6,
    ):
        if variation < 0:
            raise ValueError("variation must be non-negative")
        if beta < 0:
            raise ValueError("beta must be non-negative")
        if nugget <= 0:
            raise ValueError("nugget must be positive")
        self.case = case
        self.variation = float(variation)
        self.beta = float(beta)

        f, t = case.branch_bus_indices()
        live = case.branch.status > 0
        n = case.n_bus
        adjacency = np.zeros((n, n))
        for a, b in zip(f[live], t[live]):
            if a != b:
                adjacency[a, b] = adjacency[b, a] = 1.0
        laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
        eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
        kernel = (eigenvectors * np.exp(-self.beta * eigenvalues)) @ eigenvectors.T
        scale = np.sqrt(np.clip(np.diag(kernel), nugget, None))
        kernel = kernel / np.outer(scale, scale)
        self.kernel = kernel + nugget * np.eye(n)
        self._chol = np.linalg.cholesky(self.kernel)

    def _factors(self, rng: np.random.Generator) -> np.ndarray:
        """One bounded correlated factor field: ``1 + variation·tanh(C z)``."""
        return 1.0 + self.variation * np.tanh(self._chol @ rng.standard_normal(self.case.n_bus))

    def sample_one(self, scenario_id: int, seed: Optional[int] = None) -> LoadSample:
        """Draw scenario ``scenario_id`` of the stream seeded by ``seed``."""
        rng = ensure_rng(derive_seed(seed, scenario_id))
        fp, fq = self._factors(rng), self._factors(rng)
        return LoadSample(
            Pd=self.case.bus.Pd * fp, Qd=self.case.bus.Qd * fq, scenario_id=scenario_id
        )

    def sample(
        self, n_samples: int, seed: Optional[int] = None, start: int = 0
    ) -> List[LoadSample]:
        """Scenarios ``start .. start + n_samples`` of the stream."""
        if n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        return [self.sample_one(start + i, seed=seed) for i in range(n_samples)]

    def stream(
        self, n_samples: int, batch: int, seed: Optional[int] = None
    ) -> Iterator[List[LoadSample]]:
        """Yield the stream in bounded batches (``≤ batch`` samples each).

        Because draws are keyed per scenario, the concatenation of any batch
        chopping equals :meth:`sample` of the whole stream bit for bit.
        """
        if batch < 1:
            raise ValueError("batch must be positive")
        for start in range(0, max(n_samples, 0), batch):
            yield self.sample(min(batch, n_samples - start), seed=seed, start=start)


# ----------------------------------------------------- multi-period trajectories
def sample_load_trajectory(
    case: Case,
    n_steps: int = 24,
    amplitude: float = 0.15,
    variation: float = 0.03,
    period: int = 24,
    seed: RNGLike = None,
) -> List[LoadSample]:
    """A time-coupled ``n_steps``-step load trajectory (one sample per step).

    Step ``t`` scales the nominal loads by a shared daily profile
    ``1 + amplitude · sin(2π t / period − π/2)`` (trough at ``t = 0``, peak at
    mid-period) times a smooth per-bus jitter: an AR(1) random walk
    (``ρ = 0.8``) squashed through ``tanh`` into ``1 ± variation``.  The
    result drifts — consecutive steps differ by a few percent, exactly the
    regime where chaining step ``t``'s solution as step ``t+1``'s warm start
    pays — rather than jumping independently like :func:`sample_loads`.
    ``scenario_id`` is the step index.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    if period < 1:
        raise ValueError("period must be positive")
    if amplitude < 0 or variation < 0:
        raise ValueError("amplitude and variation must be non-negative")
    rng = ensure_rng(seed)
    Pd0, Qd0 = case.bus.Pd, case.bus.Qd
    rho = 0.8
    noise_p = rng.standard_normal(case.n_bus)
    noise_q = rng.standard_normal(case.n_bus)
    steps = []
    for t in range(n_steps):
        profile = 1.0 + amplitude * np.sin(2.0 * np.pi * t / period - np.pi / 2.0)
        if t > 0:
            innovation = np.sqrt(1.0 - rho**2)
            noise_p = rho * noise_p + innovation * rng.standard_normal(case.n_bus)
            noise_q = rho * noise_q + innovation * rng.standard_normal(case.n_bus)
        fp = profile * (1.0 + variation * np.tanh(noise_p))
        fq = profile * (1.0 + variation * np.tanh(noise_q))
        steps.append(LoadSample(Pd=Pd0 * fp, Qd=Qd0 * fq, scenario_id=t))
    return steps
