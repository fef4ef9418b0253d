#!/usr/bin/env python3
"""Deploying Smart-PGSim: persist a trained engine, reload it, serve a batch.

The offline phase (ground-truth generation + MTL training) happens once; a
deployed system then serves load scenarios from the saved artifact without
ever retraining.  This example walks the full deployment loop:

1. train a small pipeline on the WSCC 9-bus system and wrap it in a
   ``WarmStartEngine``,
2. ``save_artifact`` → one ``.npz`` bundling model weights, normalizer
   statistics, configuration and the case fingerprint,
3. ``load_artifact`` → a fresh engine reconstructed from disk (bit-identical
   predictions, no retraining),
4. serve a batch of scenarios: one batched MTL forward pass produces the warm
   starts, the solver fleet dispatches the MIPS solves, and the configured
   fallback policy recovers any failure,
5. show that loading the artifact against the *wrong* grid is rejected.

Run with ``python examples/serving_engine.py``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import SmartPGSim, SmartPGSimConfig
from repro.engine import ArtifactMismatchError, load_artifact
from repro.grid import get_case
from repro.mtl import fast_config
from repro.parallel import generate_scenarios


def main() -> None:
    case = get_case("case9")

    # ------------------------------------------------------------ offline phase
    print("Offline: generating ground truth and training the MTL model...")
    framework = SmartPGSim(
        case,
        SmartPGSimConfig(n_samples=40, mtl=fast_config(epochs=25), seed=7),
    )
    framework.offline()
    engine = framework.engine

    # -------------------------------------------------------------- persistence
    artifact_dir = Path(tempfile.mkdtemp(prefix="smart_pgsim_"))
    artifact_path = engine.save_artifact(artifact_dir / "engine_case9.npz")
    size_kb = artifact_path.stat().st_size / 1024
    print(f"\nSaved engine artifact to {artifact_path} ({size_kb:.0f} KiB)")

    # A deployment reconstructs the engine from disk — no dataset, no training.
    # Each request batch is advanced through the interior-point iterations in
    # lockstep per topology group (vectorised evaluation/assembly,
    # per-scenario factorisation only), fallback recoveries included.
    served = load_artifact(artifact_path, case, fallback="relaxed_warm")
    probe = framework.artifacts.validation_set.inputs
    identical = all(
        np.array_equal(a, b)
        for a, b in zip(
            engine.predict_physical(probe).values(),
            served.predict_physical(probe).values(),
        )
    )
    print(f"Reloaded engine reproduces predictions bit-for-bit: {identical}")
    print(f"Fallback policy for this deployment: {served.fallback.name}")

    # ----------------------------------------------------------------- serving
    print("\nServing a batch of 12 scenarios (2 with N-1 branch outages)...")
    scenarios = generate_scenarios(case, 12, variation=0.1, contingency_fraction=0.15, seed=99)
    with served:
        sweep = served.serve(scenarios, n_workers=1)
    print(f"  throughput      : {sweep.throughput:.1f} scenarios/s")
    print(f"  warm-start SR   : {100 * sweep.warm_success_rate:.0f} %")
    print(f"  converged (all) : {100 * sweep.success_rate:.0f} %")
    print(f"  fallback used   : {100 * sweep.fallback_rate:.0f} % of scenarios")
    print(f"{'id':>4} {'iters':>6} {'fallback':>9} {'objective $/h':>14}")
    for outcome in sweep.outcomes:
        print(
            f"{outcome.scenario_id:>4} {outcome.final_iterations:>6} "
            f"{'yes' if outcome.used_fallback else 'no':>9} {outcome.final_objective:>14.2f}"
        )

    # ----------------------------------------------------- fingerprint guarding
    print("\nLoading the artifact against the wrong grid is rejected:")
    try:
        load_artifact(artifact_path, get_case("case14"))
    except ArtifactMismatchError as exc:
        print(f"  ArtifactMismatchError: {exc}")


if __name__ == "__main__":
    main()
