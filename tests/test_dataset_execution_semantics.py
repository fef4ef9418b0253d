"""The lockstep-batch dataset default and its ``solve_seconds`` semantics.

``generate_dataset`` solves through the lockstep solver
(``execution="batch"``, the only accepted value).  The timing semantics:
``solve_seconds`` records each scenario's **additive wall share** — every
lockstep iteration's wall time split evenly over the scenarios active in it —
so values sum to the batch wall and stay directly comparable with the walls
of the scalar reference solver (``scalar_reference.solve_opf_scalar``).  The
Fig. 4 speedup ratio (``OnlineEvaluation.speedup``) consumes these as the
cold-MIPS reference, which makes reported speedups conservative: warm starts
are compared against the *batched* cold baseline.
These tests pin all of that behaviour.
"""

import inspect

import numpy as np
import pytest

from repro.core import SmartPGSimConfig
from repro.core.metrics import speedup_su
from repro.data import generate_dataset
from repro.engine.records import OnlineEvaluation, OnlineRecord
from repro.grid.perturb import sample_loads
from scalar_reference import solve_opf_scalar


def test_generate_dataset_defaults_to_batch_execution():
    signature = inspect.signature(generate_dataset)
    assert signature.parameters["execution"].default == "batch"


def test_smartpgsim_config_defaults_to_batch_and_validates():
    assert SmartPGSimConfig().execution == "batch"
    with pytest.raises(ValueError, match="execution"):
        SmartPGSimConfig(execution="warp")


def _scalar_reference(case, opf_model, n, seed):
    """Scalar-MIPS solves of the loads ``generate_dataset`` draws for ``seed``."""
    return [
        solve_opf_scalar(case, Pd_mw=sample.Pd, Qd_mvar=sample.Qd, model=opf_model)
        for sample in sample_loads(case, n, variation=0.1, seed=seed)
    ]


def test_default_dataset_equals_explicit_batch_and_scenario_trajectories(
    case9_fixture, opf_model9
):
    """The default is bit-identical to explicit batch mode, and reproduces the
    scalar per-scenario solver's trajectories (identical iteration counts,
    objectives to 1e-12) — the lockstep path changes timing, not data."""
    default = generate_dataset(case9_fixture, 6, seed=31, model=opf_model9)
    batch = generate_dataset(case9_fixture, 6, seed=31, model=opf_model9, execution="batch")
    scalar = _scalar_reference(case9_fixture, opf_model9, 6, seed=31)
    np.testing.assert_array_equal(default.iterations, batch.iterations)
    np.testing.assert_array_equal(default.objectives, batch.objectives)
    for task in default.targets:
        np.testing.assert_array_equal(default.targets[task], batch.targets[task])

    np.testing.assert_array_equal(default.iterations, [r.iterations for r in scalar])
    np.testing.assert_allclose(default.objectives, [r.objective for r in scalar], rtol=1e-12)
    for task in default.targets:
        values = [
            getattr(r, task) if task in ("lam", "z", "mu") else opf_model9.idx.split(r.x)[task]
            for r in scalar
        ]
        np.testing.assert_allclose(default.targets[task], np.vstack(values), atol=1e-7)


def test_batch_solve_seconds_are_additive_and_cheaper(case9_fixture, opf_model9):
    """Batch-mode ``solve_seconds`` are additive shares of the lockstep wall:
    their total stays well below the scalar solver's total (the whole point
    of the lockstep path), and every share is positive."""
    batch = generate_dataset(case9_fixture, 8, seed=7, model=opf_model9)
    scalar = _scalar_reference(case9_fixture, opf_model9, 8, seed=7)
    scalar_seconds = np.array([r.solve_seconds for r in scalar])
    assert np.all(batch.solve_seconds > 0.0)
    assert np.all(scalar_seconds > 0.0)
    # Identical trajectories solved lockstep must cost less in total wall —
    # the share semantics make this directly comparable (and additive).
    assert batch.solve_seconds.sum() < scalar_seconds.sum()


def test_fig4_speedup_consumes_cold_solve_seconds():
    """Pin the Fig. 4 ratio: ``OnlineEvaluation.speedup`` is Eqn. 10 evaluated
    on mean cold ``solve_seconds`` (now the batched cold share), mean
    inference seconds and the mean *successful* warm solve seconds."""
    records = [
        OnlineRecord(
            scenario_id=i,
            success=(i != 2),
            used_fallback=(i == 2),
            iterations_warm=3,
            iterations_cold=12.0,
            inference_seconds=0.001,
            warm_solve_seconds=0.010 + 0.002 * i,
            cold_solve_seconds=0.040 + 0.004 * i,
            cost_warm=100.0,
            cost_cold=100.0,
            fallback_success=(i == 2),
            iterations_fallback=12 if i == 2 else 0,
            fallback_solve_seconds=0.05 if i == 2 else 0.0,
        )
        for i in range(4)
    ]
    evaluation = OnlineEvaluation(case_name="pin", records=records)
    t_mips = float(np.mean([r.cold_solve_seconds for r in records]))
    t_mtl = float(np.mean([r.inference_seconds for r in records]))
    t_warm = float(np.mean([r.warm_solve_seconds for r in records if r.success]))
    expected = speedup_su(t_mips, t_mtl, t_warm, evaluation.success_rate)
    assert evaluation.speedup == pytest.approx(expected, rel=1e-12)
    # Shrinking the cold baseline (faster batched cold generation) shrinks the
    # reported speedup — the ratio is conservative by construction.
    cheaper_cold = OnlineEvaluation(
        case_name="pin",
        records=[
            OnlineRecord(
                scenario_id=r.scenario_id,
                success=r.success,
                used_fallback=r.used_fallback,
                iterations_warm=r.iterations_warm,
                iterations_cold=r.iterations_cold,
                inference_seconds=r.inference_seconds,
                warm_solve_seconds=r.warm_solve_seconds,
                cold_solve_seconds=r.cold_solve_seconds / 4.0,
                cost_warm=r.cost_warm,
                cost_cold=r.cost_cold,
                fallback_success=r.fallback_success,
                iterations_fallback=r.iterations_fallback,
                fallback_solve_seconds=r.fallback_solve_seconds,
            )
            for r in records
        ],
    )
    assert cheaper_cold.speedup < evaluation.speedup


def test_framework_batch_evaluation_end_to_end(trained_trainer9, dataset9):
    """Both sides batched: the engine evaluates a batch-generated dataset and
    the Fig. 4 inputs stay well-defined and positive."""
    from repro.engine.engine import WarmStartEngine

    with WarmStartEngine.from_trainer(trained_trainer9) as engine:
        evaluation = engine.evaluate(dataset9, max_problems=8)
    assert evaluation.n_problems == 8
    assert evaluation.speedup > 0.0
    assert 0.0 < evaluation.iteration_ratio <= 1.0
    for record in evaluation.records:
        assert record.cold_solve_seconds > 0.0
        assert record.warm_solve_seconds >= 0.0
