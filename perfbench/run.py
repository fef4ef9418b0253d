#!/usr/bin/env python3
"""The repository benchmark: three workloads, end to end or traced per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-118 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--workload all`` runs the three workloads one after another, each in its
own process (peak RSS is per process), and ends with a combined JSON line.
``BENCHMARK.json`` declares ``sweep-118`` and ``stream-14`` only:
``screen-14-n2`` keeps both cores and the parent busy, so on a shared 2-vCPU
VM its run-to-run spread followed the neighbours' load past the 0.25 bound.

``--trace 0`` measures with tracing off and reports the end-to-end metrics;
``--trace 1`` wraps the library's public calls in spans, reports the
per-layer metrics and writes the spans as JSON lines under
``perfbench/results/``.  Both modes check the program's outputs.  The report
goes to stdout; its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads, metric names, units and
directions are listed in ``BENCHMARK.json`` at the checkout root.  The
``BENCH_pr*.json`` files beside it are historical: this benchmark neither
reads nor compares against them.
"""

import os

#: BLAS threads are pinned before NumPy loads; spawned fleet workers inherit
#: the setting, so the process and thread count stays within the two cores
#: the workloads are sized for.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("sweep-118", "stream-14", "screen-14-n2")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(traced: bool):
    return [m["name"] for m in spec()["per_layer" if traced else "end_to_end"]]


def run_all(args) -> int:
    """Every workload in its own child process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def finite(value: float) -> float:
    """JSON has no infinity: a latency that includes a missed request reads 1e9."""
    return value if math.isfinite(value) else 1e9


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, WRONG_GAP_FACTOR, Metric

    traced = bool(args.trace)
    names = declared_metrics(traced)
    result = WORKLOADS[args.workload](args.seed, args.seconds, traced)
    metrics = result.layers if traced else result.end_to_end
    missing = [name for name in names if name not in metrics]
    if missing:
        print(f"perfbench: workload did not measure {missing}", file=sys.stderr)
        return 3

    mode = "traced, per layer" if traced else "untraced, end to end"
    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g} s  ({mode})")
    print("   launch env: " + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()))
    print(f"   {'metric':<40} {'value':>12} {'unit':<6} {'n':>6} {'spread':>8}  note")
    # Metrics the workload measures beyond the declared ones are printed
    # too, but they are not in the JSON line: a rate of zero failures or a
    # discrete ladder step cannot carry a relative bound.
    rows = [(name, metrics[name], "") for name in names]
    if not traced:
        rows += [(name, m, "not gated; ") for name, m in metrics.items() if name not in names]
        fail_rate = result.failed / result.attempted if result.attempted else float("nan")
        rows.append(
            ("fail_rate", Metric(fail_rate, "ratio", result.attempted), "not gated; JSON failed/attempted")
        )
    for name, m, prefix in rows:
        print(f"   {name:<40} {m.value:>12.4f} {m.unit:<6} {m.samples:>6} {m.spread:>8.3f}  {prefix}{m.note}")
    print(
        f"   {result.failed} of {result.attempted} operations failed; "
        f"correctness-check failures {result.check_failures}; "
        f"unconverged but cold-unsolvable too {result.cold_unsolved}"
    )
    if result.max_gap:
        print(
            f"   warm/cold objective gap: max {result.max_gap:.3g}, {result.gaps_over_costtol} over costtol "
            f"(counted failed; wrong only beyond {WRONG_GAP_FACTOR:g} x costtol)"
        )
    for line in result.lines:
        print("   " + line)
    if result.tracer is not None:
        out = ROOT / "perfbench" / "results" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        result.tracer.write_jsonl(out)
        print(f"   spans: {len(result.tracer.spans)} written to {out.relative_to(ROOT)}")

    print(
        json.dumps(
            {
                "correct": result.check_failures == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": finite(metrics[name].value), "unit": metrics[name].unit}
                    for name in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
