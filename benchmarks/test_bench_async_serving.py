"""Async serving front-end — coalesced dynamic batching vs per-request serves.

A request stream of small (1–3 scenario) requests is served two ways on the
same warm engine:

* **sequential** — one blocking ``engine.serve`` per request, back to back:
  the service a caller gets without the async tier (every request pays its
  own dispatch and a tiny lockstep window);
* **async batched** — all requests submitted concurrently to the
  :class:`~repro.serving.server.AsyncServer`, whose deadline-aware batcher
  coalesces them into a few wide flushes (one batched inference + one
  lockstep window each).

Per-request latency (p50/p99) and scenario throughput are recorded for both
paths.  Bitwise parity between the async-batched results and the direct
per-request serves is asserted on every machine — it is the core invariant
the batcher's canonical-width inference and row-independent lockstep provide.
The throughput floor (async ≥ sequential) needs a quiet machine, so it is
only enforced under ``REPRO_BENCH_STRICT=1``; the measured numbers are always
recorded in the session perf JSON.
"""

import asyncio
import os
import time

import numpy as np
import pytest

from repro.engine import WarmStartEngine
from repro.parallel import ScenarioSet, generate_scenarios
from repro.serving import AsyncServer

STRICT = os.environ.get("REPRO_BENCH_STRICT", "") == "1"
#: Sizes of the request stream (cycled): small interactive-style requests.
REQUEST_SIZES = (1, 2, 3) * 4
#: Best-of-N repeats for both paths (wall-clock ratios flake on shared runners).
REPEATS = 3


@pytest.fixture(scope="module")
def serving_engine9(framework9):
    """Batched steal-schedule engine over the session's trained case9 model."""
    engine = WarmStartEngine.from_trainer(
        framework9.artifacts.trainer
    )
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def request_stream9(framework9):
    """The request stream: per-request ScenarioSets cut from one seeded sweep."""
    case = framework9.case
    scenarios = generate_scenarios(case, sum(REQUEST_SIZES), variation=0.05, seed=51)
    requests = []
    cursor = 0
    for size in REQUEST_SIZES:
        rows = list(scenarios.scenarios)[cursor : cursor + size]
        requests.append(ScenarioSet(case.name, rows))
        cursor += size
    return requests


def _assert_bitwise_equal(sweep_a, sweep_b):
    assert sweep_a.n_scenarios == sweep_b.n_scenarios
    for a, b in zip(sweep_a.outcomes, sweep_b.outcomes):
        assert a.scenario_id == b.scenario_id
        assert a.success == b.success
        assert a.iterations == b.iterations
        assert a.objective == b.objective  # bitwise, not approx
        assert a.used_fallback == b.used_fallback
        assert a.timed_out == b.timed_out


def _serve_sequential(engine, requests):
    """Per-request blocking serves; returns (sweeps, per-request latencies, wall)."""
    sweeps, latencies = [], []
    t0 = time.perf_counter()
    for request in requests:
        t_req = time.perf_counter()
        sweeps.append(engine.serve(request, deadline_seconds=60.0))
        latencies.append(time.perf_counter() - t_req)
    return sweeps, latencies, time.perf_counter() - t0


def _serve_async(engine, requests, max_batch=16, max_wait_seconds=0.005):
    """Concurrent submits through the dynamic batcher; latencies per request."""

    async def run():
        server = AsyncServer(
            engine, max_batch=max_batch, max_wait_seconds=max_wait_seconds
        )
        await server.start()
        try:
            t0 = time.perf_counter()

            async def one(request):
                t_req = time.perf_counter()
                sweep = await server.submit(request, deadline_seconds=60.0)
                return sweep, time.perf_counter() - t_req

            pairs = await asyncio.gather(*(one(r) for r in requests))
            wall = time.perf_counter() - t0
        finally:
            await server.stop()
        sweeps = [sweep for sweep, _ in pairs]
        latencies = [latency for _, latency in pairs]
        return sweeps, latencies, wall, server.stats

    return asyncio.run(run())


def test_bench_async_dynamic_batcher(benchmark, serving_engine9, request_stream9, perf_recorder):
    engine = serving_engine9
    requests = request_stream9
    n_scenarios = sum(len(r) for r in requests)

    # Spawn the fleet and build the batched models outside every timing.
    engine.serve(requests[0])

    seq_sweeps, seq_latencies, seq_wall = _serve_sequential(engine, requests)
    for _ in range(REPEATS - 1):
        again_sweeps, again_latencies, again_wall = _serve_sequential(engine, requests)
        if again_wall < seq_wall:
            seq_sweeps, seq_latencies, seq_wall = again_sweeps, again_latencies, again_wall

    async_sweeps, async_latencies, async_wall, stats = benchmark.pedantic(
        lambda: _serve_async(engine, requests), rounds=1, iterations=1
    )
    for _ in range(REPEATS - 1):
        again = _serve_async(engine, requests)
        if again[2] < async_wall:
            async_sweeps, async_latencies, async_wall, stats = again

    # Bitwise parity on any machine: riding a coalesced flush must not change
    # a request's results relative to serving it alone.
    for async_sweep, seq_sweep in zip(async_sweeps, seq_sweeps):
        _assert_bitwise_equal(async_sweep, seq_sweep)
    assert stats.admitted_requests == len(requests)
    assert stats.served_scenarios == n_scenarios
    assert stats.flushes < len(requests), "batcher never coalesced anything"

    def quantiles(latencies):
        return (
            float(np.percentile(latencies, 50)) * 1e3,
            float(np.percentile(latencies, 99)) * 1e3,
        )

    seq_p50_ms, seq_p99_ms = quantiles(seq_latencies)
    async_p50_ms, async_p99_ms = quantiles(async_latencies)
    seq_scen_per_s = n_scenarios / seq_wall
    async_scen_per_s = n_scenarios / async_wall
    speedup = async_scen_per_s / seq_scen_per_s

    benchmark.extra_info.update(
        {
            "sequential_wall_seconds": seq_wall,
            "async_wall_seconds": async_wall,
            "sequential_scen_per_s": seq_scen_per_s,
            "async_scen_per_s": async_scen_per_s,
            "async_speedup": speedup,
            "async_p50_ms": async_p50_ms,
            "async_p99_ms": async_p99_ms,
            "flushes": stats.flushes,
            "widest_flush": stats.widest_flush,
        }
    )
    perf_recorder(
        "async_serving",
        case="case9",
        n_requests=len(requests),
        n_scenarios=n_scenarios,
        sequential_wall_seconds=seq_wall,
        async_wall_seconds=async_wall,
        sequential_scen_per_s=seq_scen_per_s,
        async_scen_per_s=async_scen_per_s,
        async_speedup=speedup,
        sequential_p50_ms=seq_p50_ms,
        sequential_p99_ms=seq_p99_ms,
        async_p50_ms=async_p50_ms,
        async_p99_ms=async_p99_ms,
        flushes=stats.flushes,
        widest_flush=stats.widest_flush,
    )
    print(
        f"\nAsync serving (case9, {len(requests)} requests / {n_scenarios} scenarios): "
        f"sequential {seq_scen_per_s:.1f} scen/s (p50 {seq_p50_ms:.1f} ms, "
        f"p99 {seq_p99_ms:.1f} ms), async {async_scen_per_s:.1f} scen/s "
        f"(p50 {async_p50_ms:.1f} ms, p99 {async_p99_ms:.1f} ms), "
        f"{stats.flushes} flush(es), widest {stats.widest_flush}, "
        f"speedup {speedup:.2f}x"
    )

    assert async_scen_per_s > 0 and seq_scen_per_s > 0
    if STRICT:
        assert speedup >= 1.0, (
            f"async batched throughput {async_scen_per_s:.1f} scen/s fell below "
            f"the sequential per-request floor {seq_scen_per_s:.1f} scen/s"
        )


def test_bench_async_overload_shedding(serving_engine9, request_stream9, perf_recorder):
    """Backpressure under a burst beyond the admission queue: typed rejects,
    admitted requests still bitwise-faithful, shedding is deterministic."""
    from repro.serving import OverloadedError

    engine = serving_engine9
    requests = request_stream9
    max_queue = sum(len(r) for r in requests) // 2

    async def run():
        server = AsyncServer(engine, max_batch=16, max_wait_seconds=0.005, max_queue=max_queue)
        await server.start()
        try:
            results = await asyncio.gather(
                *(server.submit(request) for request in requests),
                return_exceptions=True,
            )
        finally:
            await server.stop()
        return results, server.stats

    results, stats = asyncio.run(run())
    for result in results:
        assert not isinstance(result, Exception) or isinstance(result, OverloadedError)
    served = [r for r in results if not isinstance(r, Exception)]
    # The burst lands before the batcher's first flush, so admission is pure
    # FIFO against the queue bound: the counters must reconcile, at least one
    # request is shed, and the admitted ones are served in full.
    assert stats.rejected_requests > 0
    assert stats.admitted_requests == len(served)
    assert stats.admitted_requests + stats.rejected_requests == len(requests)
    for sweep, request in zip(
        served, [r for r, out in zip(requests, results) if not isinstance(out, Exception)]
    ):
        assert sweep.n_scenarios == len(request)
    perf_recorder(
        "async_serving",
        overload_admitted=stats.admitted_requests,
        overload_rejected=stats.rejected_requests,
        overload_queue_bound=max_queue,
    )
