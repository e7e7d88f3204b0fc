"""Perf-regression benchmarks: scheduler decisions and batch fan-out.

Unlike the paper-figure benches, these two measure the optimisation
targets of the compiled-trace work directly and persist their numbers to
``benchmarks/output/BENCH_perf.current.json``. The committed baseline at
the repo root (``BENCH_perf.json``) is what
``tools/check_bench_regression.py`` compares against in CI; refresh it
by copying the current file after an intentional perf change.

* ``test_bench_decision_queries_compiled_vs_naive`` replays a realistic
  scheduler interrogation mix (crossing lookups + window aggregates) on a
  month-long trace through both the compiled plan and the ``naive_*``
  oracles in interleaved rounds, asserting the >= 3x acceptance-criterion
  speedup on the median per-round ratio.
* ``test_bench_batch_sweep_64_pooled_vs_serial`` times a 64-run policy
  sweep (32 proactive variants x 2 seeds) serially and at ``jobs=4``,
  where the parent publishes each of the 2 catalogs once as a segment
  directory and fans out per run; the pooled wall-clock
  (``batch_sweep_64_shm_s``) is the gated number.
* ``test_bench_batch_sweep_64_vector_vs_event`` times the same 64-run
  sweep serially through both execution engines and asserts the vector
  engine's speedup; ``test_bench_frontier_sweep_10k`` scales it to a
  10k-run frontier sweep (slow lane) with an under-a-minute budget.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.bidding import ProactiveBidding
from repro.runtime import RunSpec, StrategySpec, TraceCatalogCache, run_batch
from repro.traces.calibration import calibration_for
from repro.traces.catalog import MarketKey
from repro.traces.generator import generate_trace
from repro.traces.trace import PriceTrace
from repro.units import days, hours

REGION = "us-east-1a"
CURRENT_PATH = Path(__file__).parent / "output" / "BENCH_perf.current.json"


def record(**entries) -> None:
    """Merge measured entries into the current-results file."""
    CURRENT_PATH.parent.mkdir(exist_ok=True)
    data = {"schema": 1, "benchmarks": {}}
    if CURRENT_PATH.exists():
        data = json.loads(CURRENT_PATH.read_text())
    data.setdefault("benchmarks", {}).update(entries)
    CURRENT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def per_pass_s(fn, passes: int) -> float:
    """Mean seconds per call over ``passes`` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(passes):
        fn()
    return (time.perf_counter() - t0) / passes


# --------------------------------------------------- scheduler decision micro
#: One pass of the decision mix takes a few ms, too short to time alone,
#: and a shared host's speed drifts between two timings taken seconds
#: apart. So each round times this many back-to-back passes of both
#: paths in turn, the speedup is the median of the per-round ratios, and
#: the recorded seconds are the best per-pass times (comparable with
#: single-pass baselines).
DECISION_PASSES = 10
DECISION_ROUNDS = 9

@pytest.mark.benchmark(group="decisions")
def test_bench_decision_queries_compiled_vs_naive():
    """The decision mix must be >= 3x faster through the compiled plan."""
    trace = generate_trace(calibration_for(REGION, "small"), days(30), 7)
    assert len(trace) > 1000
    rng = np.random.default_rng(0)
    probes = np.sort(rng.uniform(trace.start, trace.horizon - hours(2), 400)).tolist()
    on_demand = trace.mean_price()
    bid = 2.5 * on_demand

    def compiled_pass():
        # Fresh trace per pass so plan construction + memoization are billed
        # to the compiled side, exactly as a run pays them.
        t = PriceTrace(trace.times, trace.prices, trace.horizon)
        acc = 0.0
        for probe in probes:
            acc += t.first_time_above(bid, probe) or 0.0
            acc += t.first_time_at_or_below(on_demand, probe) or 0.0
            acc += t.mean_price(probe, probe + hours(1))
            acc += t.time_above(on_demand, probe, probe + hours(1))
        return acc

    def naive_pass():
        acc = 0.0
        for probe in probes:
            acc += trace.naive_first_time_above(bid, probe) or 0.0
            acc += trace.naive_first_time_at_or_below(on_demand, probe) or 0.0
            acc += trace.naive_mean_price(probe, probe + hours(1))
            acc += trace.naive_time_above(on_demand, probe, probe + hours(1))
        return acc

    assert compiled_pass() == naive_pass()  # exactness, then speed
    rounds = [
        (per_pass_s(compiled_pass, DECISION_PASSES), per_pass_s(naive_pass, DECISION_PASSES))
        for _ in range(DECISION_ROUNDS)
    ]
    compiled_s = min(c for c, _ in rounds)
    naive_s = min(n for _, n in rounds)
    speedup = float(np.median([n / c for c, n in rounds]))
    record(
        scheduler_decisions_compiled_s={"value": compiled_s, "unit": "s"},
        scheduler_decisions_naive_s={"value": naive_s, "unit": "s"},
        scheduler_decisions_speedup_x={"value": speedup, "unit": "x"},
    )
    print(f"\ndecision mix: compiled {compiled_s:.4f}s, naive {naive_s:.4f}s, {speedup:.2f}x")
    assert speedup >= 3.0, f"compiled decision path only {speedup:.2f}x faster"


# ------------------------------------------------------- 64-run batch sweep
def sweep_runs():
    """32 proactive-bidding variants x 2 seeds over one small market."""
    runs = []
    key = MarketKey(REGION, "small")
    for seed in (11, 23):
        for k in np.linspace(1.5, 9.0, 16):
            for frac in (0.85, 0.95):
                runs.append(
                    RunSpec(
                        strategy=StrategySpec.single(key),
                        bidding=ProactiveBidding(k=float(k), reverse_threshold_frac=frac),
                        seed=seed,
                        horizon_s=days(30),
                        regions=(REGION,),
                        sizes=("small",),
                        label=f"k={k:.2f}/f={frac}",
                    )
                )
    return runs


@pytest.mark.benchmark(group="batch-sweep")
def test_bench_batch_sweep_64_pooled_vs_serial():
    """The pooled sweep matches the serial one and publishes 2 catalogs.

    The 64 runs share 2 catalog keys; the parent publishes each once and
    the pool fans all 64 runs out per run. The serial batch is the
    reference (it also dedupes and fuses, which the pool does not, so the
    two wall-clocks are recorded side by side rather than as a ratio).
    """
    runs = sweep_runs()
    assert len(runs) == 64
    cache = TraceCatalogCache()
    jobs = 4

    run_batch(runs, jobs=1, cache=cache)  # warm the serial path and catalogs
    t0 = time.perf_counter()
    serial = run_batch(runs, jobs=1, cache=cache)
    serial_s = time.perf_counter() - t0
    # Warm the pool and both seeds' catalogs on the worker side.
    run_batch(runs[:2] + runs[32:34], jobs=jobs, cache=cache)
    t0 = time.perf_counter()
    pooled = run_batch(runs, jobs=jobs, cache=cache)
    pooled_s = time.perf_counter() - t0
    assert list(pooled.results) == list(serial.results)
    assert pooled.telemetry.shm_catalogs == 2
    assert pooled.telemetry.parallel_runs == 64
    record(
        batch_sweep_64_serial_s={"value": serial_s, "unit": "s"},
        batch_sweep_64_shm_s={"value": pooled_s, "unit": "s"},
    )
    print(
        f"\n64-run sweep: serial {serial_s:.3f}s, jobs={jobs} {pooled_s:.3f}s "
        f"({os.cpu_count() or 1} cores)"
    )


# --------------------------------------------------- vector engine sweeps
@pytest.mark.benchmark(group="batch-sweep")
def test_bench_batch_sweep_64_vector_vs_event():
    """The vector engine must beat the event engine on the 64-run sweep.

    Both engines run serially in-process against a warm catalog cache, so
    the ratio isolates the execution engines from catalog builds and
    machine-speed drift (the committed entry-2 baseline additionally pins
    the absolute vector wall-clock). The floor is deliberately below the
    typically measured ~9x: shared runners throttle, and this gate exists
    to catch an accidental fallback to per-event execution, not jitter.
    """
    runs = sweep_runs()
    cache = TraceCatalogCache()
    event = run_batch(runs, engine="event", cache=cache)  # warms the cache
    vector = run_batch(runs, engine="auto", cache=cache)
    assert list(vector.results) == list(event.results)
    assert vector.telemetry.vector_runs == 64
    assert vector.telemetry.vector_checks > 0
    event_s = best_of(lambda: run_batch(runs, engine="event", cache=cache))
    vector_s = best_of(lambda: run_batch(runs, engine="auto", cache=cache))
    speedup = event_s / vector_s
    record(
        batch_sweep_64_event_s={"value": event_s, "unit": "s"},
        batch_sweep_64_vector_s={"value": vector_s, "unit": "s"},
        batch_sweep_64_vector_speedup_x={"value": speedup, "unit": "x"},
    )
    print(
        f"\n64-run sweep serial: event {event_s:.3f}s, vector {vector_s:.3f}s, "
        f"{speedup:.1f}x ({vector.telemetry.deduped_runs} deduped, "
        f"{vector.telemetry.vector_checks} checks)"
    )
    assert speedup >= 4.0, f"vector engine only {speedup:.2f}x over per-event"


@pytest.mark.benchmark(group="batch-sweep")
@pytest.mark.slow
def test_bench_frontier_sweep_10k():
    """A 10k-run frontier sweep under ``auto`` stays inside its budget.

    10 catalog seeds x 1000 policy variants (100 bid multipliers x 5
    reverse thresholds x 2 strategies), all vector-routed, with
    capability/rank-projected dedupe, reverse-band cloning and shared scan
    contexts. The telemetry decomposition (executed vs deduped vs fused)
    is printed so the dedupe share stays visible rather than implied;
    ``batch_sweep_10k_fused_s`` is the gated headline number. A seeded
    sample of 64 runs is re-executed on the event engine as the reference.
    """
    key = MarketKey(REGION, "small")
    runs = []
    for seed in range(10):
        for k in np.linspace(1.5, 9.0, 100):
            for frac in (0.80, 0.85, 0.90, 0.95, 0.99):
                for strat in (StrategySpec.single(key), StrategySpec.pure_spot(key)):
                    runs.append(
                        RunSpec(
                            strategy=strat,
                            bidding=ProactiveBidding(
                                k=float(k), reverse_threshold_frac=frac
                            ),
                            seed=seed,
                            horizon_s=days(30),
                            regions=(REGION,),
                            sizes=("small",),
                            label=f"s{seed}/k={k:.2f}/f={frac}",
                        )
                    )
    assert len(runs) == 10_000
    cache = TraceCatalogCache()
    run_batch(runs[:20], engine="auto", cache=cache)  # warm the code paths
    for first in range(0, len(runs), 1000):  # and all 10 catalogs
        cache.get_or_build(runs[first].catalog_key())
    t0 = time.perf_counter()
    batch = run_batch(runs, engine="auto", cache=cache)
    fused_s = time.perf_counter() - t0
    sample = np.random.default_rng(10_000).choice(len(runs), size=64, replace=False)
    for i in sample.tolist():
        event = run_batch([runs[i]], engine="event", cache=cache)
        assert event.results[0] == batch.results[i], f"run {i} differs from event"
    tel = batch.telemetry
    executed = tel.runs - tel.deduped_runs
    record(batch_sweep_10k_fused_s={"value": fused_s, "unit": "s"})
    print(
        f"\n10k frontier sweep: auto {fused_s:.1f}s ({executed} executed + "
        f"{tel.deduped_runs} deduped clones, {tel.fused_runs} fused in "
        f"{tel.fused_groups} groups)"
    )
    assert tel.vector_runs == 10_000
    assert tel.deduped_runs + tel.fused_runs <= tel.runs  # never double-counted
    assert fused_s < 2.5, f"fused 10k sweep took {fused_s:.1f}s (budget 2.5s)"


@pytest.mark.benchmark(group="fleet")
@pytest.mark.slow
def test_bench_fleet_100_auto():
    """The 100-service fleet default (``--engine auto``) stays fast.

    The synthesized fleet is the heterogeneous counter-case to the sweep:
    ~100 distinct strategies over one shared market catalog, so fusion's
    dedupe tiers find only a handful of clones and the win here comes
    from the newly vector-routed dwell-state families (stability,
    index-tracking, portfolio-bid) that previously fell back to per-event
    execution. Auto must stay within noise of the best engine choice.
    """
    from repro.fleet.runner import run_fleet
    from repro.fleet.spec import synthesize_fleet

    spec = synthesize_fleet(n_services=100, seed=0, horizon_s=days(30))
    event = run_fleet(spec, engine="event")  # warms every catalog
    auto = run_fleet(spec, engine="auto")
    assert auto.to_json() == event.to_json()
    auto_s = best_of(lambda: run_fleet(spec, engine="auto"))
    record(fleet_100_auto_s={"value": auto_s, "unit": "s"})
    print(f"\n100-service fleet, auto engine: {auto_s:.3f}s")
    assert auto_s < 5.0, f"100-service fleet took {auto_s:.2f}s (budget 5s)"
