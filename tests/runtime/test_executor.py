"""Executor: parallel fan-out must be indistinguishable from serial."""

import dataclasses
import os

import pytest

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.simulation import run_many, run_simulation
from repro.errors import ConfigurationError
from repro.runtime import (
    BatchSpec,
    RunSpec,
    StrategySpec,
    TraceCatalogCache,
    collect_telemetry,
    executor,
    run_batch,
)
from repro.traces.calibration import SIZES, MarketCalibration, calibration_for
from repro.traces.catalog import MarketKey
from repro.units import days

REGION = "us-east-1a"


class UnhashableCalibration(MarketCalibration):
    """A calibration override the catalog cache cannot key."""

    __hash__ = None


def fig6_style_runs(seeds=(11, 23), sizes=("small", "medium"), horizon=days(3)):
    """The fig6 shape: seeds × sizes × {reactive, proactive} single-market."""
    runs = []
    for size in sizes:
        key = MarketKey(REGION, size)
        for bidding in (ReactiveBidding(), ProactiveBidding()):
            for seed in seeds:
                runs.append(
                    RunSpec(
                        strategy=StrategySpec.single(key),
                        bidding=bidding,
                        seed=seed,
                        horizon_s=horizon,
                        regions=(REGION,),
                        sizes=(size,),
                        label=f"{bidding.name}/{size}",
                    )
                )
    return runs


class TestSerial:
    def test_results_in_submission_order(self):
        runs = fig6_style_runs(seeds=(3, 1, 2), sizes=("small",))
        batch = run_batch(runs, cache=TraceCatalogCache())
        assert [r.seed for r in batch.results] == [r.seed for r in runs]
        assert [r.label for r in batch.results] == [r.label for r in runs]

    def test_matches_run_simulation(self):
        run = fig6_style_runs(seeds=(7,), sizes=("small",))[0]
        batch = run_batch([run], cache=TraceCatalogCache())
        assert batch.results[0] == run_simulation(run)

    def test_progress_called_per_run(self):
        runs = fig6_style_runs(seeds=(1, 2), sizes=("small",))
        seen = []
        run_batch(runs, cache=TraceCatalogCache(), progress=seen.append)
        assert len(seen) == len(runs)
        assert all(t.events_processed > 0 and t.wall_s > 0 for t in seen)

    def test_rejects_empty_and_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            run_batch([])
        with pytest.raises(ConfigurationError):
            run_batch(fig6_style_runs(seeds=(1,), sizes=("small",)), jobs=0)

    def test_accepts_batch_spec(self):
        base = RunSpec(
            strategy=StrategySpec.single(MarketKey(REGION, "small")),
            horizon_s=days(2),
            regions=(REGION,),
            sizes=("small",),
        )
        batch = run_batch(BatchSpec.product(base, [1, 2]), cache=TraceCatalogCache())
        assert [r.seed for r in batch.results] == [1, 2]


class TestParallelDeterminism:
    def test_jobs4_identical_to_serial_fig6_style(self):
        """Satellite: a jobs=4 batch equals the serial batch field for
        field, in the same order."""
        runs = fig6_style_runs()
        serial = run_batch(runs, jobs=1, cache=TraceCatalogCache())
        parallel = run_batch(runs, jobs=4)
        assert list(parallel.results) == list(serial.results)  # dataclass eq
        for s, p in zip(serial.results, parallel.results):
            assert s.downtime_by_cause == p.downtime_by_cause
            assert s.spot_time_fraction == p.spot_time_fraction

    def test_parallel_runs_use_worker_processes(self):
        runs = fig6_style_runs(seeds=(1, 2), sizes=("small",))
        batch = run_batch(runs, jobs=2)
        pids = {t.worker_pid for t in batch.run_telemetry}
        assert batch.telemetry.parallel_runs == len(runs)
        assert os.getpid() not in pids

    def test_uncacheable_runs_execute_in_process(self):
        """A run whose calibration overrides cannot be keyed has no
        catalog to publish: it builds its own, in the parent process."""
        key = MarketKey(REGION, "small")
        cal = calibration_for(REGION, "small")
        odd = UnhashableCalibration(
            *(getattr(cal, f.name) for f in dataclasses.fields(cal))
        )
        portable = RunSpec(
            strategy=StrategySpec.single(key),
            seed=1,
            horizon_s=days(2),
            regions=(REGION,),
            sizes=("small",),
        )
        local = portable.with_(calibrations={(REGION, "small"): odd})
        assert local.catalog_key() is None
        batch = run_batch([portable, local], jobs=2)
        assert batch.results[0] == batch.results[1]
        assert batch.run_telemetry[0].worker_pid != os.getpid()
        assert batch.run_telemetry[1].worker_pid == os.getpid()

    def test_run_many_jobs_matches_serial(self):
        spec = RunSpec(
            strategy=StrategySpec.single(MarketKey(REGION, "small")),
            horizon_s=days(3),
            regions=(REGION,),
            sizes=("small",),
        )
        assert run_many(spec, [1, 2, 3], jobs=4) == run_many(spec, [1, 2, 3])


_CRASH_SEED = 2
_real_execute_mapped = executor._execute_mapped


def _execute_mapped_dying_on_seed(spec, *args):
    """Pool-worker stand-in that kills its worker outright for one seed."""
    if spec.seed == _CRASH_SEED:
        os._exit(1)
    return _real_execute_mapped(spec, *args)


class TestBrokenPool:
    def test_worker_killed_mid_batch_falls_back_in_process(self, monkeypatch):
        """A worker that dies breaks the pool: the runs it strands re-execute
        in the parent, identically, and are not counted as pool runs."""
        base = RunSpec(
            strategy=StrategySpec.single(MarketKey(REGION, "small")),
            horizon_s=days(2),
            regions=(REGION,),
            sizes=("small",),
        )
        runs = BatchSpec.product(base, [1, _CRASH_SEED, 3, 4])
        serial = run_batch(runs, jobs=1, cache=TraceCatalogCache())
        monkeypatch.setattr(executor, "_execute_mapped", _execute_mapped_dying_on_seed)
        # A fresh pool, so its forked workers run the stand-in.
        monkeypatch.setattr(executor, "_POOLS", {})
        batch = run_batch(runs, jobs=2)
        assert list(batch.results) == list(serial.results)
        assert batch.run_telemetry[1].worker_pid == os.getpid()  # the crashed seed
        assert batch.telemetry.parallel_runs < batch.telemetry.runs
        assert batch.telemetry.parallel_runs == sum(
            1 for t in batch.run_telemetry if t.worker_pid != os.getpid()
        )


class TestTelemetry:
    def test_batch_telemetry_counts(self):
        runs = fig6_style_runs(seeds=(1, 2), sizes=("small",))
        batch = run_batch(runs, cache=TraceCatalogCache())
        t = batch.telemetry
        assert t.runs == 4 and t.jobs == 1 and t.parallel_runs == 0
        assert t.catalog_builds == 2 and t.catalog_cache_hits == 2
        assert t.events_processed == sum(r.events_processed for r in batch.run_telemetry)
        assert "4 runs" in t.summary()

    def test_collect_telemetry_scope(self):
        runs = fig6_style_runs(seeds=(1,), sizes=("small",))
        with collect_telemetry() as outer:
            run_batch(runs, cache=TraceCatalogCache())
            with collect_telemetry() as inner:
                run_batch(runs, cache=TraceCatalogCache())
        assert outer.runs == 4 and inner.runs == 2
        assert len(outer.batches) == 2 and len(inner.batches) == 1
        # Outside the scope nothing is collected.
        run_batch(runs, cache=TraceCatalogCache())
        assert outer.runs == 4
