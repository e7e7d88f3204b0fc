"""Catalog transport to pool workers: spill, map, fall back, clean up.

A pooled batch publishes each unique catalog once as a segment directory
(a generated catalog is spilled into the batch's temporary directory; an
ingested one ships its own ``source``) and every worker memory-maps it.
"""

import tempfile

import numpy as np
import pytest

from repro.core.bidding import ProactiveBidding
from repro.errors import WorkerCrashError
from repro.runtime import RunSpec, StrategySpec, TraceCatalogCache, run_batch
from repro.runtime import executor
from repro.runtime.cache import CatalogKey
from repro.testkit.faults import FaultPlan
from repro.traces import ingest
from repro.traces.catalog import MarketKey
from repro.units import days

REGION = "us-east-1a"
SIZES = ("small", "medium")


@pytest.fixture
def catalog():
    return CatalogKey(seed=7, horizon_s=days(2), regions=(REGION,), sizes=SIZES).build()


@pytest.fixture(autouse=True)
def _clean_mappings():
    """Each test starts and ends with an empty per-process mapping cache."""
    executor._mapped_catalog.cache_clear()
    yield
    executor._mapped_catalog.cache_clear()


@pytest.fixture
def spill_root(tmp_path, monkeypatch):
    """Redirect the batch's temporary directory so tests can inspect it."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


def _runs(seed=11, sizes=SIZES, **kw):
    return [
        RunSpec(
            strategy=StrategySpec.single(MarketKey(REGION, size)),
            bidding=ProactiveBidding(),
            seed=seed,
            horizon_s=days(2),
            regions=(REGION,),
            sizes=sizes,
            label=f"transport/{size}",
            **kw,
        )
        for size in sizes
    ]


class TestRoundTrip:
    def test_attached_catalog_equals_source(self, catalog, tmp_path):
        clone = ingest.load_segment_catalog(executor.publish_catalog(catalog, tmp_path))
        assert clone.markets() == catalog.markets()
        assert clone.horizon == catalog.horizon
        for key in catalog.markets():
            a, b = catalog.trace(key), clone.trace(key)
            np.testing.assert_array_equal(b.times, a.times)
            np.testing.assert_array_equal(b.prices, a.prices)
            assert (b.region, b.market, b.horizon) == (a.region, a.market, a.horizon)
            assert clone.on_demand_price(key) == catalog.on_demand_price(key)

    def test_attached_traces_are_views_not_copies(self, catalog, tmp_path):
        clone = ingest.load_segment_catalog(executor.publish_catalog(catalog, tmp_path))
        trace = clone.trace(catalog.markets()[0])
        assert not trace.times.flags.owndata
        assert not trace.times.flags.writeable

    def test_plan_layout_covers_all_markets(self, catalog, tmp_path):
        import json

        directory = executor.publish_catalog(catalog, tmp_path)
        manifest = json.loads((tmp_path / directory / ingest.MANIFEST_NAME).read_text())
        assert [(m["region"], m["size"]) for m in manifest["markets"]] == [
            (k.region, k.size) for k in catalog.markets()
        ]
        assert [m["n"] for m in manifest["markets"]] == [
            len(catalog.trace(k)) for k in catalog.markets()
        ]


class TestAttachCache:
    def test_repeat_attach_hits_cache(self, catalog, tmp_path):
        directory = executor.publish_catalog(catalog, tmp_path)
        key = _runs()[0].catalog_key()
        first = executor._mapped_catalog(directory, key)
        assert executor._mapped_catalog(directory, key) is first
        assert executor._mapped_catalog.cache_info().hits == 1


class TestSegmentDirPlan:
    """Catalogs loaded from segment directories ship their own path."""

    @pytest.fixture
    def segment_catalog(self, tmp_path, catalog):
        from repro.traces.loader import save_aws_csv

        for key in catalog.markets():
            save_aws_csv(
                catalog.trace(key),
                tmp_path / f"{key.size}.csv",
                instance_type=f"m1.{key.size}",
                availability_zone=key.region,
            )
        ingest.ingest_archive(
            [tmp_path / f"{k.size}.csv" for k in catalog.markets()],
            tmp_path / "seg",
            horizon=catalog.horizon,
        )
        return ingest.load_segment_catalog(tmp_path / "seg")

    def test_publish_returns_dir_plan_without_segment(self, segment_catalog, tmp_path):
        spill = tmp_path / "spill"
        spill.mkdir()
        assert executor.publish_catalog(segment_catalog, spill) == segment_catalog.source
        assert not any(spill.iterdir())  # nothing was copied anywhere

    def test_attach_loads_and_caches_by_directory(self, segment_catalog):
        key = _runs()[0].catalog_key()
        clone = executor._mapped_catalog(segment_catalog.source, key)
        assert executor._mapped_catalog(segment_catalog.source, key) is clone
        assert clone.markets() == segment_catalog.markets()
        for key in segment_catalog.markets():
            np.testing.assert_array_equal(
                clone.trace(key).times, segment_catalog.trace(key).times
            )
            assert clone.on_demand_price(key) == segment_catalog.on_demand_price(key)

    def test_ingested_batch_ships_path_and_matches_serial(
        self, segment_catalog, spill_root, monkeypatch
    ):
        # Seed 99 would generate a different catalog: matching the serial
        # results proves the workers mapped the ingested one.
        runs = _runs(seed=99)
        cache = TraceCatalogCache()
        cache._entries[runs[0].catalog_key()] = segment_catalog
        serial = run_batch(runs, jobs=1, cache=cache)

        def no_spill(*args, **kwargs):
            raise AssertionError("an ingested catalog must not be spilled")

        monkeypatch.setattr(ingest, "write_segment_catalog", no_spill)
        parallel = run_batch(runs, jobs=2, cache=cache)
        assert list(parallel.results) == list(serial.results)
        assert parallel.telemetry.shm_catalogs == 1
        assert all(t.catalog_source == "map" for t in parallel.run_telemetry)
        assert not any(spill_root.iterdir())


class TestExecutorIntegration:
    def test_shm_batch_matches_serial(self):
        runs = _runs(seed=11) + _runs(seed=23)
        serial = run_batch(runs, jobs=1, cache=TraceCatalogCache())
        parallel = run_batch(runs, jobs=2, cache=TraceCatalogCache())
        assert list(parallel.results) == list(serial.results)
        assert parallel.telemetry.shm_catalogs == 2  # one per unique catalog key
        assert parallel.telemetry.parallel_runs == len(runs)
        assert all(t.catalog_source == "map" for t in parallel.run_telemetry)
        assert "2 published catalogs" in parallel.telemetry.summary()

    def test_no_segment_leaks_after_batch(self, spill_root):
        run_batch(_runs(seed=3), jobs=2, cache=TraceCatalogCache())
        assert not any(spill_root.iterdir())

    def test_spill_dir_removed_when_batch_raises(self, spill_root):
        runs = _runs(seed=5, faults=FaultPlan(crash_seeds=(5,), crash_attempts=9))
        with pytest.raises(WorkerCrashError):
            run_batch(runs, jobs=2, retries=0, cache=TraceCatalogCache())
        assert not any(spill_root.iterdir())

    def test_vanished_directory_builds_locally(self, tmp_path, monkeypatch):
        runs = _runs(seed=13)
        serial = run_batch(runs, jobs=1, cache=TraceCatalogCache())
        monkeypatch.setattr(
            executor, "publish_catalog", lambda catalog, spill_dir: str(tmp_path / "gone")
        )
        parallel = run_batch(runs, jobs=2, cache=TraceCatalogCache())
        assert list(parallel.results) == list(serial.results)
        assert parallel.telemetry.parallel_runs == len(runs)
        assert all(t.catalog_source != "map" for t in parallel.run_telemetry)

    def test_unspillable_catalog_builds_locally(self, monkeypatch):
        runs = _runs(seed=17)
        serial = run_batch(runs, jobs=1, cache=TraceCatalogCache())

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ingest, "write_segment_catalog", disk_full)
        parallel = run_batch(runs, jobs=2, cache=TraceCatalogCache())
        assert list(parallel.results) == list(serial.results)
        assert parallel.telemetry.shm_catalogs == 0  # nothing was published
        assert parallel.telemetry.parallel_runs == len(runs)
