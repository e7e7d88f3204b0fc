"""Traces do not depend on the engine.

Traced and ledgered runs route like any other run, so under
``engine="auto"`` a trace-capturing run executes on the vector engine,
which narrates every boundary check it skips. The gate: for every golden
scenario and for a synthesized fleet holding every registered strategy
family, a traced batch under ``engine="event"`` and under
``engine="auto"`` yields identical results, per-run trace events and
metrics, at ``jobs`` 1 and 2.
"""

import pytest

from repro.core.registry import example_spec, strategy_kinds
from repro.core.simulation import run_simulation_observed
from repro.fleet.spec import ServiceSpec, synthesize_fleet
from repro.obs.sinks import MemorySink
from repro.runtime import run_batch
from repro.runtime.cache import TraceCatalogCache
from repro.testkit.conformance import GRID_REGIONS, GRID_SIZES
from repro.testkit.golden import FLEET_SCENARIOS, SCENARIOS
from repro.units import days

#: Golden scenarios whose run spec names its own catalog (every one but
#: the archive replay, which the catalog cache cannot rebuild).
BATCHABLE = tuple(s for s in SCENARIOS if s.build_catalog is None)


def _traced(specs):
    return [s.with_(capture_trace=True) for s in specs]


def _assert_parity(specs, jobs):
    """Run ``specs`` traced on both engines and compare everything a
    trace consumer sees; returns the auto batch."""
    cache = TraceCatalogCache()
    event = run_batch(_traced(specs), engine="event", jobs=jobs, cache=cache)
    auto = run_batch(_traced(specs), engine="auto", jobs=jobs, cache=cache)
    assert auto.results == event.results
    for e, a in zip(event.run_telemetry, auto.run_telemetry):
        assert e.engine_kind == "event"
        assert a.trace_events, a.label
        assert a.trace_events == e.trace_events, a.label
        assert a.metrics == e.metrics, a.label
    return auto


@pytest.mark.parametrize("jobs", [1, 2])
def test_golden_scenarios_trace_identically(jobs):
    auto = _assert_parity([s.spec() for s in BATCHABLE], jobs)
    faulted = [s.spec().faults is not None for s in BATCHABLE]
    vector = [t.engine_kind == "vector" for t in auto.run_telemetry]
    # Faulted scenarios stay on the event engine; most others vectorize.
    assert not any(v and f for v, f in zip(vector, faulted))
    assert sum(vector) >= len(BATCHABLE) // 2


@pytest.mark.parametrize(
    "scenario",
    [s for s in SCENARIOS if s.build_catalog is not None],
    ids=lambda s: s.name,
)
def test_replayed_catalog_scenario_traces_identically(scenario):
    """The archive replay bypasses the batch cache: drive both engines
    directly, as a single CLI replay does."""
    streams = {}
    for engine in ("event", "vector"):
        sink = MemorySink()
        observed = run_simulation_observed(
            scenario.spec(), scenario.catalog(), sink=sink, engine=engine
        )
        streams[engine] = (
            observed.result,
            [e.to_dict() for e in sink.events],
            observed.metrics.to_dict(),
        )
    assert streams["vector"] == streams["event"]


def _every_family_fleet():
    """A seeded fleet draw plus one pinned tenant per registered family."""
    fleet = synthesize_fleet(
        8, seed=17, horizon_s=days(4), regions=GRID_REGIONS, sizes=GRID_SIZES
    )
    pinned = tuple(
        ServiceSpec(name=f"pin-{kind}", strategy=example_spec(kind))
        for kind in strategy_kinds()
    )
    return fleet.with_(services=fleet.services + pinned)


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_family_fleet_traces_identically(jobs):
    fleet = _every_family_fleet()
    assert {s.strategy.kind for s in fleet.services} == set(strategy_kinds())
    auto = _assert_parity(fleet.run_specs(), jobs)
    assert auto.telemetry.vector_runs > 0


@pytest.mark.parametrize("scenario", FLEET_SCENARIOS, ids=lambda s: s.name)
def test_golden_fleet_traces_identically(scenario):
    _assert_parity(scenario.spec().run_specs(), jobs=2)
