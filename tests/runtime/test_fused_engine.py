"""Cross-run fusion equivalence and accounting tests.

The contract under test: the fusion tier inside ``engine="auto"``
produces results byte-identical to per-run ``event`` execution on every
batch it accepts — fusion and its two dedupe tiers (capability-projected
static keys, observed reverse-band cloning) are pure execution
optimizations — and the batch telemetry never double-counts a run as both
deduped and fused.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.simulation import run_simulation_observed
from repro.runtime import RunSpec, StrategySpec, run_batch
from repro.runtime.cache import TraceCatalogCache
from repro.runtime.telemetry import collect_telemetry
from repro.testkit.golden import FLEET_SCENARIOS, SCENARIOS
from repro.traces.catalog import MarketKey
from repro.units import days

EAST = "us-east-1a"
EAST_SMALL = MarketKey(EAST, "small")

#: Shared across tests and hypothesis examples: fused equivalence must not
#: depend on catalog-cache temperature.
_CACHE = TraceCatalogCache()


def _spec(**kw) -> RunSpec:
    base = dict(
        strategy=StrategySpec.single(EAST_SMALL),
        seed=11,
        horizon_s=days(2),
        regions=(EAST,),
        sizes=("small",),
    )
    base.update(kw)
    return RunSpec(**base)


def _results(specs, engine):
    return run_batch(specs, engine=engine, cache=_CACHE).results


# ------------------------------------------------------------ golden parity
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_fused_matches_event_on_golden_corpus(scenario):
    """``--engine auto`` is byte-identical to ``event`` on every golden
    scenario — including the ones whose policies ``auto`` routes to
    per-event execution."""
    config = scenario.config()
    event = run_simulation_observed(config)
    fused = run_batch([RunSpec.from_config(scenario.config())], engine="auto")
    assert fused.results[0] == event.result


def test_fused_matches_event_on_fleet_golden():
    """The ``fleet-small`` golden renders the identical report bytes under
    cross-run fusion."""
    from repro.fleet.runner import run_fleet

    scenario = FLEET_SCENARIOS[0]
    event = run_fleet(scenario.spec(), engine="event")
    fused = run_fleet(scenario.spec(), engine="auto")
    assert fused.to_json() == event.to_json()


# ----------------------------------------------------- hypothesis property
_STRATEGIES = (
    lambda: StrategySpec.single(EAST_SMALL),
    lambda: StrategySpec.pure_spot(EAST_SMALL),
    lambda: StrategySpec.multi_market(EAST, service_units=4),
    lambda: StrategySpec.stability((EAST,), service_units=4),
    lambda: StrategySpec.index_tracking((EAST,), service_units=4, n_markets=2),
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=5),
    ks=st.lists(
        st.floats(min_value=1.2, max_value=9.0, allow_nan=False),
        min_size=1,
        max_size=3,
    ),
    fracs=st.lists(
        st.floats(min_value=0.3, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=3,
    ),
    strategy_ids=st.lists(
        st.integers(min_value=0, max_value=len(_STRATEGIES) - 1),
        min_size=1,
        max_size=3,
        unique=True,
    ),
)
def test_fused_vector_event_equivalence(seed, ks, fracs, strategy_ids):
    """``auto`` (vector engine plus fusion) ``== event`` over random
    mixed-strategy cohorts, including the vectorizable stability and
    index-tracking families; fusion's dedupe tiers must be invisible in
    the results."""
    specs = []
    for sid in strategy_ids:
        for k in ks:
            for frac in fracs:
                specs.append(
                    _spec(
                        strategy=_STRATEGIES[sid](),
                        bidding=ProactiveBidding(k=k, reverse_threshold_frac=frac),
                        seed=seed,
                        label=f"s{sid}/k{k:.3f}/f{frac:.3f}",
                    )
                )
        specs.append(
            _spec(
                strategy=_STRATEGIES[sid](),
                bidding=ReactiveBidding(),
                seed=seed,
                label=f"s{sid}/reactive",
            )
        )
    fused = _results(specs, "auto")
    event = _results(specs, "event")
    assert fused == event


# ----------------------------------------------- dedupe/fusion accounting
def _frontier(seed=3, ks=(1.5, 2.5, 4.0), fracs=(0.5, 0.7, 0.9)):
    """A sweep dense enough that both dedupe tiers and fusion all engage."""
    return [
        _spec(
            bidding=ProactiveBidding(k=k, reverse_threshold_frac=f),
            seed=seed,
            label=f"k{k}/f{f}",
        )
        for k in ks
        for f in fracs
    ]


def test_deduped_and_fused_never_double_count():
    """A run is cloned or fused, never both — per run and in the batch
    totals (the dedupe-before-fusion ordering guard)."""
    specs = _frontier() + _frontier(seed=4)
    with collect_telemetry() as tel:
        run_batch(specs, engine="auto", cache=_CACHE)
    (batch,) = tel.batches
    per_run = batch  # BatchTelemetry totals
    assert per_run.deduped_runs + per_run.fused_runs <= per_run.runs
    assert per_run.deduped_runs > 0  # the sweep must actually dedupe
    assert per_run.fused_runs > 0  # and actually fuse


def test_no_run_reports_both_deduped_and_fused():
    specs = _frontier()
    telemetry = []
    run_batch(specs, engine="auto", cache=_CACHE, progress=telemetry.append)
    assert len(telemetry) == len(specs)
    for t in telemetry:
        assert not (t.deduped and t.fused), t.label
    assert any(t.deduped for t in telemetry)


def test_static_twins_expand_after_fused_evaluation():
    """Identical-dynamics twins clone their representative's result (label
    aside) and report honest provenance."""
    specs = [
        _spec(bidding=ProactiveBidding(k=5.0), label="a"),
        _spec(bidding=ProactiveBidding(k=5.0), label="b"),
    ]
    telemetry = []
    batch = run_batch(specs, engine="auto", cache=_CACHE, progress=telemetry.append)
    a, b = batch.results
    assert dataclasses.replace(a, label="") == dataclasses.replace(b, label="")
    assert a.label == "a" and b.label == "b"
    assert not telemetry[0].deduped
    assert telemetry[1].deduped and not telemetry[1].fused


def test_reverse_band_tier_clones_undiscriminated_fracs():
    """Reverse fractions the representative's trajectory never compared
    apart collapse onto one executed run — and stay byte-identical to
    per-spec event execution."""
    fracs = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    specs = [
        _spec(
            bidding=ProactiveBidding(k=4.0, reverse_threshold_frac=f),
            seed=7,
            horizon_s=days(7),
            label=f"f{f}",
        )
        for f in fracs
    ]
    with collect_telemetry() as tel:
        fused = _results(specs, "auto")
    assert tel.deduped_runs > 0, "band tier found no undiscriminated fracs"
    event = _results(specs, "event")
    assert fused == event


def test_batch_rejects_unknown_engine_with_choices():
    from repro.errors import ConfigurationError

    for engine in ("bogus", "vector", "fused"):
        with pytest.raises(ConfigurationError, match=r"\(choices: auto, event\)"):
            run_batch([_spec()], engine=engine, cache=_CACHE)
