"""One-call simulation facade: config in, results out.

:func:`run_simulation` builds the whole stack for one seed — trace catalog,
provider, scheduler — runs it to the horizon, and distils a
:class:`~repro.core.results.SimulationResult`. :func:`run_many` repeats it
over seeds, mirroring the paper's "different sample for each simulation
run" methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.bidding import BiddingPolicy, ProactiveBidding
from repro.core.results import SimulationResult
from repro.core.scheduler import CloudScheduler
from repro.core.strategies import HostingStrategy
from repro.cloud.provider import CloudProvider
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.simulator.engine import Engine
from repro.simulator.rng import RngStreams
from repro.traces.calibration import MarketCalibration, REGIONS, SIZES
from repro.traces.catalog import TraceCatalog, build_catalog
from repro.units import SECONDS_PER_HOUR, days
from repro.vm.mechanisms import (
    Mechanism,
    MechanismParams,
    MigrationModel,
    TYPICAL_PARAMS,
)

__all__ = [
    "SimulationConfig",
    "SimStack",
    "ObservedRun",
    "build_stack",
    "summarize_stack",
    "run_simulation",
    "run_simulation_instrumented",
    "run_simulation_observed",
    "run_many",
]

#: Strategy factory: builds a fresh strategy per run (strategies are cheap
#: and some hold per-run state in the future).
StrategyFactory = Callable[[], HostingStrategy]


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one scheduler run needs.

    ``catalog`` may be supplied to reuse a pre-built trace set (e.g. to run
    several policies on the *same* price sample, as the paper's policy
    comparisons require); otherwise a catalog is generated from ``seed``.
    """

    strategy: StrategyFactory
    bidding: BiddingPolicy = field(default_factory=ProactiveBidding)
    mechanism: Mechanism = Mechanism.CKPT_LR_LIVE
    params: MechanismParams = TYPICAL_PARAMS
    seed: int = 0
    horizon_s: float = days(30)
    regions: tuple = REGIONS
    sizes: tuple = SIZES
    catalog: Optional[TraceCatalog] = None
    calibrations: Optional[Mapping[tuple, MarketCalibration]] = None
    startup_cv: float = 0.25
    service_disk_gib: float = 2.0
    label: str = ""
    #: Optional :class:`repro.testkit.faults.FaultPlan` (duck-typed — any
    #: object with ``apply_to_catalog``/``wrap_provider``). Applied while
    #: building the stack: spikes overlay the catalog *before* the provider
    #: sees it, so billing and bids both face the faulted prices.
    faults: Optional[object] = None

    def __post_init__(self) -> None:
        if self.horizon_s <= SECONDS_PER_HOUR:
            raise ConfigurationError("horizon must exceed one hour")

    def with_(self, **kw) -> "SimulationConfig":
        """A copy with fields replaced."""
        return replace(self, **kw)


def _result_label(config: SimulationConfig, strategy: HostingStrategy) -> str:
    if config.label:
        return config.label
    return f"{config.bidding.name}/{config.mechanism.value}/{strategy!r}"


@dataclass(frozen=True)
class ObservedRun:
    """One simulation's summary plus its observability by-products."""

    result: SimulationResult
    fired_events: int  #: discrete events the engine processed
    metrics: MetricsRegistry  #: the scheduler's per-run metric registry
    #: Which engine actually executed the run: ``"event"`` (per-event
    #: loop) or ``"vector"`` (batched boundary scans). A run *requested*
    #: on the vector engine still reports ``"event"`` when its
    #: configuration was not vectorizable and the scheduler fell back.
    engine_kind: str = "event"
    #: Boundary-check instants the vector engine evaluated as array scans
    #: (0 on the event engine).
    vector_checks: int = 0
    #: Per-market ``(lo, hi)`` envelope of every price the run compared
    #: against its reverse-migration threshold (``None`` off the vector
    #: scheduler). The batch executor's fusion tier uses it to clone runs
    #: whose reverse thresholds this trajectory provably never told apart.
    reverse_band: Optional[Dict[object, Tuple[float, float]]] = None


@dataclass
class SimStack:
    """The fully-assembled machinery of one simulation run.

    Built by :func:`build_stack`, run via ``stack.scheduler.run()``, and
    summarised by :func:`summarize_stack`. Keeping the live objects
    together lets post-run oracles (:mod:`repro.testkit.oracles`) audit
    the ledger, availability tracker, and provider against the distilled
    :class:`~repro.core.results.SimulationResult`.
    """

    config: SimulationConfig
    catalog: TraceCatalog
    provider: CloudProvider
    engine: Engine
    scheduler: CloudScheduler
    strategy: HostingStrategy


def build_stack(
    config: SimulationConfig,
    sink: TraceSink = NULL_SINK,
    engine: str = "event",
    fused: Optional[object] = None,
) -> SimStack:
    """Assemble catalog, provider, engine and scheduler for one run.

    If ``config.faults`` is set, its spikes are overlaid on the catalog
    before the provider is constructed (so billing sees the spiked
    prices) and its provider-level faults are applied before the
    scheduler takes the provider.

    ``engine="vector"`` builds a
    :class:`~repro.runtime.vector.VectorScheduler` — bit-identical
    results with no-action decision epochs batch-scanned as array ops.
    Configurations the vector engine cannot batch (non-vectorizable
    strategy or bidding policy, an enabled trace sink) transparently run
    per-event; the scheduler's ``vectorized`` attribute says which
    happened. ``fused`` optionally attaches a shared
    :class:`~repro.runtime.fused.FusedScanContext` so boundary-scan rows
    are reused across the runs of a fusion group (ignored by the event
    engine).
    """
    if engine not in ("event", "vector"):
        raise ConfigurationError(f"unknown engine {engine!r} (want 'event' or 'vector')")
    catalog = config.catalog
    if catalog is None:
        catalog = build_catalog(
            seed=config.seed,
            horizon=config.horizon_s,
            regions=config.regions,
            sizes=config.sizes,
            calibrations=config.calibrations,
        )
    faults = config.faults
    if faults is not None:
        catalog = faults.apply_to_catalog(catalog)
    streams = RngStreams(config.seed)
    provider = CloudProvider(
        catalog,
        rng=streams.get("provider/startup"),
        startup_cv=config.startup_cv,
        sink=sink,
    )
    if faults is not None:
        provider = faults.wrap_provider(provider, run_seed=config.seed)
    strategy = config.strategy()
    scheduler_cls = CloudScheduler
    extra = {}
    if engine == "vector":
        # Imported lazily: repro.runtime builds on this module.
        from repro.runtime.vector import VectorScheduler

        scheduler_cls = VectorScheduler
        if fused is not None:
            extra["fused"] = fused
    sim_engine = Engine(sink=sink)
    scheduler = scheduler_cls(
        engine=sim_engine,
        provider=provider,
        bidding=config.bidding,
        strategy=strategy,
        migration_model=MigrationModel(config.mechanism, config.params),
        rng=streams.get("scheduler/jitter"),
        horizon=config.horizon_s,
        service_disk_gib=config.service_disk_gib,
        sink=sink,
        **extra,
    )
    return SimStack(
        config=config,
        catalog=catalog,
        provider=provider,
        engine=sim_engine,
        scheduler=scheduler,
        strategy=strategy,
    )


def summarize_stack(stack: SimStack) -> SimulationResult:
    """Distil a completed stack into a :class:`SimulationResult` and set
    the summary gauges on the scheduler's metric registry."""
    config = stack.config
    scheduler = stack.scheduler
    avail = scheduler.availability
    ledger = scheduler.ledger
    duration_h = avail.window_duration / SECONDS_PER_HOUR
    baseline_rate = stack.strategy.baseline_rate(stack.provider)
    baseline_cost = baseline_rate * duration_h
    norm = (
        ledger.normalized_cost_percent(baseline_rate, avail.window_duration)
        if duration_h > 0
        else 0.0
    )
    by_cause: dict[str, float] = {}
    for iv in avail.downtime:
        by_cause[iv.cause] = by_cause.get(iv.cause, 0.0) + iv.duration
    result = SimulationResult(
        label=_result_label(config, stack.strategy),
        seed=config.seed,
        duration_hours=duration_h,
        total_cost=ledger.total,
        baseline_cost=baseline_cost,
        normalized_cost_percent=norm,
        unavailability_percent=avail.unavailability_percent(),
        downtime_s=avail.total_downtime(),
        degraded_s=avail.total_degraded(),
        forced_migrations=scheduler.migration_count("forced"),
        planned_migrations=scheduler.migration_count("planned", "spot-switch"),
        reverse_migrations=scheduler.migration_count("reverse"),
        outages=scheduler.migration_count("outage"),
        spot_cost=ledger.total_by_kind("spot"),
        on_demand_cost=ledger.total_by_kind("on_demand"),
        spot_time_fraction=scheduler.spot_time_fraction(),
        downtime_by_cause=by_cause,
        forced_times=tuple(
            m.started_at for m in scheduler.migrations if m.kind == "forced"
        ),
    )
    metrics = scheduler.metrics
    metrics.gauge("total_cost_usd").set(result.total_cost)
    metrics.gauge("normalized_cost_percent").set(result.normalized_cost_percent)
    metrics.gauge("unavailability_percent").set(result.unavailability_percent)
    metrics.gauge("spot_time_fraction").set(result.spot_time_fraction)
    return result


def run_simulation(config: SimulationConfig, verify: bool = False) -> SimulationResult:
    """Run one seeded scheduler simulation and summarise it.

    ``verify=True`` runs the :mod:`repro.testkit.oracles` conservation
    checks after the run and raises
    :class:`~repro.errors.InvariantViolation` if any fail.
    """
    return run_simulation_observed(config, verify=verify).result


def run_simulation_instrumented(
    config: SimulationConfig,
) -> tuple[SimulationResult, int]:
    """Like :func:`run_simulation`, also returning the engine's fired-event
    count (the runtime layer's events-processed telemetry)."""
    observed = run_simulation_observed(config)
    return observed.result, observed.fired_events


def run_simulation_observed(
    config: SimulationConfig,
    sink: TraceSink = NULL_SINK,
    verify: bool = False,
    engine: str = "event",
    fused: Optional[object] = None,
) -> ObservedRun:
    """Run one simulation with decision tracing and metrics attached.

    ``sink`` receives every :mod:`repro.obs` trace event the stack emits
    (engine, provider, scheduler); the default null sink costs one branch
    per emission site, so results are identical whether or not anyone is
    listening. The returned :class:`ObservedRun` carries the scheduler's
    metric registry alongside the usual summary. ``verify=True`` audits
    the completed stack with the invariant oracles and raises
    :class:`~repro.errors.InvariantViolation` on any red check.
    ``engine`` selects the execution engine (see :func:`build_stack`);
    the returned run's ``engine_kind`` reports which one actually ran.
    """
    stack = build_stack(config, sink=sink, engine=engine, fused=fused)
    stack.scheduler.run()
    result = summarize_stack(stack)
    if verify:
        # Imported lazily: the testkit builds on this module.
        from repro.testkit.oracles import verify_stack

        verify_stack(stack, result).raise_on_failure()
    kind = "vector" if getattr(stack.scheduler, "vectorized", False) else "event"
    return ObservedRun(
        result=result,
        fired_events=stack.engine.fired_count,
        metrics=stack.scheduler.metrics,
        engine_kind=kind,
        vector_checks=int(getattr(stack.scheduler, "vector_checks", 0)),
        reverse_band=getattr(stack.scheduler, "reverse_band", None),
    )


def run_many(
    config: SimulationConfig,
    seeds: List[int],
    jobs: int = 1,
    ledger: Optional[object] = None,
    resume: bool = False,
    engine: str = "auto",
) -> List[SimulationResult]:
    """Run the same configuration over several trace samples.

    A thin wrapper over :func:`repro.runtime.run_batch`: each seed becomes
    a :class:`~repro.runtime.RunSpec` (any attached catalog is dropped —
    every seed gets its own sample, served through the runtime's catalog
    cache). ``jobs > 1`` fans the seeds across worker processes with
    results in seed order, identical to the serial run. ``ledger`` /
    ``resume`` journal completed seeds to a crash-safe run ledger and
    replay them on restart (see :mod:`repro.runtime.ledger`).
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    # Imported lazily: repro.runtime builds on this module.
    from repro.runtime import RunSpec, run_batch

    specs = [RunSpec.from_config(config, seed=s) for s in seeds]
    return list(
        run_batch(specs, jobs=jobs, ledger=ledger, resume=resume, engine=engine).results
    )
