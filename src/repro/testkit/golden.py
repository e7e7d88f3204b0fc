"""The golden-scenario corpus: small committed runs with expected reports.

Each :class:`GoldenScenario` is a fully seeded simulation small enough to
run in a second or two; its expected :class:`~repro.core.results`
report is committed as JSON under ``tests/golden/expected/``. The
regression test (``tests/golden/test_golden.py``) and ``repro-verify
--all-golden`` re-run every scenario and compare field-for-field; after an
*intentional* behaviour change, refresh the corpus with ``repro-verify
--update-golden`` and review the JSON diff like any other code change.

The corpus deliberately spans the regimes the paper's claims hang on:
calm markets, seeded revocation storms, a correlated spike straddling a
billing boundary, a pure-spot outage, slow checkpoints during a storm,
multi-market and multi-region escapes, the all-on-demand baseline, and —
mirroring the regimes real ``DescribeSpotPriceHistory`` archives exhibit —
sustained-high-price markets, scarce-capacity (GPU-style) sharp-spike
trains, cross-region correlated storms, a CSV → streaming-ingest → mmap
segment replay, and a run on calibrations refit from a generated archive.
:data:`FLEET_SCENARIOS` extends it with a pinned multi-tenant
:class:`~repro.fleet.report.FleetReport` (shared market, shared spare
pool, churn) checked by the same machinery.

Both corpora are declarative tables: one row per scenario. Every
non-scalar field of a row (strategy, bidding policy, fault plan,
calibrations, catalog) is a zero-argument recipe, so importing this
module builds no strategy, fault plan, calibration or catalog; the work
happens when a scenario's :meth:`~GoldenScenario.spec` is called.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.bidding import BiddingPolicy, ProactiveBidding, ReactiveBidding
from repro.core.simulation import run_simulation_observed
from repro.errors import ConfigurationError
from repro.fleet.spec import FleetSpec, ServiceSpec, synthesize_fleet
from repro.runtime.spec import RunSpec, StrategySpec
from repro.testkit.faults import FaultPlan
from repro.traces.calibration import MarketCalibration, calibration_for
from repro.traces.catalog import MarketKey, TraceCatalog
from repro.units import days, hours

__all__ = [
    "GoldenScenario",
    "GoldenFleetScenario",
    "SCENARIOS",
    "FLEET_SCENARIOS",
    "scenario_by_name",
    "check_scenarios",
    "update_golden",
    "default_golden_dir",
]

#: Tolerance for float fields (JSON round-trips floats exactly; the
#: tolerance only guards against cross-platform libm differences).
REL_TOL = 1e-9

_EAST = MarketKey("us-east-1a", "small")
_WEEK = days(7)


@dataclass(frozen=True)
class GoldenScenario:
    """One committed scenario: a name, a story, and a seeded run recipe.

    The run's label is ``golden/<name>``. ``build_catalog``, when set,
    builds the trace set the run replays (from the run spec) instead of
    the one generated from the spec's seed.
    """

    name: str
    description: str
    strategy: Callable[[], StrategySpec]
    seed: int
    horizon_s: float = days(3)
    regions: Tuple[str, ...] = ("us-east-1a",)
    sizes: Tuple[str, ...] = ("small",)
    bidding: Callable[[], BiddingPolicy] = ProactiveBidding
    faults: Optional[Callable[[], FaultPlan]] = None
    calibrations: Optional[Callable[[], Mapping[tuple, MarketCalibration]]] = None
    build_catalog: Optional[Callable[[RunSpec], TraceCatalog]] = None

    def spec(self) -> RunSpec:
        return RunSpec(
            strategy=self.strategy(),
            bidding=self.bidding(),
            seed=self.seed,
            horizon_s=self.horizon_s,
            regions=self.regions,
            sizes=self.sizes,
            calibrations=None if self.calibrations is None else self.calibrations(),
            faults=None if self.faults is None else self.faults(),
            label=f"golden/{self.name}",
        )

    def catalog(self) -> Optional[TraceCatalog]:
        return None if self.build_catalog is None else self.build_catalog(self.spec())

    def report(self, verify: bool = True) -> Dict[str, object]:
        """Run the scenario (with the invariant oracles by default) and
        return its report as a JSON-ready dict."""
        observed = run_simulation_observed(self.spec(), self.catalog(), verify=verify)
        return dataclasses.asdict(observed.result)


def default_golden_dir() -> Path:
    """``tests/golden/expected`` relative to the repo root."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden" / "expected"


# ------------------------------------------------------ calibration presets
# Calibration presets for the regimes real DescribeSpotPriceHistory
# archives exhibit (sustained-high markets, scarce-capacity spike trains,
# correlated cross-region storms). Each preset stays inside the
# MarketCalibration validation ranges, so build_catalog accepts it as-is.
def _sustained_high_cal(region: str, size: str) -> MarketCalibration:
    """Calm level parked just under on-demand with little dispersion: spot
    barely undercuts the baseline, as several real markets did after the
    2011 EC2 repricing."""
    return calibration_for(
        region, size, calm_base_frac=0.88, calm_sigma=0.04, calm_reversion=0.5
    )


def _gpu_scarcity_cal(region: str, size: str) -> MarketCalibration:
    """Scarce-capacity market: frequent sharp excursions far past the 4x
    bid cap, the shape GPU/accelerator pools show under contention."""
    cal = calibration_for(region, size)
    return dataclasses.replace(
        cal,
        sharp_spikes=dataclasses.replace(
            cal.sharp_spikes, rate_per_hour=0.02, peak_lo_frac=5.0, peak_hi_frac=12.0
        ),
        spikes=dataclasses.replace(
            cal.spikes, rate_per_hour=2.0 * cal.spikes.rate_per_hour
        ),
    )


def _stormy_cal(region: str, size: str) -> MarketCalibration:
    """Most excursions arrive from the shared regional/global shock
    streams, so markets spike together instead of independently."""
    return calibration_for(
        region, size, regional_shock_share=0.55, global_shock_share=0.3
    )


def _quiet_cal(region: str, size: str) -> MarketCalibration:
    """An unusually placid market: every excursion class at a fifth of its
    default rate (some real EU markets sat nearly flat for months)."""
    cal = calibration_for(region, size)
    return dataclasses.replace(
        cal,
        blips=dataclasses.replace(cal.blips, rate_per_hour=0.2 * cal.blips.rate_per_hour),
        spikes=dataclasses.replace(cal.spikes, rate_per_hour=0.2 * cal.spikes.rate_per_hour),
        sharp_spikes=dataclasses.replace(
            cal.sharp_spikes, rate_per_hour=0.2 * cal.sharp_spikes.rate_per_hour
        ),
    )


def _on(
    preset: Callable[[str, str], MarketCalibration],
    regions: Tuple[str, ...] = ("us-east-1a",),
    sizes: Tuple[str, ...] = ("small",),
) -> Callable[[], Dict[tuple, MarketCalibration]]:
    """Recipe applying ``preset`` to every (region, size) market given."""
    return lambda: {(r, s): preset(r, s) for r in regions for s in sizes}


def _refit_calibrations() -> Mapping[tuple, MarketCalibration]:
    # Closes the refit loop inside the corpus: fit the regime-switching
    # parameters to a generated two-market history, then simulate on
    # traces regenerated *from the fit*. Any drift in the fit -> generate
    # round trip shows up as a golden diff.
    from repro.traces.catalog import build_catalog
    from repro.traces.refit import fit_catalog

    source = build_catalog(7, days(10), regions=("us-east-1a",), sizes=("small", "medium"))
    return fit_catalog(source, grid_step_s=900.0)


def _archive_catalog(spec: RunSpec) -> TraceCatalog:
    # End-to-end data-path pin: generate one market, write it as an AWS
    # CSV archive, stream-ingest it into mmap-compiled segments, and run
    # the simulation off the memory-mapped catalog. The pinned report
    # freezes the CSV -> ingest -> mmap path's economics; the ingest test
    # suite separately proves it matches the in-memory path bit-for-bit.
    import tempfile

    from repro.traces.catalog import build_catalog
    from repro.traces.ingest import ingest_archive, load_segment_catalog
    from repro.traces.loader import save_aws_csv

    source = build_catalog(spec.seed, spec.horizon_s, regions=spec.regions, sizes=spec.sizes)
    tmp = tempfile.TemporaryDirectory(prefix="repro-golden-segments-")
    root = Path(tmp.name)
    save_aws_csv(
        source.trace(_EAST),
        root / "archive.csv",
        instance_type="m1.small",
        availability_zone="us-east-1a",
    )
    ingest_archive(root / "archive.csv", root / "segments", horizon=spec.horizon_s)
    catalog = load_segment_catalog(root / "segments")
    # The catalog's arrays are views over the segment files; keep the
    # temporary directory alive for as long as the catalog is.
    catalog._tmpdir = tmp
    return catalog


# ------------------------------------------------------------------ the table
_XL_EAST = MarketKey("us-east-1a", "xlarge")
_ALL_SIZES = ("small", "medium", "large", "xlarge")
_SMALL_MEDIUM = ("small", "medium")
_EAST_WEST = ("us-east-1a", "us-west-1a")
_EAST_EU = ("us-east-1a", "eu-west-1a")

SCENARIOS: Tuple[GoldenScenario, ...] = (
    GoldenScenario(
        "calm-single", "single market, calm generated trace",
        partial(StrategySpec.single, _EAST), 11, _WEEK,
    ),
    GoldenScenario(
        "calm-large", "large instance, calm generated trace",
        partial(StrategySpec.single, MarketKey("us-east-1a", "large")), 23, _WEEK,
        sizes=("large",),
    ),
    GoldenScenario(
        "storm-single", "seeded 6-spike revocation storm",
        partial(StrategySpec.single, _EAST), 31, _WEEK,
        faults=partial(FaultPlan.revocation_storm, 401, _WEEK, n_spikes=6, duration_s=1800.0),
    ),
    # The spike opens 90 s before the lease's 5th billing boundary — the
    # window where revocation is cheapest for the provider-side adversary
    # and the partial-hour-free rule matters most.
    GoldenScenario(
        "spike-at-boundary", "correlated spike opening just before a billing boundary",
        partial(StrategySpec.single, _EAST), 43,
        faults=partial(FaultPlan.correlated_spike, hours(5) - 90.0, hours(2)),
    ),
    GoldenScenario(
        "pure-spot-outage", "pure-spot strategy rides through a forced dark period",
        partial(StrategySpec.pure_spot, _EAST), 53,
        faults=partial(FaultPlan.correlated_spike, hours(30), hours(4)),
    ),
    GoldenScenario(
        "on-demand-baseline", "all-on-demand control: no migrations, 100% cost",
        partial(StrategySpec.on_demand, _EAST), 61,
    ),
    GoldenScenario(
        "multi-market-storm", "storm on one market, sideways escape available",
        partial(StrategySpec.multi_market, "us-east-1a"), 71, _WEEK, sizes=_ALL_SIZES,
        faults=partial(
            FaultPlan.revocation_storm, 402, _WEEK, n_spikes=4, duration_s=3600.0,
            markets=("us-east-1a/small",),
        ),
    ),
    GoldenScenario(
        "multi-region", "two-region deployment, calm markets",
        partial(StrategySpec.multi_region, _EAST_WEST), 83, _WEEK,
        regions=_EAST_WEST, sizes=_ALL_SIZES,
    ),
    GoldenScenario(
        "multi-region-correlated", "all markets spike at once across regions",
        partial(StrategySpec.multi_region, _EAST_EU), 97, _WEEK,
        regions=_EAST_EU, sizes=_ALL_SIZES,
        faults=partial(FaultPlan.correlated_spike, days(2), hours(6)),
    ),
    GoldenScenario(
        "slow-checkpoint-storm", "storm with failing checkpoints and slow copies",
        partial(StrategySpec.single, _EAST), 101, _WEEK,
        faults=partial(
            FaultPlan.revocation_storm, 403, _WEEK, n_spikes=5, duration_s=2700.0,
            checkpoint_delay_s=45.0, checkpoint_failure_rate=0.25, disk_copy_factor=2.0,
            startup_factor=1.5,
        ),
    ),
    GoldenScenario(
        "index-tracking-basket", "spot basket tracking the on-demand index",
        partial(StrategySpec.index_tracking, _EAST_WEST), 113,
        regions=_EAST_WEST, sizes=_SMALL_MEDIUM,
    ),
    GoldenScenario(
        "no-ft-storm", "no-checkpoint tenant revoked by a correlated spike",
        partial(StrategySpec.no_fault_tolerance, _EAST), 127,
        faults=partial(FaultPlan.correlated_spike, hours(30), hours(4)),
    ),
    GoldenScenario(
        "portfolio-bid-lp", "LP risk/cost market selection over four markets",
        partial(StrategySpec.portfolio_bid, _EAST_WEST), 131,
        regions=_EAST_WEST, sizes=_SMALL_MEDIUM,
    ),
    GoldenScenario(
        "sustained-high-single", "calm level parked just under on-demand",
        partial(StrategySpec.single, _EAST), 137, calibrations=_on(_sustained_high_cal),
    ),
    GoldenScenario(
        "sustained-high-reactive", "reactive bidding where spot barely undercuts",
        partial(StrategySpec.single, _EAST), 139, bidding=ReactiveBidding,
        calibrations=_on(_sustained_high_cal),
    ),
    GoldenScenario(
        "sustained-high-multi-market", "sideways escape from one expensive market",
        partial(StrategySpec.multi_market, "us-east-1a"), 149, sizes=_ALL_SIZES,
        calibrations=_on(_sustained_high_cal),
    ),
    GoldenScenario(
        "sustained-high-pure-spot", "pure spot on an expensive, rarely-revoking market",
        partial(StrategySpec.pure_spot, _EAST), 193,
        calibrations=_on(_sustained_high_cal),
    ),
    GoldenScenario(
        "gpu-scarcity-single", "frequent sharp spikes past the 4x bid cap",
        partial(StrategySpec.single, _XL_EAST), 151, sizes=("xlarge",),
        calibrations=_on(_gpu_scarcity_cal, sizes=("xlarge",)),
    ),
    GoldenScenario(
        "gpu-scarcity-no-ft", "scarcity spike train against a no-checkpoint tenant",
        partial(StrategySpec.no_fault_tolerance, _XL_EAST), 157, sizes=("xlarge",),
        calibrations=_on(_gpu_scarcity_cal, sizes=("xlarge",)),
    ),
    GoldenScenario(
        "gpu-scarcity-multi-market", "xlarge scarcity, calmer sizes available",
        partial(StrategySpec.multi_market, "us-east-1a"), 163, sizes=_ALL_SIZES,
        calibrations=_on(_gpu_scarcity_cal, sizes=("xlarge",)),
    ),
    GoldenScenario(
        "correlated-storm-regional", "shared-shock shares synchronize two regions",
        partial(StrategySpec.multi_region, _EAST_WEST), 167,
        regions=_EAST_WEST, sizes=_SMALL_MEDIUM,
        calibrations=_on(_stormy_cal, _EAST_WEST, _SMALL_MEDIUM),
    ),
    GoldenScenario(
        "correlated-storm-global", "correlated shocks plus a scripted all-market spike",
        partial(StrategySpec.multi_region, _EAST_EU), 173,
        regions=_EAST_EU, sizes=_SMALL_MEDIUM,
        calibrations=_on(_stormy_cal, _EAST_EU, _SMALL_MEDIUM),
        faults=partial(FaultPlan.correlated_spike, days(1), hours(3)),
    ),
    GoldenScenario(
        "correlated-storm-portfolio", "LP bid family under correlated shocks",
        partial(StrategySpec.portfolio_bid, _EAST_WEST), 179,
        regions=_EAST_WEST, sizes=_SMALL_MEDIUM,
        calibrations=_on(_stormy_cal, _EAST_WEST, _SMALL_MEDIUM),
    ),
    GoldenScenario(
        "correlated-storm-index", "index tracker under correlated shocks",
        partial(StrategySpec.index_tracking, _EAST_WEST), 181,
        regions=_EAST_WEST, sizes=_SMALL_MEDIUM,
        calibrations=_on(_stormy_cal, _EAST_WEST, _SMALL_MEDIUM),
    ),
    GoldenScenario(
        "stability-weighted-storm", "churn-averse family rides out a one-market storm",
        partial(StrategySpec.stability, _EAST_WEST, stability_weight=2.0), 191,
        regions=_EAST_WEST, sizes=_SMALL_MEDIUM,
        faults=partial(
            FaultPlan.revocation_storm, 404, days(3), n_spikes=3, duration_s=1800.0,
            markets=("us-east-1a/small",),
        ),
    ),
    GoldenScenario(
        "calm-quiet-eu", "placid EU market at a fifth of default excursion rates",
        partial(StrategySpec.single, MarketKey("eu-west-1a", "large")), 197,
        regions=("eu-west-1a",), sizes=("large",),
        calibrations=_on(_quiet_cal, ("eu-west-1a",), ("large",)),
    ),
    GoldenScenario(
        "storm-reactive", "reactive ceiling bids revoked by every storm spike",
        partial(StrategySpec.single, _EAST), 223, bidding=ReactiveBidding,
        faults=partial(FaultPlan.revocation_storm, 405, days(3), n_spikes=3, duration_s=1800.0),
    ),
    GoldenScenario(
        "spike-train-medium", "three-spike train with recovery between spikes",
        partial(StrategySpec.single, MarketKey("us-east-1a", "medium")), 227, sizes=("medium",),
        faults=partial(FaultPlan.revocation_storm, 406, days(3), n_spikes=3, duration_s=1200.0),
    ),
    GoldenScenario(
        "archive-roundtrip", "CSV -> streaming ingest -> mmap segment replay",
        partial(StrategySpec.single, _EAST), 199, build_catalog=_archive_catalog,
    ),
    GoldenScenario(
        "refit-regenerated", "simulate on calibrations refit from a generated archive",
        partial(StrategySpec.multi_market, "us-east-1a"), 211, sizes=_SMALL_MEDIUM,
        calibrations=_refit_calibrations,
    ),
)


@dataclass(frozen=True)
class GoldenFleetScenario:
    """One committed fleet scenario: a seeded :func:`synthesize_fleet` draw
    plus explicitly pinned tenants, whose
    :class:`~repro.fleet.report.FleetReport` is pinned as JSON.

    ``pinned`` lists ``(service name, strategy recipe)`` tenants appended
    after the drawn cohort, so a family stays in the corpus regardless of
    what the seeded draw happens to pick.
    """

    name: str
    description: str
    n_services: int
    seed: int
    horizon_s: float
    regions: Tuple[str, ...]
    sizes: Tuple[str, ...]
    churn_per_week: float = 0.0
    spare_capacity: Optional[int] = None
    pinned: Tuple[Tuple[str, Callable[[], StrategySpec]], ...] = ()

    def spec(self) -> FleetSpec:
        fleet = synthesize_fleet(
            self.n_services,
            seed=self.seed,
            horizon_s=self.horizon_s,
            regions=self.regions,
            sizes=self.sizes,
            churn_per_week=self.churn_per_week,
            spare_capacity=self.spare_capacity,
        )
        pinned = tuple(ServiceSpec(name=n, strategy=s()) for n, s in self.pinned)
        return fleet.with_(services=fleet.services + pinned)

    def report(self, verify: bool = True) -> Dict[str, object]:
        """Run the fleet (with the fleet invariant oracles by default) and
        return its :class:`~repro.fleet.report.FleetReport` as a
        JSON-ready dict."""
        from repro.fleet.runner import run_fleet

        return run_fleet(self.spec(), verify=verify).to_dict()


FLEET_SCENARIOS: Tuple[GoldenFleetScenario, ...] = (
    # Small enough for seconds, rich enough to exercise the shared spare
    # pool and the churn proration path.
    GoldenFleetScenario(
        "fleet-small", "8-service fleet with churn on a shared 4-market grid",
        8, 5, days(3), _EAST_WEST, _SMALL_MEDIUM, churn_per_week=4.0, spare_capacity=2,
        pinned=(("svc-index-tracker", partial(StrategySpec.index_tracking, _EAST_WEST)),),
    ),
)


def scenario_by_name(name: str):
    for s in (*SCENARIOS, *FLEET_SCENARIOS):
        if s.name == name:
            return s
    known = [s.name for s in SCENARIOS] + [s.name for s in FLEET_SCENARIOS]
    raise ConfigurationError(f"unknown golden scenario {name!r}; known: {known}")


# ------------------------------------------------------------------- execution
def _select(names: Optional[List[str]]) -> List[Any]:
    """The named scenarios, or the whole corpus (both tables) when none."""
    return [scenario_by_name(n) for n in names] if names else [*SCENARIOS, *FLEET_SCENARIOS]


def _diff_value(path: str, e: object, a: object, out: List[str]) -> None:
    """Recursive comparison; problems are appended as ``path: detail``."""
    if isinstance(e, bool) or isinstance(a, bool):
        # bool is an int subclass — compare exactly, before the float branch.
        if e != a:
            out.append(f"{path}: expected {e!r}, got {a!r}")
    elif isinstance(e, float) and isinstance(a, (int, float)):
        if not math.isclose(e, float(a), rel_tol=REL_TOL, abs_tol=REL_TOL):
            out.append(f"{path}: expected {e!r}, got {a!r}")
    elif isinstance(e, dict) and isinstance(a, dict):
        for key in sorted(set(e) | set(a)):
            sub = f"{path}[{key!r}]" if path else str(key)
            if key not in e:
                out.append(f"{sub}: unexpected new field = {a[key]!r}")
            elif key not in a:
                out.append(f"{sub}: field missing (expected {e[key]!r})")
            else:
                _diff_value(sub, e[key], a[key], out)
    elif isinstance(e, (list, tuple)) and isinstance(a, (list, tuple)):
        if len(e) != len(a):
            out.append(f"{path}: expected {len(e)} item(s), got {len(a)}")
            return
        for i, (ev, av) in enumerate(zip(e, a)):
            _diff_value(f"{path}[{i}]", ev, av, out)
    elif e != a:
        out.append(f"{path}: expected {e!r}, got {a!r}")


def _diff(expected: Dict[str, object], actual: Dict[str, object]) -> List[str]:
    """Field-level differences between two (possibly nested) report dicts."""
    out: List[str] = []
    _diff_value("", expected, actual, out)
    return out


def check_scenarios(
    names: Optional[List[str]] = None,
    golden_dir: Optional[Path] = None,
    verify: bool = True,
) -> Dict[str, List[str]]:
    """Run scenarios and compare to their committed expected reports.

    Returns ``{scenario name: [differences]}`` — empty lists mean a clean
    match; a missing expected file reports as one difference.
    """
    golden_dir = golden_dir if golden_dir is not None else default_golden_dir()
    out: Dict[str, List[str]] = {}
    for scenario in _select(names):
        path = golden_dir / f"{scenario.name}.json"
        if not path.exists():
            out[scenario.name] = [
                f"no expected report at {path} (run repro-verify --update-golden)"
            ]
            continue
        expected = json.loads(path.read_text())
        out[scenario.name] = _diff(expected, scenario.report(verify=verify))
    return out


def update_golden(
    names: Optional[List[str]] = None, golden_dir: Optional[Path] = None
) -> Dict[str, Path]:
    """(Re)write the expected reports; returns ``{name: path written}``."""
    golden_dir = golden_dir if golden_dir is not None else default_golden_dir()
    golden_dir.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}
    for scenario in _select(names):
        path = golden_dir / f"{scenario.name}.json"
        path.write_text(json.dumps(scenario.report(), indent=2, sort_keys=True) + "\n")
        written[scenario.name] = path
    return written
