"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Every workload is a closed loop with one client: it submits one batch (or
one fleet at a time) and waits for the answer. Inputs are drawn from the
benchmark seed only; the program receives the generated ``RunSpec`` or
``FleetSpec`` objects. Each pass starts from an empty trace-catalog cache,
so it pays for its own catalog builds as a fresh sweep process would.

A pass returns a :class:`PassOutput`; :meth:`Workload.check` then audits
the outputs outside the timed region and returns a :class:`Failure` for
each check that failed, with the number of runs it covers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.runtime
from repro.core.bidding import ProactiveBidding
from repro.fleet.runner import assemble_report, run_fleet
from repro.fleet.spec import FleetSpec, synthesize_fleet
from repro.obs.capture import observe
from repro.runtime import RunSpec, StrategySpec, TraceCatalogCache, shared_catalog_cache
from repro.testkit.oracles import verify_fleet
from repro.traces.catalog import MarketKey
from repro.units import days

#: Runs per workload re-executed on the event engine as a reference.
SAMPLE_RUNS = 6


@dataclass(frozen=True)
class Failure:
    run: int  #: run index within the pass (or -1 for the whole pass)
    runs: int  #: how many runs the failure covers
    message: str


@dataclass
class PassOutput:
    wall_s: float
    runs: int
    results: Tuple = ()  #: per-run results, submission order, when exposed
    reports: Tuple = ()  #: fleet reports (fleet-mix)
    trace_events: int = 0
    ledger_bytes: int = 0
    ledger_path: Optional[Path] = None

    @property
    def digest(self) -> str:
        """Content hash of everything the pass answered, in submission order."""
        h = hashlib.sha256()
        for r in self.results:
            h.update(repr(r).encode())
        for r in self.reports:
            h.update(r.to_json().encode())
        h.update(f"events={self.trace_events}".encode())
        return h.hexdigest()


def _draw_seeds(seed: int, n: int) -> List[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.choice(2**31 - 1, size=n, replace=False)]


def diff_fields(expected, actual) -> List[str]:
    """Names of the dataclass fields whose values differ."""
    return [
        f.name
        for f in dataclasses.fields(expected)
        if getattr(expected, f.name) != getattr(actual, f.name)
    ]


def check_against_event(
    specs: Sequence[RunSpec], results: Sequence, indices: Sequence[int]
) -> List[Failure]:
    """Re-execute ``specs[i]`` on the event engine and compare field for field."""
    cache = TraceCatalogCache()
    failures = []
    for i in indices:
        spec = specs[i].with_(capture_trace=False)
        reference = repro.runtime.run_batch([spec], engine="event", cache=cache).results[0]
        bad = diff_fields(reference, results[i])
        if bad:
            failures.append(Failure(i, 1, f"run {i} differs from the event engine in {bad}"))
    return failures


def _sample(seed: int, n: int, k: int) -> List[int]:
    rng = np.random.default_rng(seed + 1)
    return sorted(int(i) for i in rng.choice(n, size=min(k, n), replace=False))


class Workload:
    name = ""
    jobs = 1

    def __init__(self, seed: int, scale: str = "full", workdir: Optional[Path] = None):
        self.seed = seed
        self.workdir = workdir
        #: Span recorder for a traced pass; None for timed passes.
        self.tracer = None

    @contextlib.contextmanager
    def timed(self, wall: List[float]):
        """The timed region of a pass; its duration lands in ``wall``."""
        span = self.tracer.span("bench.pass") if self.tracer else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            yield
            wall.append(time.perf_counter() - t0)

    def run_pass(self) -> PassOutput:  # pragma: no cover - abstract
        raise NotImplementedError

    def check(self, out: PassOutput) -> List[Failure]:  # pragma: no cover - abstract
        raise NotImplementedError


class FrontierSweep(Workload):
    """100 catalog seeds x 200 proactive-bidding variants on one market.

    Runs on one catalog cost between a third and three times the mean, so
    a pass spreads its 20,000 runs over many catalogs to keep the pass
    time from depending on which catalogs the seed drew.
    """

    name = "frontier-sweep"
    region = "us-east-1a"

    def __init__(self, seed: int, scale: str = "full", workdir: Optional[Path] = None):
        super().__init__(seed, scale, workdir)
        n_seeds, n_k = (100, 20) if scale == "full" else (1, 4)
        key = MarketKey(self.region, "small")
        strategies = (StrategySpec.single(key), StrategySpec.pure_spot(key))
        self.specs: Tuple[RunSpec, ...] = tuple(
            RunSpec(
                strategy=strat,
                bidding=ProactiveBidding(k=float(k), reverse_threshold_frac=frac),
                seed=cat_seed,
                horizon_s=days(30),
                regions=(self.region,),
                sizes=("small",),
                label=f"s{cat_seed}/k={k:.2f}/f={frac}/{strat.kind}",
            )
            for cat_seed in _draw_seeds(seed, n_seeds)
            for k in np.linspace(1.5, 9.0, n_k)
            for frac in (0.80, 0.85, 0.90, 0.95, 0.99)
            for strat in strategies
        )

    def run_pass(self) -> PassOutput:
        cache = TraceCatalogCache()
        wall: List[float] = []
        with self.timed(wall):
            batch = repro.runtime.run_batch(self.specs, engine="auto", cache=cache)
        return PassOutput(wall_s=wall[0], runs=len(self.specs), results=batch.results)

    def check(self, out: PassOutput) -> List[Failure]:
        return check_against_event(
            self.specs, out.results, _sample(self.seed, len(self.specs), SAMPLE_RUNS)
        )


class FleetMix(Workload):
    """12 distinct-seed churned 100-service fleets over all 20 markets.

    One fleet's pass time varies by about a fifth between seeds; a pass
    runs a dozen of them so that the median pass does not hang on a few.
    """

    name = "fleet-mix"

    def __init__(self, seed: int, scale: str = "full", workdir: Optional[Path] = None):
        super().__init__(seed, scale, workdir)
        n_fleets, n_services = (12, 100) if scale == "full" else (1, 6)
        self.fleets: Tuple[FleetSpec, ...] = tuple(
            synthesize_fleet(n_services, seed=s, churn_per_week=4)
            for s in _draw_seeds(seed, n_fleets)
        )

    @property
    def n_runs(self) -> int:
        return sum(len(f) for f in self.fleets)

    def run_pass(self) -> PassOutput:
        shared_catalog_cache().clear()
        wall: List[float] = []
        with self.timed(wall):
            reports = tuple(run_fleet(f, engine="auto") for f in self.fleets)
        return PassOutput(wall_s=wall[0], runs=self.n_runs, reports=reports)

    def check(self, out: PassOutput) -> List[Failure]:
        # run_fleet hands back reports only; rerun each fleet's batch to get
        # its per-run results, which must rebuild the same report.
        failures: List[Failure] = []
        offset = 0
        sample = set(_sample(self.seed, self.n_runs, SAMPLE_RUNS))
        for fleet, report in zip(self.fleets, out.reports):
            specs = fleet.run_specs()
            results = repro.runtime.run_batch(specs, engine="auto").results
            if assemble_report(fleet, results).to_json() != report.to_json():
                failures.append(Failure(-1, len(specs), f"fleet {fleet.seed}: report not reproducible"))
            oracle = verify_fleet(fleet, report, results)
            if not oracle.passed:
                failures.append(
                    Failure(-1, len(specs), f"fleet {fleet.seed}: verify_fleet failed: {oracle.failures}")
                )
            local = [i - offset for i in sorted(sample) if offset <= i < offset + len(specs)]
            for f in check_against_event(specs, results, local):
                failures.append(Failure(f.run + offset, 1, f.message))
            offset += len(specs)
        return failures


class ObservedSweep(Workload):
    """80 fleet services' runs at jobs=2, traced, into a fresh ledger.

    The services come from 4 distinct-seed 20-service fleets, so a pass
    averages over 4 market catalogs rather than hanging on one.
    """

    name = "observed-sweep"
    jobs = 2

    def __init__(self, seed: int, scale: str = "full", workdir: Optional[Path] = None):
        super().__init__(seed, scale, workdir)
        n_fleets, n_services = (4, 20) if scale == "full" else (2, 3)
        self.specs: Tuple[RunSpec, ...] = tuple(
            spec.with_(label=f"{j}/{spec.label}")
            for j, fleet_seed in enumerate(_draw_seeds(seed, n_fleets))
            for spec in synthesize_fleet(n_services, seed=fleet_seed).run_specs()
        )

    def run_pass(self) -> PassOutput:
        if self.workdir is None:
            raise ValueError("observed-sweep writes its ledger to a work directory")
        self.workdir.mkdir(parents=True, exist_ok=True)
        ledger = self.workdir / "ledger.jsonl"
        if ledger.exists():
            ledger.unlink()  # every pass journals into a fresh ledger
        cache = TraceCatalogCache()
        wall: List[float] = []
        with self.timed(wall), observe(trace=True) as scope:
            batch = repro.runtime.run_batch(
                self.specs, jobs=self.jobs, engine="auto", cache=cache, ledger=ledger
            )
        return PassOutput(
            wall_s=wall[0],
            runs=len(self.specs),
            results=batch.results,
            trace_events=scope.event_count,
            ledger_bytes=ledger.stat().st_size,
            ledger_path=ledger,
        )

    def check(self, out: PassOutput) -> List[Failure]:
        failures = check_against_event(
            self.specs, out.results, _sample(self.seed, len(self.specs), SAMPLE_RUNS)
        )
        resumed = repro.runtime.run_batch(
            self.specs, jobs=self.jobs, engine="auto", ledger=out.ledger_path, resume=True
        )
        tel = resumed.telemetry
        executed = tel.runs - tel.replayed_runs
        if not tel.resumed or executed:
            failures.append(Failure(-1, max(executed, 1), f"resume executed {executed} runs"))
        for i, (a, b) in enumerate(zip(out.results, resumed.results)):
            bad = diff_fields(a, b)
            if bad:
                failures.append(Failure(i, 1, f"run {i} replayed with different {bad}"))
        return failures


WORKLOADS: Dict[str, type] = {w.name: w for w in (FrontierSweep, FleetMix, ObservedSweep)}
