"""The batch executor: seed×variant fan-out with deterministic ordering.

``run_batch`` executes a sequence of :class:`~repro.runtime.spec.RunSpec`s
and returns results **in submission order**, whatever the worker count —
``jobs=4`` is field-for-field identical to ``jobs=1`` because every run is
fully determined by its spec (seed-derived RNG, deterministic catalog
generation). Parallel execution fans out per run: the parent spills each
unique generated catalog once per batch into a temporary segment
directory (:func:`publish_catalog`), pool workers memory-map it, and the
directory is removed when the batch ends. Runs that cannot cross a
process boundary (unhashable calibration overrides, unpicklable fault
plans) transparently execute in-process.

Engine routing (``engine=``): ``"auto"`` runs a spec on the vectorized
batch engine exactly when it is eligible — vectorizable strategy and
bidding policy, no fault plan — and on the per-event engine otherwise;
results, trace events and metrics are bit-identical either way, the
vector engine just skips the no-action boundary machinery (narrating the
checks it skips when a trace is captured). Traced and ledgered batches
route like any other. ``"event"``
forces the per-event engine, the scalar reference every other path is
tested against. Which engine actually ran each spec is reported as
:attr:`~repro.runtime.telemetry.RunTelemetry.engine_kind`.

On the serial path, vector-routed runs are additionally *deduplicated*
and *fused*. Two specs whose catalogs, strategies, seeds and
capability-projected bidding dynamics are identical
(:func:`repro.runtime.fused.dedupe_key`) drive byte-identical
simulations, so the executor runs one representative and clones its
result for the twins — reported as ``deduped_runs``. The runs that do
execute share one :class:`~repro.runtime.fused.FusedScanContext` per
catalog group, so every boundary scan window over a given trace timeline
is materialised once for the whole group instead of once per run —
reported as ``fused_groups``/``fused_runs``.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import os
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.results import SimulationResult
from repro.errors import ConfigurationError, LedgerError, TraceFormatError, WorkerCrashError
from repro.obs.capture import notify_run, trace_capture_active
from repro.obs.sinks import NULL_SINK, MemorySink, TraceSink
from repro.runtime.cache import TraceCatalogCache, shared_catalog_cache
from repro.runtime.ledger import RunLedger, resolve_ledger_path
from repro.runtime.spec import BatchSpec, RunSpec, batch_fingerprint, spec_fingerprint
from repro.runtime.telemetry import BatchTelemetry, RunTelemetry, notify_batch
from repro.runtime.vector import ENGINE_KINDS, spec_vector_eligible
from repro.traces.catalog import TraceCatalog

__all__ = ["BatchResult", "run_batch"]

#: Progress hook: called once per completed run (completion order).
ProgressCallback = Callable[[RunTelemetry], None]

#: Default retry budget for crashed runs and its exponential-backoff base.
#: Retrying is always safe: a run is a pure function of its spec, so a
#: re-execution is byte-identical to the attempt that crashed.
DEFAULT_RETRIES = 2
DEFAULT_RETRY_BACKOFF_S = 0.05


@dataclass(frozen=True)
class BatchResult:
    """Results plus instrumentation of one executed batch."""

    results: Tuple[SimulationResult, ...]  #: submission order
    run_telemetry: Tuple[RunTelemetry, ...]  #: submission order
    telemetry: BatchTelemetry


def _attempt_one(
    spec: RunSpec,
    cache: Optional[TraceCatalogCache],
    attempt: int,
    prebuilt: Optional[Tuple[object, str]] = None,
    engine: str = "event",
    fused: Optional[object] = None,
    notes: Optional[dict] = None,
) -> Tuple[SimulationResult, RunTelemetry]:
    """One execution attempt of one spec (no retry handling).

    ``prebuilt`` is ``(catalog, source)`` when the caller already resolved
    the catalog (the pool-worker path); otherwise the catalog is
    resolved through ``cache``. ``fused`` is the run's fusion group's
    shared :class:`~repro.runtime.fused.FusedScanContext`, if any.
    ``notes``, when given, receives execution by-products that don't
    belong in the result pair — currently ``"reverse_band"``, the
    scheduler's observed reverse-threshold envelope the serial fusion
    tier matches later specs against.
    """
    from repro.core.simulation import run_simulation_observed

    faults = spec.faults
    if faults is not None and getattr(faults, "crash_seeds", ()):
        if faults.should_crash(spec.seed, attempt):
            raise WorkerCrashError(
                f"injected worker crash: seed={spec.seed} attempt={attempt}"
            )
    start = time.perf_counter()
    catalog = None
    cache_hit = False
    catalog_wall = 0.0
    source = ""
    if prebuilt is not None:
        catalog, source = prebuilt
        cache_hit = True
    else:
        key = spec.catalog_key() if cache is not None else None
        if key is not None:
            catalog, cache_hit, catalog_wall = cache.get_or_build(key)
            source = "cache" if cache_hit else "build"
    sink: TraceSink = MemorySink() if spec.capture_trace else NULL_SINK
    observed = run_simulation_observed(
        spec, catalog, sink=sink, engine=engine, fused=fused
    )
    result = observed.result
    if notes is not None:
        notes["reverse_band"] = observed.reverse_band
    wall = time.perf_counter() - start
    trace_events = None
    if spec.capture_trace:
        # Ship events as plain dicts so they pickle across the pool boundary.
        trace_events = tuple(e.to_dict() for e in sink.events)  # type: ignore[union-attr]
    telemetry = RunTelemetry(
        label=result.label,
        seed=spec.seed,
        wall_s=wall,
        events_processed=observed.fired_events,
        catalog_wall_s=catalog_wall,
        catalog_cache_hit=cache_hit,
        catalog_source=source,
        worker_pid=os.getpid(),
        attempts=attempt + 1,
        metrics=observed.metrics.to_dict(),
        trace_events=trace_events,
        engine_kind=observed.engine_kind,
        vector_checks=observed.vector_checks,
        # A run is "fused" only if the shared context could actually be
        # consulted — i.e. the scheduler really ran vectorized.
        fused=fused is not None and observed.engine_kind == "vector",
    )
    return result, telemetry


def _execute_one(
    spec: RunSpec,
    cache: Optional[TraceCatalogCache],
    retries: int = DEFAULT_RETRIES,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    engine: str = "event",
    fused: Optional[object] = None,
    notes: Optional[dict] = None,
    prebuilt: Optional[Tuple[object, str]] = None,
) -> Tuple[SimulationResult, RunTelemetry]:
    """Run one spec with retry/backoff, resolving its catalog via ``cache``
    unless the caller passes it ``prebuilt``.

    A crashed attempt (injected :class:`~repro.errors.WorkerCrashError` or
    any organic exception) is retried up to ``retries`` times with
    exponential backoff; the final failure propagates. Retries cannot
    change results — a run is a pure function of its spec (a shared fused
    scan context only caches rows the run would compute anyway).
    """
    for attempt in range(retries + 1):
        try:
            return _attempt_one(
                spec, cache, attempt, prebuilt, engine=engine, fused=fused, notes=notes
            )
        except Exception:
            if attempt >= retries:
                raise
            if retry_backoff_s > 0:
                time.sleep(retry_backoff_s * (2**attempt))
    raise AssertionError("unreachable")  # pragma: no cover


def publish_catalog(catalog: TraceCatalog, spill_dir: Path) -> str:
    """The segment directory pool workers map ``catalog`` from.

    A catalog loaded from an ingested segment directory ships its own
    ``source``. A generated one is spilled into a fresh subdirectory of
    ``spill_dir``, the batch's temporary directory.
    """
    if catalog.source is not None:
        return catalog.source
    from repro.traces.ingest import write_segment_catalog

    return str(write_segment_catalog(tempfile.mkdtemp(dir=spill_dir), catalog))


@functools.lru_cache(maxsize=8)
def _mapped_catalog(directory: str, key: object) -> TraceCatalog:
    """Per-process cache of mapped catalogs, so a worker executing many
    runs against one catalog maps (and validates) its directory once.

    ``key`` is the runs' catalog key: it makes the cache entry specific to
    the catalog, so a temporary directory name reused by a later batch
    can never serve a different catalog's traces.
    """
    from repro.traces.ingest import load_segment_catalog

    return load_segment_catalog(directory)


def _execute_mapped(
    spec: RunSpec,
    directory: Optional[str],
    retries: int = DEFAULT_RETRIES,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    engine: str = "event",
) -> Tuple[SimulationResult, RunTelemetry]:
    """Pool-worker entry point: one run against a published catalog.

    If the directory cannot be mapped (it vanished, or the parent could
    not spill it) the worker builds the catalog through its own process
    cache instead — same results, just slower.
    """
    prebuilt: Optional[Tuple[object, str]] = None
    if directory is not None:
        try:
            prebuilt = (_mapped_catalog(directory, spec.catalog_key()), "map")
        except (OSError, TraceFormatError):
            prebuilt = None
    return _execute_one(
        spec, shared_catalog_cache(), retries, retry_backoff_s, engine, prebuilt=prebuilt
    )


def _resolve_engine(spec: RunSpec, engine: str) -> str:
    """Which engine one spec runs on, given the batch's ``engine`` selector.

    Under ``"auto"``, faulted runs stay on the event engine (fault
    overlays want the per-boundary walk) and everything else goes to the
    vector engine when eligible. Trace capture and journaling do not
    change the route: the vector engine narrates the boundary checks it
    skips, so traces do not depend on the engine, and a ledger header
    already pins the package version its replays came from.
    """
    if engine == "event" or spec.faults is not None:
        return "event"
    return "vector" if spec_vector_eligible(spec) else "event"


# One persistent pool per worker count: reusing workers across batches keeps
# their catalog caches warm over the many small batches an experiment emits.
_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(jobs)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=jobs)
        _POOLS[jobs] = pool
    return pool


def _discard_pool(jobs: int) -> None:
    """Drop a broken pool so the next batch gets a fresh one."""
    pool = _POOLS.pop(jobs, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@atexit.register
def _shutdown_pools() -> None:  # pragma: no cover
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


def _open_ledger(
    ledger: Union[str, Path, None],
    resume: bool,
    specs: Tuple[RunSpec, ...],
    fingerprints: Tuple[str, ...],
    batch_fp: str,
) -> Tuple[Optional[RunLedger], Dict[int, Tuple[SimulationResult, RunTelemetry]], bool]:
    """Open (or resume) the batch's journal.

    Returns ``(journal, replayed slots, resumed)``. With ``resume=True``
    an existing ledger is validated against ``batch_fp`` — a mismatch is a
    hard :class:`~repro.errors.LedgerError`, never a silent partial reuse
    — and its intact run records become pre-filled result slots. Without
    ``resume`` (or when no file exists yet) a fresh ledger is started;
    :meth:`RunLedger.start` refuses to clobber a same-batch journal.
    """
    if ledger is None:
        return None, {}, False
    path = resolve_ledger_path(ledger, batch_fp)
    if resume and path.exists():
        journal, state = RunLedger.load(path)
        if state.fingerprint != batch_fp:
            raise LedgerError(
                f"ledger {path} was written for a different batch "
                f"(ledger fingerprint {state.fingerprint[:16]}..., batch "
                f"{batch_fp[:16]}...); the specs, catalogs, or package "
                "version changed — delete the ledger to start over"
            )
        if state.runs != len(specs):
            raise LedgerError(
                f"ledger {path} records a {state.runs}-run batch; "
                f"this batch has {len(specs)} runs"
            )
        replayed: Dict[int, Tuple[SimulationResult, RunTelemetry]] = {}
        for index, record in state.records.items():
            if not 0 <= index < len(specs):
                raise LedgerError(
                    f"ledger {path} records run index {index} outside the batch"
                )
            if record.fingerprint != fingerprints[index]:
                raise LedgerError(
                    f"ledger {path} run {index} fingerprint does not match "
                    "its spec — the file was modified"
                )
            replayed[index] = (record.result, record.telemetry)
        return journal, replayed, True
    return RunLedger.start(path, batch_fp, len(specs)), {}, False


def run_batch(
    runs: Union[BatchSpec, Sequence[RunSpec]],
    *,
    jobs: int = 1,
    cache: Optional[TraceCatalogCache] = None,
    progress: Optional[ProgressCallback] = None,
    retries: int = DEFAULT_RETRIES,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    ledger: Union[str, Path, None] = None,
    resume: bool = False,
    engine: str = "auto",
) -> BatchResult:
    """Execute a batch of runs and return results in submission order.

    Parameters
    ----------
    runs:
        A :class:`BatchSpec` or sequence of :class:`RunSpec`.
    engine:
        ``"auto"`` (default) routes each eligible run — vectorizable
        policies, no faults — through the vectorized batch engine (with
        serial-path cross-run fusion for untraced runs, journaled or not)
        and the rest per-event; ``"event"`` forces the per-event engine
        batch-wide. Results and traces are bit-identical across engines;
        each run's :class:`RunTelemetry.engine_kind` reports which one
        executed it.
    jobs:
        Worker processes. ``1`` (the default) runs serially in-process;
        ``N > 1`` fans runs across ``N`` workers, which map each catalog
        from a segment directory the batch publishes once. Results are
        identical either way.
    cache:
        Trace-catalog cache for the serial path (defaults to this
        process's shared cache). Workers always use their process cache.
    progress:
        Called with each run's :class:`RunTelemetry` as it completes
        (completion order, which under ``jobs > 1`` may differ from
        submission order). Not called for runs replayed from a ledger.
    retries:
        Per-run retry budget for crashed attempts (injected or organic);
        each retry re-executes the same pure spec, so retried runs are
        byte-identical to first-try runs. The consumed attempts surface on
        :class:`~repro.runtime.telemetry.RunTelemetry.attempts`.
    retry_backoff_s:
        Base sleep before a retry; doubles per attempt.
    ledger:
        Journal each completed run to this append-only JSONL file (a
        directory gets one per-batch file named by batch fingerprint).
        Appends are atomic, so an orchestrator killed mid-batch loses at
        most the run it was writing. Without ``resume``, an existing
        ledger already journaling this same batch is refused (not
        silently truncated) — pass ``resume=True`` or delete the file.
        See :mod:`repro.runtime.ledger`.
    resume:
        With ``ledger``, validate an existing journal's batch fingerprint
        and replay its completed runs instead of re-executing them —
        the final :class:`BatchResult` is byte-identical to an
        uninterrupted run at any ``jobs``. A fingerprint mismatch raises
        :class:`~repro.errors.LedgerError`; a missing file simply starts
        a fresh journal.
    """
    specs: Tuple[RunSpec, ...] = tuple(runs.runs if isinstance(runs, BatchSpec) else runs)
    if not specs:
        raise ConfigurationError("batch needs at least one run")
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if retries < 0:
        raise ConfigurationError("retries must be >= 0")
    if resume and ledger is None:
        raise ConfigurationError("resume=True needs a ledger path")
    if engine not in ENGINE_KINDS:
        raise ConfigurationError(
            f"unknown engine {engine!r} (choices: {', '.join(ENGINE_KINDS)})"
        )
    if cache is None:
        cache = shared_catalog_cache()
    if trace_capture_active():
        # An observe(trace=True) scope is watching: flip every run to event
        # capture. Capture never changes results, only telemetry payloads.
        # (Fingerprints exclude capture_trace, so ledgers are unaffected.)
        specs = tuple(
            s if s.capture_trace else s.with_(capture_trace=True) for s in specs
        )

    journal: Optional[RunLedger] = None
    fingerprints: Tuple[str, ...] = ()
    resumed = False
    batch_start = time.perf_counter()
    slots: List[Optional[Tuple[SimulationResult, RunTelemetry]]] = [None] * len(specs)
    if ledger is not None:
        fingerprints = tuple(spec_fingerprint(s) for s in specs)
        journal, replayed, resumed = _open_ledger(
            ledger, resume, specs, fingerprints, batch_fingerprint(specs)
        )
        for i, pair in replayed.items():
            slots[i] = pair

    def _complete(i: int, pair: Tuple[SimulationResult, RunTelemetry]) -> None:
        """One run finished executing: journal it, then report progress.

        Journaling first is what makes `kill after n runs` recoverable:
        a run either reached the ledger or will re-execute on resume.
        """
        slots[i] = pair
        if journal is not None:
            journal.record_run(i, fingerprints[i], pair[0], pair[1])
        if progress is not None:
            progress(pair[1])

    pending = [i for i in range(len(specs)) if slots[i] is None]
    parallel_runs = 0
    shm_catalogs = 0
    deduped_runs = 0
    fused_groups = 0
    engines = tuple(_resolve_engine(s, engine) for s in specs)

    try:
        if jobs == 1 or len(pending) <= 1:
            # Serial path: dedupe vector-routed runs with identical
            # dynamics and share boundary-scan contexts per catalog group.
            # The first spec of each twin group (submission order) is its
            # representative; twins complete as soon as it has, so the
            # progress callback still fires in submission order.
            from repro.runtime.fused import band_matches, plan_fusion, rank_projection

            plan = plan_fusion(specs, pending, engines)
            twin_of = plan.twin_of
            context_of = dict(plan.context_of)
            fused_groups = plan.groups
            # Second dedupe tier, catalog-aware: once a run's catalog is in
            # the cache, bidding thresholds can be *rank-projected* against
            # the trace's price ladder — thresholds in the same gap between
            # trace prices configure provably identical runs. Reverse
            # thresholds get a sharper test still: each executed
            # representative records the envelope of prices its trajectory
            # actually compared against the reverse predicate
            # (``reverse_band``), and any later spec whose thresholds fall
            # inside that envelope would have made the identical call at
            # every comparison — so it clones. The first run of each
            # catalog executes (and builds the catalog); everyone after it
            # gets the refinement.
            rank_rep: Dict[tuple, int] = {}
            band_reps: Dict[tuple, List[Tuple[dict, int]]] = {}
            ladders: Dict[tuple, object] = {}
            for i in pending:
                rep = twin_of.get(i)
                if rep is not None:
                    # Static twins expand strictly after their
                    # representative's (fused) evaluation and never join a
                    # fusion group themselves, so `deduped_runs` and
                    # `fused_runs` can never double-count.
                    assert i not in context_of
                rkey = reverse = None
                if rep is None and engines[i] == "vector":
                    ck = specs[i].catalog_key()
                    catalog = cache.peek(ck) if ck is not None else None
                    if catalog is not None:
                        proj = rank_projection(specs[i], catalog, ladders)
                        if proj is not None:
                            rkey, reverse = proj
                            if reverse is None:
                                rep = rank_rep.get(rkey)
                            else:
                                for band, j in band_reps.get(rkey, ()):
                                    if band_matches(band, reverse):
                                        rep = j
                                        break
                        if rep is not None:
                            # The twin consumed the cached catalog to prove
                            # its equivalence; account the lookup as a hit.
                            cache.get_or_build(ck)
                if rep is None:
                    notes: dict = {}
                    _complete(
                        i,
                        _execute_one(
                            specs[i],
                            cache,
                            retries,
                            retry_backoff_s,
                            engines[i],
                            fused=context_of.get(i),
                            notes=notes,
                        ),
                    )
                    if engines[i] == "vector" and rkey is None:
                        # This run built its catalog: project its key now
                        # so later threshold-equivalent specs clone it.
                        ck = specs[i].catalog_key()
                        catalog = cache.peek(ck) if ck is not None else None
                        if catalog is not None:
                            proj = rank_projection(specs[i], catalog, ladders)
                            if proj is not None:
                                rkey, reverse = proj
                    if rkey is not None:
                        if reverse is None:
                            rank_rep.setdefault(rkey, i)
                        else:
                            band = notes.get("reverse_band")
                            if band is not None:
                                band_reps.setdefault(rkey, []).append((band, i))
                    continue
                rep_pair = slots[rep]
                # A representative precedes its twins or was replayed.
                assert rep_pair is not None
                rep_result, rep_telemetry = rep_pair
                # The spec's own label when set; otherwise the default label
                # is a pure function of the dynamics key (bidding name is in
                # the signature), so the representative's label is the twin's.
                label = specs[i].label or rep_result.label
                _complete(
                    i,
                    (
                        dataclasses.replace(rep_result, label=label),
                        dataclasses.replace(
                            rep_telemetry,
                            label=label,
                            deduped=True,
                            fused=False,
                            replayed=False,
                            # The clone resolved no catalog of its own; keep
                            # the batch's build/hit accounting honest.
                            catalog_cache_hit=True,
                            catalog_wall_s=0.0,
                            catalog_source="cache",
                        ),
                    ),
                )
                deduped_runs += 1
        elif pending:
            portable: List[Tuple[int, object]] = []
            local: List[int] = []
            for i in pending:
                key = specs[i].catalog_key()
                if key is None or not specs[i].is_portable():
                    local.append(i)
                else:
                    portable.append((i, key))
            pool = _get_pool(jobs)
            # Publish each unique catalog once, then fan out PER RUN: every
            # worker maps the same segment files, so runs sharing a catalog
            # need not share a worker. The spill directory lives until every
            # future has resolved or the batch aborts.
            spill_dir = Path(tempfile.mkdtemp(prefix="repro-catalogs-"))
            try:
                directories: Dict[object, Optional[str]] = {}
                for _, key in portable:
                    if key in directories:
                        continue
                    catalog, _, _ = cache.get_or_build(key)  # type: ignore[arg-type]
                    try:
                        directories[key] = publish_catalog(catalog, spill_dir)
                        shm_catalogs += 1
                    except OSError:
                        directories[key] = None  # workers build it locally
                futures = [
                    (
                        i,
                        pool.submit(
                            _execute_mapped,
                            specs[i],
                            directories[key],
                            retries,
                            retry_backoff_s,
                            engines[i],
                        ),
                    )
                    for i, key in portable
                ]
                # Non-portable runs execute in-process while the pool churns.
                for i in local:
                    _complete(
                        i, _execute_one(specs[i], cache, retries, retry_backoff_s, engines[i])
                    )
                for i, future in futures:
                    try:
                        pair = future.result()
                    except BrokenProcessPool:
                        # The pool died (hard worker crash, OOM kill, ...).
                        # Discard it and fall back to in-process execution for
                        # this run — results are identical, only slower.
                        _discard_pool(jobs)
                        pair = _execute_one(specs[i], cache, retries, retry_backoff_s, engines[i])
                    else:
                        parallel_runs += 1
                    _complete(i, pair)
            finally:
                shutil.rmtree(spill_dir, ignore_errors=True)
    finally:
        if journal is not None:
            journal.close()

    results = tuple(pair[0] for pair in slots)  # type: ignore[union-attr]
    run_telemetry = tuple(pair[1] for pair in slots)  # type: ignore[union-attr]
    # Report to observation scopes in submission order — this, not worker
    # completion order, is what keeps trace files identical at any --jobs.
    for t in run_telemetry:
        notify_run(
            t.label, t.seed, t.trace_events, t.metrics,
            engine=t.engine_kind, fused=t.fused, deduped=t.deduped,
        )
    telemetry = BatchTelemetry(
        runs=len(specs),
        wall_s=time.perf_counter() - batch_start,
        catalog_builds=sum(1 for t in run_telemetry if not t.catalog_cache_hit),
        catalog_cache_hits=sum(1 for t in run_telemetry if t.catalog_cache_hit),
        events_processed=sum(t.events_processed for t in run_telemetry),
        jobs=jobs,
        parallel_runs=parallel_runs,
        shm_catalogs=shm_catalogs,
        resumed=resumed,
        replayed_runs=len(specs) - len(pending),
        engine=engine,
        vector_runs=sum(1 for t in run_telemetry if t.engine_kind == "vector"),
        vector_checks=sum(t.vector_checks for t in run_telemetry),
        deduped_runs=deduped_runs,
        fused_groups=fused_groups,
        fused_runs=sum(1 for t in run_telemetry if t.fused),
    )
    notify_batch(telemetry)
    return BatchResult(results=results, run_telemetry=run_telemetry, telemetry=telemetry)
