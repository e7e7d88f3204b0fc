"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload frontier-sweep --seed 1 --seconds 20 --trace 0

From the root of a source checkout. ``--trace 0`` measures the end-to-end
metrics: set-up time from fresh interpreters, then untimed warm-up and
timed passes with tracing off. ``--trace 1`` runs the same timed passes
and then traced passes, and reports the per-layer metrics. Either way the
outputs are checked for correctness outside the timed region. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report. Exit status is 0 only when every check passed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

WORKLOAD_NAMES = ("frontier-sweep", "fleet-mix", "observed-sweep")

#: Fresh interpreters started per run to measure set-up time.
SETUP_PROBES = 5
#: At least this many timed passes, however long they take.
MIN_PASSES = 3
#: Traced passes per ``--trace 1`` run.
TRACED_PASSES = 3
#: Layer self times must cover this share of a traced pass.
MIN_COVERAGE = 0.95

#: ``(name, unit, better)`` of every end-to-end metric (``--trace 0``).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("runs_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

#: ``(name, unit, better)`` of every per-layer metric (``--trace 1``).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("repro.import_s", "s", "lower"),
    ("repro.modules_loaded", "count", "lower"),
    ("traces.catalog_build_s", "s", "lower"),
    ("traces.catalog_builds", "count", "lower"),
    ("traces.cache_hit_ratio", "share", "higher"),
    ("runtime.fused.plan_s", "s", "lower"),
    ("runtime.fused.rank_projection_s", "s", "lower"),
    ("runtime.fused.rank_projection_calls", "count", "lower"),
    ("runtime.fused.clone_share", "share", "higher"),
    ("runtime.fused.fused_runs", "count", "higher"),
    ("runtime.executor.self_s", "s", "lower"),
    ("runtime.executor.executed_runs", "count", "lower"),
    ("runtime.executor.retry_share", "share", "lower"),
    ("core.simulate_s", "s", "lower"),
    ("core.simulate_ms_p50", "ms", "lower"),
    ("core.simulate_ms_p99", "ms", "lower"),
    ("simulator.events_processed", "count", "lower"),
    ("runtime.vector.run_share", "share", "higher"),
    ("runtime.vector.checks", "count", "lower"),
    ("runtime.ledger.record_s", "s", "lower"),
    ("runtime.ledger.bytes_per_run", "B", "lower"),
    ("obs.trace_events", "count", "higher"),
    ("runtime.shm.publish_s", "s", "lower"),
    ("runtime.shm.catalogs", "count", "lower"),
    ("runtime.pool.worker_busy_share", "share", "higher"),
    ("runtime.pool.parent_wait_s", "s", "lower"),
    ("fleet.assemble_s", "s", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
    ("bench.layer_coverage_share", "share", "higher"),
)


# ------------------------------------------------------------------- set-up
def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )


def probe(workload: str, seed: int, scale: str) -> None:
    """Child side of a set-up probe: import, build the inputs, report."""
    t0 = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t0
    modules = sum(1 for m in sys.modules if m == "repro" or m.startswith("repro."))
    import workloads

    workloads.WORKLOADS[workload](seed, scale)
    print(json.dumps({"import_s": import_s, "modules_loaded": modules}), flush=True)


def measure_setup(workload: str, seed: int, scale: str, n: int) -> List[dict]:
    """Launch ``n`` fresh interpreters; time each until its inputs are ready."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed), "--scale", scale]
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with status {code}")
        sample = json.loads(line)
        sample["setup_s"] = setup_s
        samples.append(sample)
    return samples


# -------------------------------------------------------------- fingerprint
def fingerprint(path: Path) -> Dict[str, object]:
    """What the numbers were measured on; results from two boxes differ."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs = "unknown"
    try:
        real = str(path.resolve())
        best = ""
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                mount, kind = parts[1], parts[2]
                inside = real == mount or real.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fs = mount, kind
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ledger_fs": fs,
    }


# ------------------------------------------------------------------ metrics
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def peak_rss_mib() -> float:
    import resource

    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(spans, batches, out, jobs: int) -> Dict[str, float]:
    """Per-layer numbers of one traced pass.

    ``spans`` come from the benchmark's wrappers in this process;
    ``batches`` are the ``BatchResult`` objects ``run_batch`` returned, whose
    telemetry covers what ran in pool workers.
    """
    import numpy as np

    from spans import LAYER_TARGETS, PASS, self_times

    self_s = self_times(spans)
    calls = Counter(s.name for s in spans)
    pass_s = sum(s.duration for s in spans if s.name == PASS)
    runs = sum(b.telemetry.runs for b in batches)
    parent = os.getpid()
    worker = [
        t for b in batches for t in b.run_telemetry
        if t.worker_pid != parent and not t.deduped and not t.replayed
    ]
    simulate = [s.duration for s in spans if s.name == "core.simulate"]
    simulate += [t.wall_s - t.catalog_wall_s for t in worker]
    sim_ms = np.asarray(simulate) * 1e3 if simulate else np.zeros(1)
    # Pool-mode run_batch self time is the parent waiting on workers plus
    # its own bookkeeping between child spans.
    pooled = any(b.telemetry.parallel_runs for b in batches)
    parent_wait = self_s.get("runtime.executor", 0.0) if pooled else 0.0
    tel = [b.telemetry for b in batches]
    deduped = sum(t.deduped_runs for t in tel)
    replayed = sum(t.replayed_runs for t in tel)
    all_runs = [t for b in batches for t in b.run_telemetry]
    covered = sum(self_s.get(layer, 0.0) for _, _, layer in LAYER_TARGETS)
    return {
        "traces.catalog_build_s": self_s.get("traces.catalog_build", 0.0),
        "traces.catalog_builds": calls.get("traces.catalog_build", 0),
        "traces.cache_hit_ratio": sum(t.catalog_cache_hits for t in tel) / runs,
        "runtime.fused.plan_s": self_s.get("runtime.fused.plan", 0.0),
        "runtime.fused.rank_projection_s": self_s.get("runtime.fused.rank_projection", 0.0),
        "runtime.fused.rank_projection_calls": calls.get("runtime.fused.rank_projection", 0),
        "runtime.fused.clone_share": deduped / runs,
        "runtime.fused.fused_runs": sum(t.fused_runs for t in tel),
        "runtime.executor.self_s": self_s.get("runtime.executor", 0.0),
        "runtime.executor.executed_runs": runs - deduped - replayed,
        "runtime.executor.retry_share": sum(1 for t in all_runs if t.attempts > 1) / runs,
        "core.simulate_s": float(sum(simulate)),
        "core.simulate_ms_p50": float(np.percentile(sim_ms, 50)),
        "core.simulate_ms_p99": float(np.percentile(sim_ms, 99)),
        "simulator.events_processed": sum(t.events_processed for t in tel),
        "runtime.vector.run_share": sum(t.vector_runs for t in tel) / runs,
        "runtime.vector.checks": sum(t.vector_checks for t in tel),
        "runtime.ledger.record_s": self_s.get("runtime.ledger.record", 0.0),
        "runtime.ledger.bytes_per_run": out.ledger_bytes / runs,
        "obs.trace_events": out.trace_events,
        "runtime.shm.publish_s": self_s.get("runtime.shm.publish", 0.0),
        "runtime.shm.catalogs": sum(t.shm_catalogs for t in tel),
        "runtime.pool.worker_busy_share": (
            sum(t.wall_s for t in worker) / (jobs * pass_s) if worker else 0.0
        ),
        "runtime.pool.parent_wait_s": parent_wait,
        "fleet.assemble_s": self_s.get("fleet.assemble", 0.0),
        "bench.layer_coverage_share": covered / pass_s,
    }


# ----------------------------------------------------------------- teardown
def stop_processes() -> None:
    """Stop the worker pools and helper processes the program started.

    The runtime keeps one persistent pool per worker count and only shuts
    it down without waiting at exit; the shared-memory resource tracker
    outlives its parent unless stopped. Both are stopped here and waited
    for, so no process of this run survives it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.runtime import executor

    for pool in list(executor._POOLS.values()):
        pool.shutdown(wait=True)
    executor._POOLS.clear()
    resource_tracker._resource_tracker._stop()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10)


# --------------------------------------------------------------------- main
def report_line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<38} {value:>16.6g} {unit:<6} {note}".rstrip())


def run(args: argparse.Namespace) -> int:
    import workloads
    from spans import PASS, Tracer, self_times

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    machine = fingerprint(OUT)
    print("fingerprint " + json.dumps(machine, sort_keys=True))

    setup = measure_setup(args.workload, args.seed, args.scale, SETUP_PROBES)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
        reference = w.run_pass()  # warm-up: pool start, code paths, lazy imports
        attempted = reference.runs
        digests = [reference.digest]
        walls: List[float] = []
        t0 = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
            out = w.run_pass()
            walls.append(out.wall_s)
            digests.append(out.digest)
            attempted += out.runs
        rss = peak_rss_mib()

        traced = []
        if args.trace:
            for _ in range(TRACED_PASSES):
                tracer = Tracer()
                w.tracer = tracer
                with tracer.installed():
                    t_out = w.run_pass()
                w.tracer = None
                traced.append((tracer.finish(), tracer.batches, t_out))
                digests.append(t_out.digest)
                attempted += t_out.runs

        failures = w.check(out)
        failed_runs = sum(f.runs for f in failures)
        mismatched = [i for i, d in enumerate(digests) if d != digests[0]]
        if mismatched:
            failures.append(workloads.Failure(-1, out.runs * len(mismatched),
                                              f"results digest differs in passes {mismatched}"))
            failed_runs += out.runs * len(mismatched)
    finally:
        stop_processes()
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(walls)
    q1, wall, q3 = quartiles(walls)
    setup_q = quartiles([s["setup_s"] for s in setup])
    metrics: Dict[str, float] = {}
    print(f"end to end ({n} timed passes of {out.runs} runs; quartiles in brackets)")
    e2e = {
        "setup_s": (setup_q[1], f"median of {len(setup)} fresh interpreters "
                                f"[{setup_q[0]:.4g}, {setup_q[2]:.4g}]"),
        "wall_s": (wall, f"median of {n} [{q1:.4g}, {q3:.4g}]"),
        "runs_per_s": (out.runs / wall, f"median of {n} [{out.runs / q3:.4g}, {out.runs / q1:.4g}]"),
        "peak_rss_mib": (rss, "1 sample, after the timed passes"),
    }
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    for name, (value, note) in e2e.items():
        report_line(name, value, units[name], note)
    failed_share = min(failed_runs, attempted) / attempted
    report_line("failed_run_share", failed_share, "share",
                f"{failed_runs} of {attempted} runs attempted")
    if not args.trace:
        metrics = {name: value for name, (value, _) in e2e.items()}

    OUT.mkdir(parents=True, exist_ok=True)
    coverage_ok = True
    if args.trace:
        per_pass = [layer_metrics(spans, batches, t_out, w.jobs) for spans, batches, t_out in traced]
        traced_wall = statistics.median(t_out.wall_s for _, _, t_out in traced)
        layer = {
            name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]
        }
        layer["repro.import_s"] = statistics.median(s["import_s"] for s in setup)
        layer["repro.modules_loaded"] = setup[0]["modules_loaded"]
        layer["bench.trace_overhead_share"] = (traced_wall - wall) / wall
        spans, _, _ = traced[len(traced) // 2]
        self_s, calls = self_times(spans), Counter(s.name for s in spans)
        pass_s = sum(s.duration for s in spans if s.name == PASS)
        print(f"layer self time (traced pass {len(traced) // 2 + 1} of {len(traced)}, "
              f"{pass_s:.4g} s)")
        for name in sorted(self_s, key=self_s.get, reverse=True):
            print(f"  {name:<38} {self_s[name]:>12.6f} s {100 * self_s[name] / pass_s:6.2f} % "
                  f"{calls[name]:>8} calls")
        print(f"per layer (median of {len(traced)} traced passes)")
        for name, unit, _ in PER_LAYER:
            report_line(name, layer[name], unit)
        coverages = [m["bench.layer_coverage_share"] for m in per_pass]
        coverage_ok = min(coverages) >= MIN_COVERAGE
        print(f"layer coverage {'ok' if coverage_ok else 'FAILED'}: self times cover "
              f"{100 * min(coverages):.2f} % of the traced pass at worst (need >= "
              f"{100 * MIN_COVERAGE:.0f} %)")
        metrics = {name: layer[name] for name, _, _ in PER_LAYER}
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w",
                  encoding="utf-8") as fh:
            for p, (spans, _, _) in enumerate(traced):
                for s in spans:
                    fh.write(json.dumps({"pass": p, **dataclasses.asdict(s)}) + "\n")

    for f in failures:
        print(f"CHECK FAILED: {f.message}")
    correct = not failures and coverage_ok
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": machine, "correct": correct, "pass_wall_s": walls,
        "setup": setup, "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"checks {'passed' if correct else 'FAILED'}: event-engine sample, "
          f"workload oracles, digest over {len(digests)} passes")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": min(failed_runs, attempted),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the benchmark's own tests")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    _use_checkout_source()
    if args.probe:
        probe(args.workload, args.seed, args.scale)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
