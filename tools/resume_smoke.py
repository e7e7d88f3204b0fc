#!/usr/bin/env python
"""CI smoke drill for crash-safe batch resume.

Runs the acceptance scenario from docs/RESUME.md end to end:

1. Launch a child orchestrator that journals a 4-run batch to a ledger
   and SIGKILLs itself (via ``kill_orchestrator_after_n_runs``) once two
   runs have completed.
2. Resume the batch from the surviving ledger.
3. Run the same batch uninterrupted, with no ledger, and demand a
   byte-identical report.

Exits nonzero (with a diagnostic) on any deviation.  The ledger file is
left at ``--ledger`` so CI can upload it as an artifact on failure.

Usage::

    python tools/resume_smoke.py [--jobs N] [--ledger PATH]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.runtime import RunSpec, StrategySpec, run_batch  # noqa: E402
from repro.traces.catalog import MarketKey  # noqa: E402
from repro.units import days  # noqa: E402

SEEDS = (1, 2, 3, 4)
KILL_AFTER = 2

_CHILD = textwrap.dedent(
    """
    import sys
    from repro.runtime import RunSpec, StrategySpec, run_batch
    from repro.testkit.faults import kill_orchestrator_after_n_runs
    from repro.traces.catalog import MarketKey
    from repro.units import days

    ledger, jobs, kill_after = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    specs = [
        RunSpec(
            strategy=StrategySpec.single(MarketKey("us-east-1a", "small")),
            seed=s,
            horizon_s=days(2),
            regions=("us-east-1a",),
            sizes=("small",),
        )
        for s in (1, 2, 3, 4)
    ]
    run_batch(specs, jobs=jobs, ledger=ledger,
              progress=kill_orchestrator_after_n_runs(kill_after))
    raise SystemExit(99)  # unreachable: the hook SIGKILLs us first
    """
)


def _specs() -> list[RunSpec]:
    return [
        RunSpec(
            strategy=StrategySpec.single(MarketKey("us-east-1a", "small")),
            seed=s,
            horizon_s=days(2),
            regions=("us-east-1a",),
            sizes=("small",),
        )
        for s in SEEDS
    ]


def _report_bytes(results) -> bytes:
    return json.dumps(
        [dataclasses.asdict(r) for r in results], sort_keys=True
    ).encode()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--ledger", type=Path, default=Path("resume-smoke.jsonl"))
    args = parser.parse_args(argv)

    args.ledger.parent.mkdir(parents=True, exist_ok=True)
    if args.ledger.exists():
        args.ledger.unlink()

    print(f"[resume-smoke] killing orchestrator after {KILL_AFTER} of "
          f"{len(SEEDS)} runs (jobs={args.jobs})")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    # No output pipes: orphaned pool workers would hold them open past the
    # SIGKILL and stall the wait. The child leads its own process group so
    # those workers are reaped with it.
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(args.ledger), str(args.jobs),
         str(KILL_AFTER)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        proc.wait(timeout=600)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != -signal.SIGKILL:
        print(f"[resume-smoke] FAIL: child exited {proc.returncode}, "
              f"expected SIGKILL ({-signal.SIGKILL})")
        return 1
    if not args.ledger.exists():
        print("[resume-smoke] FAIL: no ledger file survived the kill")
        return 1
    journaled = sum(
        1 for line in args.ledger.read_text().splitlines()[1:] if line.strip()
    )
    print(f"[resume-smoke] child SIGKILLed; ledger holds {journaled} "
          f"completed run(s)")
    if journaled < KILL_AFTER:
        print(f"[resume-smoke] FAIL: expected >= {KILL_AFTER} journaled runs")
        return 1

    print("[resume-smoke] resuming from the ledger")
    resumed = run_batch(_specs(), ledger=args.ledger, resume=True,
                        jobs=args.jobs)
    if not resumed.telemetry.resumed:
        print("[resume-smoke] FAIL: resumed batch not flagged as resumed")
        return 1
    if resumed.telemetry.replayed_runs != journaled:
        print(f"[resume-smoke] FAIL: replayed_runs="
              f"{resumed.telemetry.replayed_runs}, expected {journaled}")
        return 1

    print("[resume-smoke] running uninterrupted baseline")
    baseline = run_batch(_specs(), jobs=args.jobs)
    if _report_bytes(resumed.results) != _report_bytes(baseline.results):
        print("[resume-smoke] FAIL: resumed report differs from the "
              "uninterrupted baseline")
        return 1

    print(f"[resume-smoke] OK: byte-identical report, "
          f"{resumed.telemetry.replayed_runs} replayed + "
          f"{len(SEEDS) - journaled} re-executed run(s)")
    args.ledger.unlink()  # success: nothing to upload
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
