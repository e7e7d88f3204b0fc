"""Command-line entry point: ``repro-experiments [ids...]``.

Runs the requested experiments (default: all) and prints each report —
tables, ASCII figures, and the paper-vs-measured comparison.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.common import DEFAULT_SEEDS, ExperimentConfig
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.obs import observe
from repro.runtime import ENGINE_KINDS, collect_telemetry
from repro.units import days

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Cutting the Cost of "
        "Hosting Online Services Using Cloud Spot Markets' (HPDC'15).",
    )
    p.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids to run (default: all). Available: {', '.join(sorted(EXPERIMENTS))}",
    )
    p.add_argument("--list", action="store_true", help="list experiment ids and exit")
    p.add_argument("--fast", action="store_true", help="small seeds/horizon smoke run")
    p.add_argument(
        "--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS),
        help="trace-sample seeds",
    )
    p.add_argument(
        "--days", type=float, default=30.0, help="trace horizon in days (default 30)"
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the seed×variant fan-out (default 1 = "
        "serial; results are identical at any worker count)",
    )
    p.add_argument(
        "--engine", choices=ENGINE_KINDS, default="auto",
        help="execution engine: 'auto' (default) vectorizes and fuses "
        "eligible batches, 'event' forces the per-event engine — results "
        "are bit-identical; the footer reports which engine ran each batch",
    )
    p.add_argument(
        "--ledger", metavar="DIR", default=None,
        help="journal every batch to crash-safe run ledgers under DIR "
        "(one JSONL file per batch, named by batch fingerprint)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="with --ledger: replay runs already journaled under DIR and "
        "execute only the remainder — reports are byte-identical to an "
        "uninterrupted run",
    )
    p.add_argument(
        "--markdown", metavar="DIR", default=None,
        help="also write each report as Markdown into DIR",
    )
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a JSONL decision trace of every run to PATH, tagged "
        "with its experiment id (inspect with 'repro-trace summarize')",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="print each experiment's merged run metrics after its report",
    )
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for eid in sorted(EXPERIMENTS):
            print(f"{eid:8s} {EXPERIMENTS[eid].TITLE}")
        return 0
    ids = args.experiments or sorted(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        print(f"available: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.resume and args.ledger is None:
        print("--resume needs --ledger DIR", file=sys.stderr)
        return 2
    cfg = ExperimentConfig(
        seeds=tuple(args.seeds), horizon_s=days(args.days), fast=args.fast,
        jobs=args.jobs, ledger_dir=args.ledger, resume=args.resume,
        engine=args.engine,
    )
    md_dir = None
    if args.markdown is not None:
        from pathlib import Path

        md_dir = Path(args.markdown)
        md_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    trace_fp = None
    if args.trace is not None:
        trace_fp = open(args.trace, "w", encoding="utf-8")
    try:
        for eid in ids:
            start = time.perf_counter()
            with collect_telemetry() as tel, observe(
                trace=trace_fp is not None, metrics=args.metrics
            ) as scope:
                report = run_experiment(eid, cfg)
            elapsed = time.perf_counter() - start
            if tel.batches:
                report.runtime_telemetry = tel.summary()
            # Telemetry, traces and metrics stay out of the rendered report
            # so report artifacts are byte-identical at any --jobs and with
            # or without --trace/--metrics; the footer carries them instead.
            print(report.render())
            print(f"[{eid} completed in {elapsed:.1f}s | {tel.summary()}]")
            if trace_fp is not None:
                n = scope.write_jsonl(trace_fp, extra_tags={"experiment": eid})
                print(f"[{eid} trace: {n} event(s) -> {args.trace}]")
            if args.metrics:
                print(f"[{eid} run metrics]")
                print(scope.metrics_summary())
            print()
            if md_dir is not None:
                from repro.analysis.export import report_to_markdown

                (md_dir / f"{eid}.md").write_text(report_to_markdown(report))
            if not report.all_hold():
                failures += 1
    finally:
        if trace_fp is not None:
            trace_fp.close()
    if failures:
        print(f"{failures} experiment(s) deviated from the paper's claims", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
