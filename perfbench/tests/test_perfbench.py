"""Tests of the benchmark itself: output contract, checks, span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import PASS, BATCH, Span, Tracer, covered_length, self_times

ROOT = Path(__file__).resolve().parents[2]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ------------------------------------------------------------ output contract
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _ in expected
    }
    for name, _, _ in expected:
        assert name in proc.stdout.split("\n{")[0]  # human-readable report too
    if trace:
        assert result["metrics"]["bench.layer_coverage_share"]["value"] >= run.MIN_COVERAGE


def test_benchmark_json_matches_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    e2e = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == set(run.END_TO_END)
    assert layer == set(run.PER_LAYER)


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = bench("--workload", "frontier-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ------------------------------------------------------------ correctness checks
def test_perturbed_cost_trips_the_event_engine_check():
    w = workloads.FrontierSweep(seed=2, scale="tiny")
    out = w.run_pass()
    assert w.check(out) == []
    victim = workloads._sample(w.seed, len(w.specs), workloads.SAMPLE_RUNS)[0]
    results = list(out.results)
    results[victim] = dataclasses.replace(
        results[victim], total_cost=results[victim].total_cost + 0.01
    )
    bad = dataclasses.replace(out, results=tuple(results))
    failures = w.check(bad)
    assert [f.run for f in failures] == [victim]
    assert "total_cost" in failures[0].message
    assert bad.digest != out.digest


def test_perturbed_fleet_report_trips_the_fleet_checks():
    w = workloads.FleetMix(seed=2, scale="tiny")
    out = w.run_pass()
    assert w.check(out) == []
    report = out.reports[0]
    bad_report = dataclasses.replace(report, total_cost=report.total_cost + 1.0)
    failures = w.check(dataclasses.replace(out, reports=(bad_report,)))
    assert failures
    assert any("verify_fleet" in f.message for f in failures)


# ------------------------------------------------------------ span arithmetic
def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, BATCH)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(0, PASS, 0.0, 10.0),
        _span(1, "runtime.executor", 1.0, 9.0, parent=0),
        # Two children overlapping on [3, 4]: union is [2, 6] = 4.
        _span(2, "core.simulate", 2.0, 4.0, parent=1),
        _span(3, "traces.catalog_build", 3.0, 6.0, parent=1),
        # A grandchild only reduces its own parent.
        _span(4, "runtime.ledger.record", 5.0, 5.5, parent=3),
        # Child sticking out of its parent is clipped to the parent.
        _span(5, "core.simulate", 8.5, 9.5, parent=1),
    ]
    st = self_times(spans)
    assert st[PASS] == pytest.approx(2.0)
    assert st["runtime.executor"] == pytest.approx(8.0 - 4.0 - 0.5)
    assert st["core.simulate"] == pytest.approx(2.0 + 1.0)
    assert st["traces.catalog_build"] == pytest.approx(2.5)
    assert st["runtime.ledger.record"] == pytest.approx(0.5)


def test_covered_length_merges_and_clips():
    assert covered_length([], 0, 1) == 0
    assert covered_length([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == pytest.approx(3.0)
    assert covered_length([(4, 5)], 0, 3) == 0


def test_tracer_restores_every_wrapped_function():
    import repro.runtime
    from repro.runtime.cache import CatalogKey

    before = (repro.runtime.run_batch, CatalogKey.build)
    tracer = Tracer()
    with tracer.installed():
        assert repro.runtime.run_batch is not before[0]
        with tracer.span(PASS):
            w = workloads.FrontierSweep(seed=3, scale="tiny")
            repro.runtime.run_batch(w.specs[:4], cache=repro.runtime.TraceCatalogCache())
    assert (repro.runtime.run_batch, CatalogKey.build) == before
    spans = tracer.finish()
    names = {s.name for s in spans}
    assert {PASS, "runtime.executor", "core.simulate", "traces.catalog_build"} <= names
    build = next(s for s in spans if s.name == "traces.catalog_build")
    assert build.run == "0:0"  # joined to the run that needed it
    assert all(s.run.startswith("0:") for s in spans if s.name == "core.simulate")
