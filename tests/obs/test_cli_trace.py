"""The --trace/--metrics flags and the repro-trace summarize command."""

import json

import pytest

from repro.cli import main as simulate_main
from repro.obs.cli import main as trace_main

CHEAP = ["--days", "2", "--seeds", "11", "23"]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One cheap traced repro-simulate run shared by the CLI tests."""
    path = tmp_path_factory.mktemp("trace") / "t.jsonl"
    rc = simulate_main(CHEAP + ["--trace", str(path), "--metrics"])
    assert rc == 0
    return path


class TestSimulateFlags:
    def test_trace_file_holds_tagged_event_records(self, traced):
        records = [json.loads(line) for line in traced.read_text().splitlines()]
        assert records
        assert {"bid-placed", "lease-acquired", "billing-tick",
                "engine-run-completed"} <= {r["type"] for r in records}
        assert all("run" in r and "seed" in r for r in records)
        assert {r["seed"] for r in records} == {11, 23}

    def test_default_output_is_a_prefix_of_traced_output(self, tmp_path, capsys):
        assert simulate_main(CHEAP) == 0
        plain = capsys.readouterr().out
        rc = simulate_main(
            CHEAP + ["--trace", str(tmp_path / "t.jsonl"), "--metrics"]
        )
        traced_out = capsys.readouterr().out
        assert rc == 0
        # The observability footer only appends: the report itself is
        # byte-identical with tracing on or off.
        assert traced_out.startswith(plain)
        assert "trace:" in traced_out and "run metrics" in traced_out


class TestTraceSummarize:
    def test_summarize_renders_each_run(self, traced, capsys):
        assert trace_main(["summarize", str(traced)]) == 0
        out = capsys.readouterr().out
        assert "event(s) across 2 run(s)" in out
        assert out.count("== ") == 2
        # Headings carry the seed plus the engine that executed the run
        # (traced runs route like untraced ones: these vectorize).
        assert "(seed 11, vector engine)" in out and "(seed 23, vector engine)" in out
        assert "voluntary migration(s)" in out
        assert "bid-placed" in out

    def test_timeline_filters_by_type(self, traced, capsys):
        rc = trace_main(
            ["summarize", str(traced), "--timeline", "--types", "bid-placed"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        timeline = [l for l in out.splitlines() if "bid $" in l]
        assert timeline
        assert "billing-tick  " not in out.split("== ", 1)[1].split("\n\n")[-1]

    def test_timeline_limit_truncates(self, traced, capsys):
        assert trace_main(["summarize", str(traced), "--timeline", "--limit", "1"]) == 0
        assert "more event(s)" in capsys.readouterr().out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert trace_main(["summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_empty_file_is_not_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert trace_main(["summarize", str(empty)]) == 0
        assert "empty trace" in capsys.readouterr().out
