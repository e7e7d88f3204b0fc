"""The journaled run ledger: crash-safe batches, resumable byte-identically.

Covers the full recovery contract: atomic journaling, torn-tail
tolerance, fingerprint hard-failures, resuming across ``--jobs`` values,
and the end-to-end orchestrator-SIGKILL drill via
:func:`repro.testkit.faults.kill_orchestrator_after_n_runs`.
"""

import copy
import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, LedgerError
from repro.obs import observe
from repro.runtime import (
    RunLedger,
    RunSpec,
    StrategySpec,
    batch_fingerprint,
    resolve_ledger_path,
    run_batch,
    spec_fingerprint,
)
from repro.testkit.faults import kill_orchestrator_after_n_runs
from repro.traces.catalog import MarketKey
from repro.units import days

KEY = MarketKey("us-east-1a", "small")


def _spec(seed=1, **kw):
    return RunSpec(
        strategy=StrategySpec.single(KEY),
        seed=seed,
        horizon_s=days(2),
        regions=("us-east-1a",),
        sizes=("small",),
        **kw,
    )


def _specs(*seeds):
    return [_spec(seed=s) for s in seeds]


def _ledger_lines(path):
    return path.read_text().splitlines()


# --------------------------------------------------------------- fingerprints
class TestFingerprints:
    def test_fingerprint_is_stable(self):
        assert spec_fingerprint(_spec()) == spec_fingerprint(_spec())

    def test_fingerprint_sees_every_result_field(self):
        base = spec_fingerprint(_spec())
        assert spec_fingerprint(_spec(seed=2)) != base
        assert spec_fingerprint(_spec().with_(horizon_s=days(3))) != base
        assert spec_fingerprint(_spec().with_(label="x")) != base

    def test_capture_trace_excluded(self):
        # Trace capture changes telemetry payloads, never results, so a
        # batch resumed inside an observe(trace=True) scope still matches.
        assert spec_fingerprint(_spec()) == spec_fingerprint(
            _spec().with_(capture_trace=True)
        )

    def test_batch_fingerprint_sees_order(self):
        assert batch_fingerprint(_specs(1, 2)) != batch_fingerprint(_specs(2, 1))

    def test_fingerprint_pinned_value(self):
        # Every ledger on disk stores fingerprints like this one: moving or
        # renaming StrategySpec/RunSpec, or adding a field, breaks resume.
        from repro.core.bidding import ProactiveBidding

        spec = RunSpec(
            strategy=StrategySpec.single(MarketKey("us-east-1a", "small")),
            bidding=ProactiveBidding(k=2.0),
            seed=7,
            horizon_s=days(3),
            regions=("us-east-1a",),
            sizes=("small",),
            label="pin",
        )
        assert spec_fingerprint(spec) == (
            "c3d4f265ce4352152d143f654c4385f570851051f01083bef0e18e44f02438b1"
        )

    def test_callable_strategies_not_fingerprintable(self):
        # A function's qualified name does not say what it builds: two
        # closures from one factory would share a fingerprint, and a
        # resumed ledger would replay one strategy's result for the other.
        from repro.core.strategies import OnDemandOnlyStrategy
        from repro.runtime.spec import _canonical

        def factory():
            return OnDemandOnlyStrategy(KEY)

        with pytest.raises(ConfigurationError, match="cannot fingerprint"):
            _canonical(factory)
        with pytest.raises(ConfigurationError, match="cannot fingerprint"):
            _canonical(lambda: OnDemandOnlyStrategy(KEY))

    def test_same_named_dataclasses_from_different_modules_differ(self):
        from repro.runtime.spec import _canonical

        def make(module):
            @dataclasses.dataclass(frozen=True)
            class Overrides:
                x: int = 1

            Overrides.__module__ = module
            Overrides.__qualname__ = "Overrides"
            return Overrides

        assert _canonical(make("ext_a")()) != _canonical(make("ext_b")())

    def test_same_named_enums_from_different_modules_differ(self):
        import enum

        from repro.runtime.spec import _canonical

        def make(module):
            Mode = enum.Enum("Mode", ["FAST"])
            Mode.__module__ = module
            Mode.__qualname__ = "Mode"
            return Mode

        assert _canonical(make("ext_a").FAST) != _canonical(make("ext_b").FAST)


# ------------------------------------------------------------------ journaling
class TestJournaling:
    def test_ledger_written_one_record_per_run(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        batch = run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        assert len(lines) == 4  # header + 3 runs
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["runs"] == 3
        assert header["fingerprint"] == batch_fingerprint(_specs(1, 2, 3))
        indices = sorted(json.loads(l)["index"] for l in lines[1:])
        assert indices == [0, 1, 2]
        assert batch.telemetry.replayed_runs == 0
        assert not batch.telemetry.resumed

    def test_ledger_results_roundtrip_exactly(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        base = run_batch(_specs(1, 2))
        run_batch(_specs(1, 2), ledger=led)
        full_replay = run_batch(_specs(1, 2), ledger=led, resume=True)
        assert full_replay.results == base.results
        assert full_replay.telemetry.replayed_runs == 2
        assert all(t.replayed for t in full_replay.run_telemetry)

    def test_directory_ledger_gets_per_batch_file(self, tmp_path):
        run_batch(_specs(1, 2), ledger=tmp_path)
        run_batch(_specs(5, 6), ledger=tmp_path)
        files = sorted(tmp_path.glob("batch-*.jsonl"))
        assert len(files) == 2  # distinct batches, distinct fingerprints
        expected = resolve_ledger_path(tmp_path, batch_fingerprint(_specs(1, 2)))
        assert expected in files

    def test_trailing_slash_spells_directory_intent(self, tmp_path):
        # "/" is directory intent on every platform, not just where it
        # happens to equal os.sep; the directory is created on demand.
        fp = batch_fingerprint(_specs(1))
        resolved = resolve_ledger_path(str(tmp_path / "ledgers") + "/", fp)
        assert resolved.parent == tmp_path / "ledgers"
        assert resolved.parent.is_dir()
        assert resolved.name == f"batch-{fp[:16]}.jsonl"

    def test_plain_file_path_used_verbatim(self, tmp_path):
        fp = batch_fingerprint(_specs(1))
        target = tmp_path / "one.jsonl"
        assert resolve_ledger_path(target, fp) == target

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        led = tmp_path / "new.jsonl"
        batch = run_batch(_specs(1, 2), ledger=led, resume=True)
        assert not batch.telemetry.resumed
        assert batch.telemetry.replayed_runs == 0
        assert led.exists()

    def test_resume_without_ledger_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch(_specs(1), resume=True)

    def test_without_resume_same_batch_ledger_refused(self, tmp_path):
        # Forgetting --resume must not silently destroy a resumable
        # journal for the very batch being rerun.
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        before = _ledger_lines(led)
        with pytest.raises(LedgerError, match="resume"):
            run_batch(_specs(1, 2), ledger=led)
        assert _ledger_lines(led) == before  # journal untouched

    def test_without_resume_different_batch_ledger_overwritten(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        run_batch(_specs(5, 6), ledger=led)  # different batch: fresh journal
        lines = _ledger_lines(led)
        assert len(lines) == 3
        assert json.loads(lines[0])["fingerprint"] == batch_fingerprint(_specs(5, 6))


class TestEncoding:
    """Run records are encoded straight from the dataclass fields; the
    bytes must stay those of the ``dataclasses.asdict`` encoding that
    existing ledgers were written with."""

    @staticmethod
    def _traced_run(tmp_path):
        led = tmp_path / "batch.jsonl"
        batch = run_batch([_spec(seed=1, capture_trace=True)], ledger=led)
        result, telemetry = batch.results[0], batch.run_telemetry[0]
        # Seed 1 exercises every container field of both record types.
        assert telemetry.trace_events and result.forced_times and result.downtime_by_cause
        return led, result, telemetry

    def test_record_bytes_match_asdict_encoding(self, tmp_path):
        led, result, telemetry = self._traced_run(tmp_path)
        expected = json.dumps(
            {
                "kind": "run",
                "index": 0,
                "fingerprint": spec_fingerprint(_spec(seed=1)),
                "attempts": telemetry.attempts,
                "result": dataclasses.asdict(result),
                "telemetry": {
                    **dataclasses.asdict(telemetry),
                    "trace_events": list(telemetry.trace_events),
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        assert led.read_bytes().split(b"\n")[1] == expected.encode()

    def test_record_run_does_not_mutate_its_inputs(self, tmp_path):
        _, result, telemetry = self._traced_run(tmp_path)
        events = telemetry.trace_events
        result_before, telemetry_before = copy.deepcopy(result), copy.deepcopy(telemetry)
        with RunLedger.start(tmp_path / "direct.jsonl", "0" * 64, 1) as ledger:
            ledger.record_run(0, "run-fp", result, telemetry)
        assert telemetry.trace_events is events
        assert result == result_before
        assert telemetry == telemetry_before


# --------------------------------------------------------------------- resume
class TestResume:
    def test_partial_ledger_replays_and_completes(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        base = run_batch(_specs(1, 2, 3))
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        led.write_text("\n".join(lines[:3]) + "\n")  # header + 2 runs survive

        resumed = run_batch(_specs(1, 2, 3), ledger=led, resume=True)
        assert resumed.results == base.results
        assert resumed.telemetry.resumed
        assert resumed.telemetry.replayed_runs == 2
        assert sum(1 for t in resumed.run_telemetry if t.replayed) == 2
        # The re-executed run was appended: the ledger is now complete.
        assert len(_ledger_lines(led)) == 4

    def test_torn_trailing_record_tolerated_and_rerun(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        base = run_batch(_specs(1, 2, 3))
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        # Simulate a crash mid-append: the last record is torn.
        led.write_text("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])

        resumed = run_batch(_specs(1, 2, 3), ledger=led, resume=True)
        assert resumed.results == base.results
        assert resumed.telemetry.replayed_runs == 2  # torn run re-executed

    def test_torn_tail_truncated_on_load(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        intact = "\n".join(lines[:3]) + "\n"
        led.write_text(intact + lines[3][: len(lines[3]) // 2])

        _, state = RunLedger.load(led)
        assert state.dropped_torn_tail
        # The fragment is physically gone: only intact records remain,
        # newline-terminated, so post-resume appends start a fresh line.
        assert led.read_text() == intact

    def test_torn_tail_resume_survives_repeated_crash_resume_cycles(self, tmp_path):
        # Regression: appending after an un-truncated torn fragment used
        # to weld the next record onto it, so the *second* resume saw a
        # corrupt interior line and bricked the journal for good.
        led = tmp_path / "batch.jsonl"
        base = run_batch(_specs(1, 2, 3))
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        led.write_text("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])

        first = run_batch(_specs(1, 2, 3), ledger=led, resume=True)
        assert first.results == base.results

        # The healed ledger must load cleanly and hold the full batch.
        _, state = RunLedger.load(led)
        assert not state.dropped_torn_tail
        assert sorted(state.records) == [0, 1, 2]

        # A second resume replays everything, still byte-identical.
        second = run_batch(_specs(1, 2, 3), ledger=led, resume=True)
        assert second.results == base.results
        assert second.telemetry.replayed_runs == 3

        # Tear it again and resume again: still recoverable.
        lines = _ledger_lines(led)
        led.write_text("\n".join(lines[:3]) + "\n" + lines[3][:10])
        third = run_batch(_specs(1, 2, 3), ledger=led, resume=True)
        assert third.results == base.results
        assert third.telemetry.replayed_runs == 2
        assert sorted(RunLedger.load(led)[1].records) == [0, 1, 2]

    def test_unterminated_final_line_treated_as_torn(self, tmp_path):
        # A record whose newline never hit the disk is not durable even
        # if its JSON happens to parse — drop it and re-execute the run.
        led = tmp_path / "batch.jsonl"
        base = run_batch(_specs(1, 2, 3))
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        led.write_text("\n".join(lines))  # strip only the final newline

        _, state = RunLedger.load(led)
        assert state.dropped_torn_tail
        assert len(state.records) == 2

        resumed = run_batch(_specs(1, 2, 3), ledger=led, resume=True)
        assert resumed.results == base.results
        assert resumed.telemetry.replayed_runs == 2
        assert sorted(RunLedger.load(led)[1].records) == [0, 1, 2]

    def test_corrupt_interior_record_is_hard_error(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        lines[2] = lines[2][:20]  # corrupt a record that is NOT the tail
        led.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="not a torn tail"):
            run_batch(_specs(1, 2, 3), ledger=led, resume=True)

    def test_changed_spec_fingerprint_mismatch_hard_error(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        with pytest.raises(LedgerError, match="different batch"):
            run_batch(
                [_spec(seed=1), _spec(seed=2).with_(horizon_s=days(3))],
                ledger=led,
                resume=True,
            )

    def test_changed_batch_size_hard_error(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        with pytest.raises(LedgerError):
            run_batch(_specs(1, 2, 3), ledger=led, resume=True)

    def test_empty_ledger_hard_error(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        led.write_text("")
        with pytest.raises(LedgerError, match="empty"):
            run_batch(_specs(1), ledger=led, resume=True)

    def test_progress_not_called_for_replayed_runs(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        led.write_text("\n".join(lines[:3]) + "\n")
        seen = []
        run_batch(
            _specs(1, 2, 3), ledger=led, resume=True,
            progress=lambda t: seen.append(t.seed),
        )
        assert seen == [3]

    @pytest.mark.slow
    def test_resume_with_different_jobs_byte_identical(self, tmp_path):
        seeds = (1, 2, 3, 4)
        base = run_batch(_specs(*seeds), jobs=1)
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(*seeds), ledger=led, jobs=1)
        lines = _ledger_lines(led)
        led.write_text("\n".join(lines[:3]) + "\n")  # 2 of 4 journaled

        # Journaled at jobs=1, resumed at jobs=4 — and the other way round.
        resumed4 = run_batch(_specs(*seeds), ledger=led, resume=True, jobs=4)
        assert resumed4.results == base.results
        assert resumed4.telemetry.replayed_runs == 2

        led2 = tmp_path / "batch2.jsonl"
        run_batch(_specs(*seeds), ledger=led2, jobs=4)
        lines2 = _ledger_lines(led2)
        led2.write_text("\n".join(lines2[:3]) + "\n")
        resumed1 = run_batch(_specs(*seeds), ledger=led2, resume=True, jobs=1)
        assert resumed1.results == base.results
        assert resumed1.telemetry.replayed_runs == 2

    def test_traced_pooled_batch_resumes_identical_events(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        specs = _specs(1, 2, 3, 4)
        with observe(trace=True) as first:
            journaled = run_batch(specs, ledger=led, jobs=2)
        with observe(trace=True) as second:
            resumed = run_batch(specs, ledger=led, resume=True, jobs=2)
        assert resumed.telemetry.replayed_runs == len(specs)
        assert all(t.replayed for t in resumed.run_telemetry)
        assert resumed.results == journaled.results
        for ran, replayed in zip(journaled.run_telemetry, resumed.run_telemetry):
            assert ran.trace_events
            assert replayed.trace_events == ran.trace_events
        assert second.event_count == first.event_count


# ----------------------------------------------------- orchestrator SIGKILL
_KILL_SCRIPT = textwrap.dedent(
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
    run_batch(
        specs,
        jobs=jobs,
        ledger=ledger,
        progress=kill_orchestrator_after_n_runs(kill_after),
    )
    raise SystemExit(99)  # unreachable: the hook SIGKILLs us first
    """
)


def _result_bytes(results):
    """Canonical byte serialization of a result tuple (identity check)."""
    return json.dumps(
        [dataclasses.asdict(r) for r in results], sort_keys=True
    ).encode()


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 4])
def test_kill_orchestrator_then_resume_byte_identical(tmp_path, jobs):
    """The acceptance drill: SIGKILL the orchestrator mid-batch, resume,
    and demand a byte-identical report plus replayed-run telemetry."""
    led = tmp_path / "batch.jsonl"
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err:
        # No pipes: orphaned pool workers (jobs=4) inherit them and would
        # keep a captured stderr open long after the SIGKILL. TMPDIR keeps
        # the killed batch's leftover catalog spill inside tmp_path. The
        # child leads its own process group, so the pool workers it leaves
        # behind are reaped with it.
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(led), str(jobs), "2"],
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).parents[2] / "src"),
                "TMPDIR": str(tmp_path),
            },
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=300)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    assert proc.returncode == -signal.SIGKILL, err_path.read_text()
    journaled = len(_ledger_lines(led)) - 1
    assert journaled >= 2  # the kill threshold, plus racing pool workers

    baseline = run_batch(_specs(1, 2, 3, 4), jobs=jobs)
    resumed = run_batch(_specs(1, 2, 3, 4), ledger=led, resume=True, jobs=jobs)
    assert _result_bytes(resumed.results) == _result_bytes(baseline.results)
    assert resumed.telemetry.resumed
    assert resumed.telemetry.replayed_runs == journaled
    assert sum(1 for t in resumed.run_telemetry if t.replayed) == journaled


def test_kill_hook_validates_threshold():
    with pytest.raises(ConfigurationError):
        kill_orchestrator_after_n_runs(0)


def test_kill_hook_counts_completions():
    # With a benign signal number 0, os.kill is a no-op probe: the hook
    # must fire it only once the threshold is reached.
    hook = kill_orchestrator_after_n_runs(3, sig=0)
    for _ in range(5):
        hook(None)  # would raise on a dead pid; sig 0 just checks


# -------------------------------------------------------------- ledger object
class TestRunLedgerObject:
    def test_load_reports_header_fields(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        _, state = RunLedger.load(led)
        assert state.runs == 2
        assert state.version == 1
        assert state.package_version
        assert sorted(state.records) == [0, 1]
        assert not state.dropped_torn_tail

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(LedgerError):
            RunLedger.load(tmp_path / "absent.jsonl")

    def test_header_only_ledger_resumes_everything(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        led.write_text(_ledger_lines(led)[0] + "\n")
        batch = run_batch(_specs(1, 2), ledger=led, resume=True)
        assert batch.telemetry.replayed_runs == 0
        assert batch.telemetry.resumed
