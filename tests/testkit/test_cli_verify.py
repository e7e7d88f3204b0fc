"""Tests for the ``repro-verify`` CLI."""

import json

import pytest

from repro.testkit.cli import main
from repro.testkit.golden import SCENARIOS, update_golden


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for s in SCENARIOS:
        assert s.name in out


def test_check_single_scenario(capsys):
    assert main(["--scenario", "calm-single"]) == 0
    out = capsys.readouterr().out
    assert "ok   calm-single" in out
    assert "1/1 golden scenario(s) match" in out


def test_update_then_check_custom_dir(tmp_path, capsys):
    assert main(["--update-golden", "--scenario", "calm-single", "--golden-dir", str(tmp_path)]) == 0
    assert (tmp_path / "calm-single.json").exists()
    assert main(["--scenario", "calm-single", "--golden-dir", str(tmp_path)]) == 0


def test_mismatch_exits_nonzero(tmp_path, capsys):
    written = update_golden(["calm-single"], golden_dir=tmp_path)
    payload = json.loads(written["calm-single"].read_text())
    payload["total_cost"] = 123.456
    written["calm-single"].write_text(json.dumps(payload))
    assert main(["--scenario", "calm-single", "--golden-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL calm-single" in out


def test_missing_expected_exits_nonzero(tmp_path):
    assert main(["--scenario", "calm-single", "--golden-dir", str(tmp_path)]) == 1


@pytest.mark.slow
def test_storm_battery(capsys):
    assert main(["--storm", "--seed", "2", "--jobs", "2", "--days", "3"]) == 0
    out = capsys.readouterr().out
    assert "all invariant oracles green" in out
    assert "determinism.jobs" in out
