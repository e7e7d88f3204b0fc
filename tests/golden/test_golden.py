"""Golden-scenario regression: every committed scenario must reproduce its
expected report byte-for-byte (within float round-trip tolerance).

On an intentional behaviour change, refresh with ``repro-verify
--update-golden`` and review the JSON diff.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.testkit.golden import (
    FLEET_SCENARIOS,
    SCENARIOS,
    check_scenarios,
    default_golden_dir,
    scenario_by_name,
    update_golden,
)


def test_corpus_shape():
    assert len(SCENARIOS) == 30
    names = [s.name for s in SCENARIOS]
    assert len(set(names)) == len(names)
    for s in SCENARIOS:
        assert s.description


def test_every_scenario_has_expected_report():
    # Both directions: a scenario without a file, or a file left behind by
    # a dropped scenario row, fails.
    names = {s.name for s in (*SCENARIOS, *FLEET_SCENARIOS)}
    files = {p.stem for p in default_golden_dir().glob("*.json")}
    assert not names - files, (
        f"missing expected report(s) for {sorted(names - files)}; "
        "run repro-verify --update-golden"
    )
    assert not files - names, f"orphaned expected report(s): {sorted(files - names)}"


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_scenario_matches_expected(scenario):
    diffs = check_scenarios([scenario.name])
    assert diffs[scenario.name] == [], "\n".join(diffs[scenario.name])


def test_unknown_scenario_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        scenario_by_name("no-such-scenario")


def test_missing_expected_file_reports_difference(tmp_path):
    diffs = check_scenarios(["calm-single"], golden_dir=tmp_path)
    assert len(diffs["calm-single"]) == 1
    assert "no expected report" in diffs["calm-single"][0]


def test_update_golden_round_trips(tmp_path):
    written = update_golden(["calm-single"], golden_dir=tmp_path)
    assert written["calm-single"].exists()
    payload = json.loads(written["calm-single"].read_text())
    assert payload["label"] == "golden/calm-single"
    # A freshly written report matches itself.
    diffs = check_scenarios(["calm-single"], golden_dir=tmp_path)
    assert diffs["calm-single"] == []


def test_diff_reports_field_changes(tmp_path):
    written = update_golden(["calm-single"], golden_dir=tmp_path)
    payload = json.loads(written["calm-single"].read_text())
    payload["total_cost"] += 1.0
    payload["forced_migrations"] += 2
    written["calm-single"].write_text(json.dumps(payload))
    diffs = check_scenarios(["calm-single"], golden_dir=tmp_path)
    joined = "\n".join(diffs["calm-single"])
    assert "total_cost" in joined
    assert "forced_migrations" in joined


def test_run_scenario_passes_oracles():
    # report() verifies by default; a red oracle would raise.
    report = scenario_by_name("storm-single").report()
    assert report["forced_migrations"] > 0  # the storm actually bites


def test_importing_the_corpus_does_no_scenario_work():
    # Rows hold recipes, not built objects: importing repro.testkit (which
    # perfbench does during set-up) must build no strategy, fault plan,
    # calibration, catalog or fleet.
    probe = (
        "import sys\n"
        "called = set()\n"
        "sys.setprofile(lambda f, e, a: e == 'call' and called.add(f.f_code.co_name))\n"
        "import repro.testkit\n"
        "sys.setprofile(None)\n"
        "print(sorted(called & {'strategy_info', 'revocation_storm', 'correlated_spike',\n"
        "    'calibration_for', 'build_catalog', 'fit_catalog', 'synthesize_fleet'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
