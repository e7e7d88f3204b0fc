"""The reference docs must describe the real code: ``tools/check_docs.py``
passes on the committed docs and fails, naming the doc and the item, on
each kind of drift (built by editing the real doc text in memory)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
CHECKER = REPO / "tools" / "check_docs.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_checker()


def test_docs_checker_passes():
    proc = subprocess.run([sys.executable, str(CHECKER)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "docs OK" in proc.stdout
    assert check_docs.problems() == []


def _sub(old, new):
    def edit(text):
        assert old in text, f"drift case is stale: {old!r} not in the doc"
        return text.replace(old, new, 1)

    return edit


def _drop_row(key):
    """Remove the table row (or heading line) starting with ``key``."""

    def edit(text):
        lines = text.splitlines()
        kept = [line for line in lines if not line.startswith(key)]
        assert len(kept) == len(lines) - 1, f"drift case is stale: no single {key!r} line"
        return "\n".join(kept)

    return edit


DRIFT = {
    "unknown-flag-row": (
        "FLEET.md",
        _sub("| `--fast` |", "| `--bogus` | off | not a flag |\n| `--fast` |"),
        ["CLI reference", "`--bogus`"],
    ),
    "undocumented-ingest-flag": (
        "DATA.md",
        _drop_row("| `--chunk-records` |"),
        ["Ingest CLI reference", "`--chunk-records` is not documented"],
    ),
    "undocumented-calibrate-flag": (
        "DATA.md",
        _drop_row("| `--grid-step` |"),
        ["repro-calibrate reference", "`--grid-step` is not documented"],
    ),
    "choice-missing-from-meaning": (
        "FLEET.md",
        _sub("/ `event` (per-event", "/ event (per-event"),
        ["`--engine`", "choice(s) event"],
    ),
    "extra-event-field": (
        "TRACING.md",
        _sub("| `rationale` |", "| `reason_code` | not a field |\n| `rationale` |"),
        ["BidPlaced", "unknown field `reason_code`"],
    ),
    "missing-report-field": (
        "FLEET.md",
        _drop_row("| `horizon_hours` |"),
        ["Metrics glossary", "FleetReport", "`horizon_hours` is not documented"],
    ),
    "wrong-wire-name": (
        "TRACING.md",
        _sub("`BidPlaced` — `bid-placed`", "`BidPlaced` — `bid-sent`"),
        ["BidPlaced", "bid-sent", "bid-placed"],
    ),
    "undocumented-event-class": (
        "TRACING.md",
        _drop_row("### `Revocation` — "),
        ["class `Revocation` is not documented"],
    ),
    "overview-display-name": (
        "STRATEGIES.md",
        _sub("| `single` | Single market |", "| `single` | Solo market |"),
        ["Family overview", "`single`", "Solo market"],
    ),
    "overview-weight": (
        "STRATEGIES.md",
        _sub("| `single` | Single market | yes | 0.50 |", "| `single` | Single market | yes | 0.40 |"),
        ["Family overview", "`single`", "weight 0.40"],
    ),
    "catalog-heading-display-name": (
        "STRATEGIES.md",
        _sub("### `single` — Single market", "### `single` — Solo market"),
        ["Strategy catalog", "`single`", "Solo market"],
    ),
    "catalog-arg-mismatch": (
        "STRATEGIES.md",
        _sub("| `service_units` | int |", "| `service_units` | float |"),
        ["Strategy catalog", "multi-market.service_units", "float"],
    ),
    "missing-section": (
        "DATA.md",
        _sub("## Ingest CLI reference", "## Ingest CLI"),
        ["'## Ingest CLI reference' is missing"],
    ),
}


@pytest.mark.parametrize("case", sorted(DRIFT))
def test_drift_is_reported(case):
    doc, edit, fragments = DRIFT[case]

    def read(name):
        text = check_docs.read_doc(name)
        return edit(text) if name == doc else text

    found = check_docs.problems(read)
    assert any(
        line.startswith(doc) and all(f in line for f in fragments) for line in found
    ), f"no problem naming {doc} and {fragments}; got {found}"
