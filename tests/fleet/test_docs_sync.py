"""FLEET.md must describe the real CLI and report surface (checked by
the consolidated ``tools/check_docs.py``, whose drift cases live in
``tests/test_docs_sync.py``) and be reachable from the entry-point docs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CHECKER = REPO / "tools" / "check_docs.py"


def test_fleet_docs_checker_passes():
    proc = subprocess.run([sys.executable, str(CHECKER)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FLEET.md" in proc.stdout

    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    assert any(doc == "FLEET.md" for doc, _, _ in check_docs.CHECKS)
    assert [p for p in check_docs.problems() if p.startswith("FLEET.md")] == []


def test_fleet_md_linked_from_entry_points():
    for page in ("README.md", "docs/ARCHITECTURE.md", "docs/TESTING.md"):
        text = (REPO / page).read_text(encoding="utf-8")
        assert "FLEET.md" in text, f"{page} does not link docs/FLEET.md"
