"""TRACING.md must describe the real event model: the consolidated
``tools/check_docs.py`` covers it and reports no problem in it."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CHECKER = REPO / "tools" / "check_docs.py"


def test_tracing_docs_checker_passes():
    proc = subprocess.run([sys.executable, str(CHECKER)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "TRACING.md" in proc.stdout

    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    assert any(doc == "TRACING.md" for doc, _, _ in check_docs.CHECKS)
    assert [p for p in check_docs.problems() if p.startswith("TRACING.md")] == []
