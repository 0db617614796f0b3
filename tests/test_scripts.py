"""The timing scripts under scripts/ still run: each ``bench_*.py`` exits 0
with ``--calls 4`` and prints one JSON document with an entry per shape in
its ``SHAPES`` table."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("bench_*.py"))


def shape_count(path: Path) -> int:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SHAPES" for t in node.targets):
            return len(node.value.elts)
    raise AssertionError(f"{path.name} has no SHAPES table")


def test_there_are_bench_scripts():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_bench_script_runs_and_reports_every_shape(path):
    proc = subprocess.run([sys.executable, str(path), "--calls", "4"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["shapes"]) == shape_count(path)
