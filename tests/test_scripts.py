"""The timing scripts under scripts/ still run: each ``bench_*.py`` exits 0
with ``--calls 4`` and prints one JSON document in the one layout, with an
entry per shape in its ``SHAPES`` table.

The scripts whose per-call timings the ``BENCH_*.json`` files record were
folded into ``bench_ops.py``; each is checked by name against the harness rows
of the op that times the same calls."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("bench_*.py"))
HARNESS = ROOT / "scripts" / "bench_ops.py"
HEADER = {"schema", "python", "numpy", "blas", "blas_threads", "machine", "calls", "shapes"}
# recorded script -> the bench_ops.py op whose rows replace it
FOLDED = {"bench_conv_backward.py": "conv_bwd", "bench_encoder.py": "encode", "bench_warp.py": "warp"}
# test id -> (script to run, op its rows are filtered to, or None for every row)
CASES = {**{p.name: (p, None) for p in SCRIPTS}, **{name: (HARNESS, op) for name, op in FOLDED.items()}}


def shape_ops(path: Path) -> list:
    """The op of each row of ``path``'s ``SHAPES`` table: a row's first
    element when it is a string literal, else None."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SHAPES" for t in node.targets):
            return [getattr(row.elts[0], "value", None) if isinstance(row, ast.Tuple) else None
                    for row in node.value.elts]
    raise AssertionError(f"{path.name} has no SHAPES table")


def test_there_are_bench_scripts():
    assert SCRIPTS


def test_folded_scripts_are_the_ones_bench_files_record():
    recorded = "".join(p.read_text() for p in ROOT.glob("BENCH_*.json"))
    for name in FOLDED:
        assert f"scripts/{name}" in recorded, name
        assert not (ROOT / "scripts" / name).exists(), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_bench_script_runs_and_reports_every_shape(name):
    path, op = CASES[name]
    proc = subprocess.run([sys.executable, str(path), "--calls", "4"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert HEADER <= doc.keys() and doc["schema"] == 1 and doc["calls"] == 4
    entries = [e for e in doc["shapes"] if op is None or e.get("op") == op]
    assert entries and len(entries) == len([o for o in shape_ops(path) if op is None or o == op])
    for entry in entries:
        assert {"op", "shape", "timings"} <= entry.keys() and entry["timings"], entry
        for phase, t in entry["timings"].items():
            assert t["q1_ms"] <= t["median_ms"] <= t["q3_ms"], (entry["shape"], phase, t)
