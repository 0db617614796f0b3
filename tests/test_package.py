"""Static checks over the package source, parsed with ``ast``: every
top-level import is used, every ``__all__`` name exists, and every private
top-level name is used in its module. They stand in for a linter's
unused-import, undefined-export and dead-code rules."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gridtrack").glob("*.py"))


def _imported_names(tree):
    """Names bound by the module's top-level imports, skipping __future__."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _defined_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _loaded_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _loaded_names(tree) | set(_exports(tree))
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    known = _defined_names(tree) | set(_imported_names(tree))
    missing = [name for name in _exports(tree) if name not in known]
    assert not missing, f"{path.name} exports undefined names {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_top_level_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    private = sorted(n for n in _defined_names(tree) if n.startswith("_") and not n.startswith("__"))
    unused = [name for name in private if name not in loaded]
    assert not unused, f"{path.name} defines but never uses {unused}"
