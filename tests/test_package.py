"""Static checks over the package source, parsed with ``ast``: every
top-level import is used, every ``__all__`` name exists, every private
top-level name is used in its module, and every top-level name is used
somewhere in the repository. They stand in for a linter's unused-import,
undefined-export and dead-code rules."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "gridtrack").glob("*.py"))


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


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _exports(tree):
    for node in tree.body:
        if _is_all(node):
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


def _references(node):
    """Identifiers a statement refers to: names it loads, attributes it
    touches, and string constants spelling a (dotted) identifier, as in a
    ``getattr``-style lookup such as ``(model, "decode")``."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(part.isidentifier() for part in parts):
                refs.update(parts)
    return refs


def test_every_top_level_name_is_referenced():
    """Each top-level name a package module defines is referenced by some
    other statement in ``src/``, ``tests/`` or ``perfbench/``; an ``__all__``
    entry alone does not count."""
    statements = []  # (path, top-level statement, identifiers it references)
    for tree_dir in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / tree_dir).rglob("*.py")):
            for node in ast.parse(path.read_text(), filename=str(path)).body:
                if not _is_all(node):
                    statements.append((path, node, _references(node)))
    unused = []
    for path, node, _ in statements:
        if path not in SOURCES:
            continue
        for name in _defined_names(ast.Module(body=[node], type_ignores=[])):
            if name.startswith("__"):
                continue
            if not any(name in refs for _, other, refs in statements if other is not node):
                unused.append(f"{path.name}:{name}")
    assert not unused, f"top-level names nothing references: {unused}"
