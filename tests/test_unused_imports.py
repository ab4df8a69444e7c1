"""Every name a package module imports is used in that module: an import
with no use is dead code that outlives the code that needed it.  The
names the package exports through ``__init__.__all__`` are exempt."""

import ast
from pathlib import Path

import multiplex


def unused_imports(source: str, exempt=frozenset()) -> list[str]:
    """'line: name' of each imported name that the source never uses,
    at module level or inside a function."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used and name not in exempt]


def test_no_unused_imports():
    src = Path(multiplex.__file__).parent
    files = sorted(src.glob("*.py"))
    assert len(files) > 10
    found = {f.name: unused_imports(f.read_text(), frozenset(
                multiplex.__all__ if f.name == "__init__.py" else ()))
             for f in files}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_guard_sees_every_import_form():
    source = "\n".join([
        "from __future__ import annotations",
        "import json",
        "import os.path",
        "from . import io as mio",
        "from .linalg import Field, GF, Matrix",
        "from .bigraded import (BigradedMap,",
        "    tree_basis)",
        "def f(x: Field) -> BigradedMap:",
        "    from .spectral import page",
        "    return mio.load(x)",
    ])
    assert unused_imports(source) == [
        "2: json", "3: os", "5: GF", "5: Matrix", "6: tree_basis", "9: page"]
    assert unused_imports(source, frozenset({"json", "GF"})) == [
        "3: os", "5: Matrix", "6: tree_basis", "9: page"]
