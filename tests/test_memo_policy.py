"""The package memoizes with functools.cache on the function itself, so
its modules hold no mutable containers of their own: a module-level dict,
list or set is the start of an ad-hoc cache."""

import ast
from pathlib import Path

import multiplex

CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                   "Counter"}


def _module_level(body):
    """Module-level statements, also inside module-level if/try/with."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.If, ast.Try, ast.With)):
            for block in (stmt.body, getattr(stmt, "orelse", []),
                          getattr(stmt, "finalbody", [])):
                yield from _module_level(block)
            for handler in getattr(stmt, "handlers", []):
                yield from _module_level(handler.body)


def _is_container(value) -> bool:
    if isinstance(value, CONTAINERS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        return name in CONTAINER_CALLS
    return False


def _targets(stmt):
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    return [stmt.target]


def module_level_containers(source: str) -> list[str]:
    """'line: target' of each module-level dict, list or set assignment,
    __all__ excepted."""
    found = []
    for stmt in _module_level(ast.parse(source).body):
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        if stmt.value is None or not _is_container(stmt.value):
            continue
        names = [ast.unparse(t) for t in _targets(stmt)]
        if names != ["__all__"]:
            found.append(f"{stmt.lineno}: {', '.join(names)}")
    return found


def test_no_module_level_containers():
    src = Path(multiplex.__file__).parent
    files = sorted(src.glob("*.py"))
    assert len(files) > 10
    found = {f.name: module_level_containers(f.read_text()) for f in files}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_guard_sees_every_container_form():
    source = "\n".join([
        "__all__ = ['a']",
        "_CACHE: dict = {}",
        "_SEEN = set()",
        "_ROWS = [k for k in range(3)]",
        "import collections",
        "_BY = collections.defaultdict(list)",
        "if True:",
        "    _LATE = dict()",
        "LIMIT = 10",
        "NAMES = ('a', 'b')",
        "def f():",
        "    local = {}",
    ])
    assert module_level_containers(source) == [
        "2: _CACHE", "3: _SEEN", "4: _ROWS", "6: _BY", "8: _LATE"]
