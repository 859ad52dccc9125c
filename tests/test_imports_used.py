"""Every imported name is read or exported: a lint that needs no download.

Walks the syntax tree of each module under `src/toupie`, `tests` and
`scripts` with the standard library's `ast`.  A name bound by an import
statement must be read somewhere in its file (as a name, or as the head of
an attribute chain) or be listed in the file's `__all__`.  `__future__`
imports are compiler switches, not names.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for top in ("src/toupie", "tests", "scripts") for p in (ROOT / top).rglob("*.py"))


def _bound_by_imports(tree: ast.Module) -> dict[str, int]:
    """Name -> line of the import statement that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    keep = read | _exported(tree)
    return sorted((line, name) for name, line in _bound_by_imports(tree).items() if name not in keep)


def test_the_lint_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from itertools import chain, product\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "def f():\n"
        "    from re import compile\n"
        "    return j.dumps(list(chain()))\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "product"), (8, "compile")]


def test_no_module_imports_a_name_it_never_reads():
    assert SOURCES
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []
