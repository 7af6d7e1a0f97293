"""Every module of ``src/socks`` uses each name it imports.

Checked with the standard library's ``ast`` alone, so nothing needs
installing.  A name listed in the module's ``__all__``, or imported on a
line marked ``# noqa: F401`` (a re-export, or an import done for its side
effect), is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import socks

SRC = Path(socks.__file__).resolve().parent
MODULES = sorted(SRC.rglob("*.py"))


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name -> line of each name an import binds, less the exempt ones."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads: in code, in quoted annotations and in
    ``__all__``."""
    quoted = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            quoted.extend(node.value.elts)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in quoted:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(n.id for n in ast.walk(ast.parse(node.value))
                        if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    used = used_names(tree)
    unused = {name: line for name, line in
              imported_names(tree, text.splitlines()).items()
              if name not in used}
    assert unused == {}, f"{path.relative_to(SRC)} imports names it never " \
                         f"uses (name: line): {unused}"


def test_an_unused_import_is_found():
    source = ("import os\nfrom typing import NamedTuple, Any\n"
              "from . import x  # noqa: F401\nfrom .y import z\n"
              "__all__ = ['z']\n"
              "def f(a: 'Any') -> None:\n    print(os.sep, 'NamedTuple')\n")
    tree = ast.parse(source)
    assert set(imported_names(tree, source.splitlines())) == {
        "os", "NamedTuple", "Any", "z"}
    assert {"os", "Any", "z"} <= used_names(tree)
    assert "NamedTuple" not in used_names(tree)
