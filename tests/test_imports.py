"""Every imported name in ``src/`` and ``tests/`` is used.

Each module is parsed with ``ast``; a name an import binds counts as
used when the module reads it anywhere (a bare name, or the base of an
attribute) or lists it in ``__all__``.  ``from __future__`` imports
are directives, not names, and are left out.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.joinpath("src").rglob("*.py"),
                  *ROOT.joinpath("tests").rglob("*.py")])


def imported_names(tree):
    """(bound name, line) for every name an import in the module binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree):
    """The strings of a module-level ``__all__ = [...]``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [(name, line) for name, line in imported_names(tree)
            if name not in used]


def test_the_scan_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from json import dumps, loads\nfrom re import compile\n"
              "__all__ = ['compile']\n"
              "print(os.path.sep, dumps)\n")
    assert unused_imports(source) == [("system", 3), ("loads", 4)]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
