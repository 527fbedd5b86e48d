"""Every checking route has a reader.

Each top-level function or class of ``tests/reference_routes.py`` must
be read by a test module in ``tests/``, by ``ci/test_past_the_bound.py``
or by another route of that file.  A route whose last reader is deleted
fails here, rather than staying behind as a copy that checks nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUTES = ROOT / "tests" / "reference_routes.py"


def loaded_names(tree):
    """The names a tree reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def routes_read_by(path):
    """The routes a module reads: names it imports from the routes and
    then reads, and attributes it reads off the routes' module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded, read, modules = loaded_names(tree), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == ROUTES.stem:
            read |= {a.name for a in node.names
                     if (a.asname or a.name) in loaded}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == ROUTES.stem}
    return read | {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in modules}


def test_every_route_has_a_reader():
    definitions = [node for node in ast.parse(
        ROUTES.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(definitions) > 30
    read = set()
    for path in [*ROOT.glob("tests/*.py"), *ROOT.glob("ci/*.py")]:
        if path != ROUTES:
            read |= routes_read_by(path)
    unread = []
    for node in definitions:
        # read by another route of the file
        within = set().union(*(loaded_names(other) for other in definitions
                               if other is not node))
        if node.name not in read | within:
            unread.append(node.name)
    assert unread == []
