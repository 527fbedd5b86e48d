"""The names the package exports and the names the traced benchmark wraps.

``bench/tracing.py`` replaces the functions listed in its ``TARGETS``
with timing wrappers and reads the ``cache_info`` of two lru caches, so
renaming or deleting one of them breaks the traced benchmark without
failing any other test.  ``TARGETS`` is read from the file, not
imported, so this test depends on nothing else in ``bench/``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import lyubeznik

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracing_targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


@pytest.mark.parametrize("module, function", tracing_targets())
def test_traced_targets_resolve(module, function):
    assert callable(getattr(importlib.import_module("lyubeznik." + module),
                            function))


@pytest.mark.parametrize("module, function", [("subsets", "tables_for"),
                                              ("complexes", "order_analysis")])
def test_traced_caches_expose_cache_info(module, function):
    function = getattr(importlib.import_module("lyubeznik." + module), function)
    assert function.cache_info().currsize <= 1


def test_exported_names_resolve_once():
    names = lyubeznik.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(lyubeznik, name)]
    assert missing == []


def test_no_library_function_takes_a_bound():
    # the library's one bound is the subset tables'; the lower ones are
    # the command line's (--max-exhaustive and its mu <= 12)
    functions = [getattr(lyubeznik, name) for name in lyubeznik.__all__]
    functions = [f for f in functions if inspect.isfunction(f)]
    assert {lyubeznik.search_scan, lyubeznik.longest_path_edges,
            lyubeznik.all_orders} <= set(functions)
    taking = [(f.__name__, p) for f in functions
              for p in inspect.signature(f).parameters
              if p in ("max_exhaustive", "max_generators", "max_vertices")]
    assert taking == []
