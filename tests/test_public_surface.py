"""The names the package exports, and the names the benchmark and the
checks past the command line's bound read.

``lyubeznik.__all__`` is pinned to an explicit list, and so are the
public fields of a search (``SearchResult``), so that a name is added
or removed on purpose.  ``bench/tracing.py`` replaces the
functions listed in its ``TARGETS`` with timing wrappers and reads the
``cache_info`` of two lru caches, and ``bench/`` and ``ci/`` import
library names, some inside functions that only the benchmark runs; so
renaming or deleting one of them breaks those scripts without failing
any other test.  ``TARGETS`` and the imports are read from the files
with ``ast``, not imported, so these tests depend on nothing else in
``bench/`` or ``ci/``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import lyubeznik

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"

EXPORTED = [
    "AraBounds", "BettiTable", "BoundExceededError", "Cover",
    "FormalPolynomial", "InvariantReport", "LyubeznikComplex",
    "LyubeznikVerdict", "MinimizationWarning", "Monomial", "MonomialIdeal",
    "NonMinimalWarning", "NotMinimalError", "OrderedIdeal", "OrientedClutter",
    "ParseError", "PropositionCheck", "QUOTIENT", "SearchResult",
    "SimpleGraph", "SubsetClass", "Symbol", "VariableContext",
    "admissible_symbols", "all_graphs", "all_ideals", "analyze", "ara_bounds",
    "betti_from_preserved", "check_graph_propositions",
    "classification_census", "classify_subset", "complete_cover",
    "cover_clutter", "covers_of", "divides", "e_minimal_covers_of",
    "edge_ideal", "graph_names", "height", "ideal_names", "identity_order",
    "inadmissible_symbols", "is_admissible_symbol", "is_broken", "is_cover_of",
    "is_lyubeznik", "is_minimal_resolution", "is_preserved",
    "is_stable_symbol", "is_totally_lyubeznik", "l_length", "lcm_of",
    "load_graph", "load_ideal", "longest_path_edges", "lyubeznik_complex",
    "min_l_length", "minimize_generators", "obstruction", "orders_for_search",
    "parse_graph", "parse_ideal", "parse_order", "preserved_size",
    "radical_generators", "radical_ideal", "read_graph", "read_ideal",
    "search_scan", "sweep_ideals", "symbol_of", "taylor_betti",
    "verify_chain_complex", "verify_resolution_report",
]


# the public attributes of a search: the fields that the search
# command, analyze, the graph checks, the benchmark's tracer (scanned,
# stopped_early) or the checks past the bound (ci/) read
SEARCH_FIELDS = [
    "almost_lyubeznik", "lyubeznik", "min_l", "min_l_witness",
    "minimal_count", "projdim", "scanned", "stopped_early", "tobsl",
    "tobsl_witness", "totally_lyubeznik",
]


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


def script_imports():
    """(file, module, name) for every import of the package in the
    benchmark's and the checks' Python files, at any depth; name is None
    for a plain ``import lyubeznik.x``."""
    paths = sorted([*ROOT.glob("bench/**/*.py"), *ROOT.glob("ci/*.py")])
    for path in paths:
        where = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [(alias.name, None) for alias in node.names]
            else:
                continue
            for module, name in modules:
                if module.partition(".")[0] == "lyubeznik":
                    yield where, module, name


def test_the_exported_names_are_pinned():
    assert lyubeznik.__all__ == EXPORTED == sorted(EXPORTED)


@pytest.mark.parametrize("path, module, name", sorted(set(script_imports()),
                                                      key=str))
def test_script_imports_resolve(path, module, name):
    imported = importlib.import_module(module)
    if name is not None and not hasattr(imported, name):
        importlib.import_module(f"{module}.{name}")


def test_the_search_fields_are_pinned():
    # a field is added or removed on purpose, with its reader
    search = lyubeznik.search_scan(lyubeznik.load_ideal("square_edges"))
    assert [name for name in dir(search)
            if not name.startswith("_")] == SEARCH_FIELDS


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
            lyubeznik.orders_for_search} <= set(functions)
    taking = [(f.__name__, p) for f in functions
              for p in inspect.signature(f).parameters
              if p in ("max_exhaustive", "max_generators", "max_vertices")]
    assert taking == []
