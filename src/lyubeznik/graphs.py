"""Simple graphs, edge ideals, and executable graph-family checks.

The file format mirrors the ideal format: ``vertex`` lines declare
named vertices, ``edge`` lines add one edge each, and the edge listing
order fixes the generator order of the edge ideal.

``check_graph_propositions`` turns the known statements about
Lyubeznik-ness of edge-ideal families into hypothesis/conclusion pairs
evaluated on a concrete graph.  The path-based statements do not fix
whether a path's length counts edges or vertices, so both readings are
reported; a true hypothesis with a false conclusion is returned as a
finding for the caller to inspect, not raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .invariants import search_scan
from .monomials import (BoundExceededError, Monomial, MonomialIdeal,
                        ParseError, VariableContext, _NAME_RE,
                        _directive_lines, _read_text)
from .subsets import MAX_TABLE_GENERATORS


@dataclass(frozen=True)
class SimpleGraph:
    """Named vertices and unordered edges; no loops, no multi-edges."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.vertices, tuple):
            object.__setattr__(self, "vertices", tuple(self.vertices))
        if not isinstance(self.edges, tuple):
            object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        fault = _fault(self.vertices, self.edges)
        if fault is not None:
            raise ValueError(fault[2])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: str) -> tuple[str, ...]:
        out = [b if a == v else a for a, b in self.edges if v in (a, b)]
        return tuple(sorted(out))


def _fault(vertices, edges) -> tuple[str, int, str] | None:
    """The first reason why ``vertices`` and ``edges`` are not a simple
    graph, as ``("vertex", i, message)`` or ``("edge", k, message)``
    for the i-th vertex or the k-th edge at fault; None when they are."""
    declared = set()
    for i, v in enumerate(vertices):
        if v in declared:
            return "vertex", i, f"duplicate vertex name {v!r}"
        declared.add(v)
    seen = set()
    for k, (a, b) in enumerate(edges):
        if a == b:
            return "edge", k, f"loop at vertex {a!r}"
        if a not in declared or b not in declared:
            return "edge", k, f"edge ({a!r}, {b!r}) uses an undeclared vertex"
        key = frozenset((a, b))
        if key in seen:
            return "edge", k, f"duplicate edge ({a!r}, {b!r})"
        seen.add(key)
    return None


def parse_graph(text: str) -> SimpleGraph:
    """Parse ``vertex``/``edge`` lines; comments and blank lines skipped.

    A vertex name must be a variable name (a letter, then letters,
    digits and ``_``), since the edge ideal names its variables after
    the vertices.  Every refusal is a ``ParseError`` that names its line
    and, where there is one, its column: a vertex's own, or the column
    of the ``edge`` directive at fault."""
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    # the (line, column) of each vertex name and of each edge directive
    places = {"vertex": [], "edge": []}
    for lineno, word, column, rest, offset in _directive_lines(
            text, ("vertex", "edge")):
        names = rest.split()
        if word == "vertex":
            if not names:
                raise ParseError("vertex line lists no vertices", lineno, column)
            for name in re.finditer(r"\S+", rest):
                place = (lineno, offset + name.start() + 1)
                if not _NAME_RE.match(name.group()):
                    raise ParseError(f"invalid vertex name {name.group()!r}, "
                                     "not a variable name", *place)
                places["vertex"].append(place)
            vertices.extend(names)
        else:
            if len(names) != 2:
                raise ParseError("edge line needs exactly two endpoints",
                                 lineno, column)
            places["edge"].append((lineno, column))
            edges.append((names[0], names[1]))
    if not vertices:
        raise ParseError("no vertex line")
    try:
        return SimpleGraph(tuple(vertices), tuple(edges))
    except ValueError:
        kind, i, message = _fault(vertices, edges)
        raise ParseError(message, *places[kind][i]) from None


def read_graph(path) -> SimpleGraph:
    """parse_graph on the contents of a file (``monomials._read_text``)."""
    return parse_graph(_read_text(path))


# one entry: ``graph --edge-ideal --check-props`` prints the graph's
# edge ideal and searches it, and both read this one build
@lru_cache(maxsize=1)
def edge_ideal(graph: SimpleGraph) -> MonomialIdeal:
    """The squarefree quadratic ideal with one generator per edge."""
    if not graph.edges:
        raise ValueError("the edge ideal of an edgeless graph is undefined")
    context = VariableContext(graph.vertices)
    index = context.index
    gens = []
    for a, b in graph.edges:
        # a simple graph's edge joins two declared vertices, so each
        # generator is a squarefree product of two variables
        exps = [0] * len(context)
        exps[index(a)] = exps[index(b)] = 1
        gens.append(Monomial._unchecked(context, tuple(exps)))
    return MonomialIdeal(context, tuple(gens))


def longest_path_edges(graph: SimpleGraph) -> int:
    """Edge count of the longest simple path, by exhaustive extension.

    The extension walks simple paths, whose number grows with the edges,
    not the vertices, so it refuses more edges than the subset tables
    hold generators, ``subsets.MAX_TABLE_GENERATORS``.
    """
    if graph.edge_count > MAX_TABLE_GENERATORS:
        raise BoundExceededError(
            f"path search supports at most {MAX_TABLE_GENERATORS} edges, "
            f"got {graph.edge_count}")
    adjacency = {v: graph.neighbors(v) for v in graph.vertices}

    def extend(tail: str, used: set[str]) -> int:
        best = 0
        for nxt in adjacency[tail]:
            if nxt not in used:
                used.add(nxt)
                best = max(best, 1 + extend(nxt, used))
                used.remove(nxt)
        return best

    try:
        return max((extend(v, {v}) for v in graph.vertices), default=0)
    finally:
        # extend refers to itself through its closure: unbind it, so
        # that it is freed now and not at some later garbage collection
        del extend


def _is_cycle(graph: SimpleGraph, length: int) -> bool:
    """Whether the graph is one cycle of ``length`` vertices, for a
    length below 6: there, n vertices and n edges with every degree 2
    are one cycle, since two disjoint cycles need at least 6 vertices."""
    return (len(graph.vertices) == graph.edge_count == length
            and all(len(graph.neighbors(v)) == 2 for v in graph.vertices))


@dataclass(frozen=True)
class PropositionCheck:
    """One hypothesis/conclusion pair evaluated on a concrete graph."""

    name: str
    hypothesis: bool
    conclusion: bool

    @property
    def finding(self) -> bool:
        """True when the hypothesis holds but the conclusion fails."""
        return self.hypothesis and not self.conclusion


def check_graph_propositions(graph: SimpleGraph
                             ) -> tuple[PropositionCheck, ...]:
    """Evaluate the edge-ideal statements on one graph.

    Path lengths are reported under both the edge-counting and the
    vertex-counting convention.  Each check pairs the hypothesis with
    the independently computed conclusion; consumers decide what a
    finding means.  More than ``subsets.MAX_TABLE_GENERATORS`` edges
    are refused by the search, before the path search runs.
    """
    # one search: both verdicts are read off its count of minimal orders
    scan = search_scan(edge_ideal(graph))
    totally, lyubeznik = scan.totally_lyubeznik, scan.lyubeznik
    path_edges = longest_path_edges(graph)
    return (
        PropositionCheck("no-path-of-3-edges-implies-totally-lyubeznik",
                         path_edges < 3, totally),
        PropositionCheck("no-path-of-3-vertices-implies-totally-lyubeznik",
                         path_edges < 2, totally),
        PropositionCheck("triangle-implies-totally-lyubeznik",
                         _is_cycle(graph, 3), totally),
        PropositionCheck("no-path-of-4-edges-implies-lyubeznik",
                         path_edges < 4, lyubeznik),
        PropositionCheck("no-path-of-4-vertices-implies-lyubeznik",
                         path_edges < 3, lyubeznik),
        PropositionCheck("four-cycle-implies-not-lyubeznik",
                         _is_cycle(graph, 4), not lyubeznik),
    )
