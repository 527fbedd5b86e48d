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

from dataclasses import dataclass

from .invariants import search_scan
from .monomials import (BoundExceededError, MonomialIdeal, ParseError,
                        VariableContext, _directive_lines)
from .orders import DEFAULT_MAX_EXHAUSTIVE

MAX_PATH_VERTICES = 12


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
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        declared = set(self.vertices)
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"loop at vertex {a!r}")
            if a not in declared or b not in declared:
                raise ValueError(f"edge ({a!r}, {b!r}) uses an undeclared vertex")
            key = frozenset((a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({a!r}, {b!r})")
            seen.add(key)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: str) -> tuple[str, ...]:
        out = [b if a == v else a for a, b in self.edges if v in (a, b)]
        return tuple(sorted(out))


def parse_graph(text: str) -> SimpleGraph:
    """Parse ``vertex``/``edge`` lines; comments and blank lines skipped."""
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for lineno, word, column, rest, _ in _directive_lines(
            text, ("vertex", "edge")):
        names = rest.split()
        if word == "vertex":
            if not names:
                raise ParseError("vertex line lists no vertices", lineno, column)
            vertices.extend(names)
        else:
            if len(names) != 2:
                raise ParseError("edge line needs exactly two endpoints",
                                 lineno, column)
            edges.append((names[0], names[1]))
    if not vertices:
        raise ParseError("no vertex line")
    try:
        return SimpleGraph(tuple(vertices), tuple(edges))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def read_graph(path) -> SimpleGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph(handle.read())


def edge_ideal(graph: SimpleGraph) -> MonomialIdeal:
    """The squarefree quadratic ideal with one generator per edge."""
    if not graph.edges:
        raise ValueError("the edge ideal of an edgeless graph is undefined")
    context = VariableContext(graph.vertices)
    gens = []
    for a, b in graph.edges:
        gens.append(context.variable(a) * context.variable(b))
    return MonomialIdeal(context, tuple(gens))


def longest_path_edges(graph: SimpleGraph, *,
                       max_vertices: int = MAX_PATH_VERTICES) -> int:
    """Edge count of the longest simple path, by exhaustive extension."""
    if len(graph.vertices) > max_vertices:
        raise BoundExceededError(
            f"path search supports at most {max_vertices} vertices, "
            f"got {len(graph.vertices)}")
    adjacency = {v: graph.neighbors(v) for v in graph.vertices}

    def extend(tail: str, used: set[str]) -> int:
        best = 0
        for nxt in adjacency[tail]:
            if nxt not in used:
                used.add(nxt)
                best = max(best, 1 + extend(nxt, used))
                used.remove(nxt)
        return best

    return max((extend(v, {v}) for v in graph.vertices), default=0)


def _is_cycle(graph: SimpleGraph, length: int) -> bool:
    if len(graph.vertices) != length or graph.edge_count != length:
        return False
    if any(len(graph.neighbors(v)) != 2 for v in graph.vertices):
        return False
    # degree-2 everywhere with |E| = |V| leaves a disjoint union of
    # cycles; one component means the whole graph is a single cycle
    seen = {graph.vertices[0]}
    frontier = [graph.vertices[0]]
    while frontier:
        nxt = [w for v in frontier for w in graph.neighbors(v) if w not in seen]
        seen.update(nxt)
        frontier = nxt
    return len(seen) == length


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


def check_graph_propositions(graph: SimpleGraph, *,
                             max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
                             jobs: int = 1) -> tuple[PropositionCheck, ...]:
    """Evaluate the edge-ideal statements on one graph.

    Path lengths are reported under both the edge-counting and the
    vertex-counting convention.  Each check pairs the hypothesis with
    the independently computed conclusion; consumers decide what a
    finding means.
    """
    ideal = edge_ideal(graph)
    path_edges = longest_path_edges(graph)
    # one scan settles both verdicts: it stops once it has seen a
    # minimal and a non-minimal order, or else runs to the end
    scan = search_scan(ideal, "exhaustive", max_exhaustive=max_exhaustive,
                       jobs=jobs, stop_when="both-verdicts")
    totally, lyubeznik = scan.totally_lyubeznik, scan.lyubeznik
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
