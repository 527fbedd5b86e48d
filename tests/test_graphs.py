"""Graphs, edge ideals, and the edge-ideal proposition checks."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (
    BoundExceededError,
    MonomialIdeal,
    OrderedIdeal,
    ParseError,
    PropositionCheck,
    SimpleGraph,
    VariableContext,
    all_graphs,
    check_graph_propositions,
    edge_ideal,
    graph_names,
    is_lyubeznik,
    is_minimal_resolution,
    is_totally_lyubeznik,
    load_graph,
    load_ideal,
    longest_path_edges,
    parse_graph,
    read_graph,
    search_scan,
)

from reference_routes import inside_scan

PATH3 = parse_graph("vertex a b c\nedge a b\nedge b c")


def test_parse_round_trip():
    assert PATH3.vertices == ("a", "b", "c")
    assert PATH3.edges == (("a", "b"), ("b", "c"))
    assert PATH3.neighbors("b") == ("a", "c")
    assert PATH3.edge_count == 2


def test_parse_skips_comments_and_blanks():
    g = parse_graph("# one edge\n\nvertex a b\n   # indented comment\nedge a b\n")
    assert g.edges == (("a", "b"),)


@pytest.mark.parametrize("text, fragment, line, column", [
    ("edge a b", "no vertex line", None, None),
    ("vertex a b\nroute a b", "unknown directive", 2, 1),
    ("vertex a b\nedge a", "two endpoints", 2, 1),
    ("vertex a b\nedge a b c", "two endpoints", 2, 1),
    ("vertex a a\nedge a a", "duplicate vertex name 'a'", 1, 10),
    ("vertex a b\n\n  vertex c  b", "duplicate vertex name 'b'", 3, 13),
    ("vertex a b\nedge a a", "loop", 2, 1),
    ("vertex a b\nedge a b\n edge b a", "duplicate edge", 3, 2),
    ("vertex a b\nedge a c", "undeclared", 2, 1),
    ("edge a b\nvertex a\nedge b a", "undeclared", 1, 1),
    ("vertex\n", "no vertices", 1, 1),
    ("*boom", "unexpected", 1, 1),
    # a vertex name is a variable name of the edge ideal
    ("vertex 1 2 3 4\nedge 1 2\nedge 2 3\nedge 3 4\n",
     "invalid vertex name '1'", 1, 8),
    ("vertex a 2b\nedge a 2b", "invalid vertex name '2b'", 1, 10),
    ("# names\nvertex a\tb-c\nedge a b-c", "invalid vertex name 'b-c'", 2, 10),
    ("vertex a \u00e9", "invalid vertex name '\u00e9'", 1, 10),
])
def test_parse_errors(text, fragment, line, column):
    with pytest.raises(ParseError, match=fragment) as info:
        parse_graph(text)
    assert (info.value.line, info.value.column) == (line, column)


def test_parse_error_location():
    with pytest.raises(ParseError) as info:
        parse_graph("vertex a b\n  route a b")
    assert info.value.line == 2
    assert info.value.column == 3


def test_graph_validation_direct():
    with pytest.raises(ValueError, match="undeclared"):
        SimpleGraph(("a",), (("a", "b"),))


def test_longest_path_edges():
    expected = {"path2": 1, "path3": 2, "path4": 3, "path5": 4,
                "cycle3": 2, "cycle4": 3, "cycle5": 4, "cycle6": 5,
                "star3": 2, "star4": 2, "complete4": 3}
    assert set(expected) == set(graph_names())
    for name, edges in expected.items():
        assert longest_path_edges(load_graph(name)) == edges, name


def test_path_search_bound():
    # the bound is on the edges, the subset tables' 16, not the vertices
    names = tuple(f"v{i}" for i in range(13))
    long_path = SimpleGraph(names, tuple(zip(names, names[1:])))
    assert longest_path_edges(long_path) == 12
    names = tuple(f"v{i}" for i in range(18))
    longer_path = SimpleGraph(names, tuple(zip(names, names[1:])))
    with pytest.raises(BoundExceededError, match="at most 16 edges, got 17"):
        longest_path_edges(longer_path)


def test_propositions_refuse_before_the_path_search(monkeypatch):
    # K_12 has 66 edges: the search refuses before the exponential DFS
    names = tuple(f"v{i}" for i in range(12))
    k12 = SimpleGraph(names, tuple(combinations(names, 2)))
    calls = []
    monkeypatch.setattr("lyubeznik.graphs.longest_path_edges",
                        lambda graph: calls.append(graph) or 0)
    with pytest.raises(BoundExceededError, match="66"):
        check_graph_propositions(k12)
    assert calls == []
    # and the path search itself refuses on the edge count
    with pytest.raises(BoundExceededError, match="got 66"):
        longest_path_edges(k12)


def test_edge_ideal_matches_edge_listing():
    ideal = edge_ideal(PATH3)
    assert [str(m) for m in ideal.gens] == ["a*b", "b*c"]
    assert ideal.is_squarefree()
    with pytest.raises(ValueError, match="edgeless"):
        edge_ideal(SimpleGraph(("a", "b"), ()))


def product_ideal(graph):
    """The edge ideal with each edge's generator the product of its two
    variables, ``Monomial.__mul__`` of checked monomials."""
    context = VariableContext(graph.vertices)
    return MonomialIdeal(context, tuple(
        context.variable(a) * context.variable(b) for a, b in graph.edges))


def test_edge_ideal_matches_the_products_of_variables(pool):
    out, inputs = pool
    graphs = [graph for _, graph in all_graphs()]
    graphs += [read_graph(out / name) for name in sorted(inputs)
               if name.endswith(".graph")]
    assert len(graphs) > 30
    for graph in graphs:
        ideal = edge_ideal(graph)
        assert ideal == product_ideal(graph)
        assert all(type(e) is int for m in ideal.gens for e in m.exponents)


def test_edge_ideal_agrees_with_ideal_corpus():
    assert edge_ideal(load_graph("cycle3")) == load_ideal("triangle_edges")
    assert edge_ideal(load_graph("cycle4")) == load_ideal("square_edges")
    assert edge_ideal(load_graph("complete4")) == load_ideal("complete4_edges")


def test_complete_graph():
    names = ("a", "b", "c", "d")
    k4 = SimpleGraph(names, tuple(combinations(names, 2)))
    assert k4 == load_graph("complete4")
    assert all(len(k4.neighbors(v)) == 3 for v in k4.vertices)


def test_proposition_rows_are_stable():
    rows = check_graph_propositions(load_graph("cycle3"))
    assert [r.name for r in rows] == [
        "no-path-of-3-edges-implies-totally-lyubeznik",
        "no-path-of-3-vertices-implies-totally-lyubeznik",
        "triangle-implies-totally-lyubeznik",
        "no-path-of-4-edges-implies-lyubeznik",
        "no-path-of-4-vertices-implies-lyubeznik",
        "four-cycle-implies-not-lyubeznik",
    ]
    by_name = {r.name: r for r in rows}
    triangle = by_name["triangle-implies-totally-lyubeznik"]
    assert triangle.hypothesis and triangle.conclusion and not triangle.finding


def test_vertex_convention_rows_never_fail_on_corpus():
    # Path-length hypotheses counted in vertices match the observed
    # conclusions on every corpus graph; counted in edges they fail on
    # the four-cycle and the complete graph, which is the reason both
    # conventions are reported side by side.
    edge_rows = {"no-path-of-3-edges-implies-totally-lyubeznik",
                 "no-path-of-4-edges-implies-lyubeznik"}
    findings = {}
    for name, graph in all_graphs():
        for row in check_graph_propositions(graph):
            if row.finding:
                findings.setdefault(name, []).append(row.name)
            if row.name not in edge_rows:
                assert not row.finding, (name, row.name)
    assert findings == {
        "cycle4": ["no-path-of-4-edges-implies-lyubeznik"],
        "complete4": ["no-path-of-4-edges-implies-lyubeznik"],
    }


def test_four_cycle_proposition():
    rows = {r.name: r for r in check_graph_propositions(load_graph("cycle4"))}
    four = rows["four-cycle-implies-not-lyubeznik"]
    assert four.hypothesis and four.conclusion and not four.finding
    # The same row on a five-cycle has a false hypothesis.
    rows5 = {r.name: r for r in check_graph_propositions(load_graph("cycle5"))}
    assert not rows5["four-cycle-implies-not-lyubeznik"].hypothesis


def two_scan_propositions(graph):
    """The propositions with one scan per verdict, as the reference."""
    ideal = edge_ideal(graph)
    totally = is_totally_lyubeznik(ideal)
    lyubeznik = is_lyubeznik(ideal).verdict
    rows = check_graph_propositions(graph)
    conclusions = [totally] * 3 + [lyubeznik] * 2 + [not lyubeznik]
    return tuple(PropositionCheck(r.name, r.hypothesis, c)
                 for r, c in zip(rows, conclusions))


def scanned_propositions(graph):
    """The propositions with both verdicts from the checking route of
    the search (``reference_routes.inside_scan``)."""
    scan = inside_scan(edge_ideal(graph))
    rows = check_graph_propositions(graph)
    conclusions = ([scan.totally_lyubeznik] * 3 + [scan.lyubeznik] * 2
                   + [not scan.lyubeznik])
    return tuple(PropositionCheck(r.name, r.hypothesis, c)
                 for r, c in zip(rows, conclusions))


def test_propositions_match_two_scans_on_every_corpus_graph():
    for name, graph in all_graphs():
        expected = two_scan_propositions(graph)
        assert check_graph_propositions(graph) == expected, name
        assert scanned_propositions(graph) == expected, name


def test_check_props_scans_once_per_request(monkeypatch):
    import lyubeznik.graphs as graphs
    calls = []
    original = graphs.search_scan

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result.stopped_early)
        return result

    monkeypatch.setattr(graphs, "search_scan", counted)
    for name, graph in all_graphs():
        calls.clear()
        check_graph_propositions(graph)
        assert len(calls) == 1, name


# -- totally Lyubeznik edge ideals: no path of three edges --------------------


def three_edge_path(graph):
    """The edges (ab, bc, cd) of a path a-b-c-d on four distinct
    vertices, or None when the graph has no path of three edges."""
    adjacency = {v: set(graph.neighbors(v)) for v in graph.vertices}
    for b, c in graph.edges:
        for a in adjacency[b] - {c}:
            for d in adjacency[c] - {a, b}:
                return (a, b), (b, c), (c, d)
    return None


def check_three_edge_paths(graph):
    """A path a-b-c-d makes the order (ab, cd, bc, the rest ascending)
    preserve {ab, cd, bc}, an E-minimal cover of bc, so that order is
    not minimal; a graph with no such path is totally Lyubeznik.
    Returns whether the graph has the path."""
    ideal = edge_ideal(graph)
    path = three_edge_path(graph)
    if path is None:
        assert search_scan(ideal).totally_lyubeznik
        assert longest_path_edges(graph) < 3
        return False
    number = {frozenset(edge): i for i, edge in enumerate(graph.edges, 1)}
    ab, bc, cd = (number[frozenset(edge)] for edge in path)
    order = (ab, cd, bc) + tuple(i for i in range(1, ideal.mu + 1)
                                 if i not in (ab, bc, cd))
    assert not is_minimal_resolution(OrderedIdeal(ideal, order))
    assert not search_scan(ideal).totally_lyubeznik
    return True


def labelled_graph(n, edges):
    names = tuple(f"v{v}" for v in range(n))
    return SimpleGraph(names, tuple((names[a], names[b]) for a, b in edges))


def test_totally_lyubeznik_edge_ideals_have_no_three_edge_path():
    # every labelled graph with an edge on at most 5 vertices
    found = []
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            edges = [p for e, p in enumerate(pairs) if mask >> e & 1]
            found.append(check_three_edge_paths(labelled_graph(n, edges)))
    assert (len(found), sum(found)) == (1094, 927)


@settings(max_examples=300)
@given(st.integers(6, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sampled_from(list(combinations(range(n), 2))),
                         min_size=1, max_size=11, unique=True))))
def test_totally_lyubeznik_edge_ideals_on_hypothesis_graphs(graph):
    check_three_edge_paths(labelled_graph(*graph))
