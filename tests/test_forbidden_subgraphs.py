"""Lyubeznik edge ideals by forbidden induced subgraphs.

Observed here, not proved: the edge ideal of a graph G is Lyubeznik
exactly when no induced subgraph of G is isomorphic to one of nine
graphs, C4, C5, K4, the path on 5 vertices, the triangle with a 2-edge
tail, the bowtie, the gem, the diamond with a pendant edge at a
degree-2 vertex, and the net.  By heredity (``test_heredity.py``) a
graph with one of them as an induced subgraph is not Lyubeznik once
that one is not; the converse is the observation.

Checked with ``search_scan`` on one graph per isomorphism class on at
most 6 vertices (155 classes, ``graph_classes`` of
``test_prefix_search.py``) and on hypothesis graphs on 7 vertices with
at most 11 edges; and each of the nine is not Lyubeznik while each of
its proper induced subgraphs is, so none of them can be left out.  An
induced copy is found by the edge mask of each vertex subset of 4 to 6
vertices against the masks of every labelling of the nine.
"""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import SimpleGraph, edge_ideal, search_scan

from test_prefix_search import graph_classes


def cycle(k):
    return [(i, (i + 1) % k) for i in range(k)]


# each graph as (vertex count, edges over range(vertex count))
NINE = {
    "C4": (4, cycle(4)),
    "C5": (5, cycle(5)),
    "K4": (4, list(combinations(range(4), 2))),
    "path on 5 vertices": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "triangle with a 2-edge tail": (5, [(0, 1), (0, 2), (1, 2), (2, 3),
                                        (3, 4)]),
    "bowtie": (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
    "gem": (5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)]),
    # the diamond's degree-2 vertices are 0 and 3
    "diamond with a pendant at a degree-2 vertex": (
        5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4)]),
    "net": (6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]),
}


def edge_mask(vertices, edges) -> int:
    """The edge mask, over the pairs of ``vertices`` in lexicographic
    order, of the subgraph that ``edges`` (sorted pairs) induces on them."""
    mask = 0
    for e, pair in enumerate(combinations(vertices, 2)):
        if pair in edges:
            mask |= 1 << e
    return mask


def labellings():
    """Per vertex count k, the edge masks over the pairs of range(k) of
    every labelling of the nine graphs with k vertices."""
    masks = {}
    for k, edges in NINE.values():
        for perm in permutations(range(k)):
            moved = {tuple(sorted((perm[a], perm[b]))) for a, b in edges}
            masks.setdefault(k, set()).add(edge_mask(range(k), moved))
    return masks


FORBIDDEN = labellings()


def has_forbidden(n: int, edges: set, proper: bool = False) -> bool:
    """Whether the graph on range(n) with ``edges`` (sorted pairs) has
    one of the nine as an induced subgraph (``proper``: on fewer than
    n vertices)."""
    return any(edge_mask(sub, edges) in masks
               for k, masks in FORBIDDEN.items()
               if k < n or (k == n and not proper)
               for sub in combinations(range(n), k))


def graph(edges) -> SimpleGraph:
    """The graph of ``edges`` over ints, its isolated vertices dropped."""
    used = sorted({v for edge in edges for v in edge})
    return SimpleGraph(tuple(f"v{v}" for v in used),
                       tuple((f"v{a}", f"v{b}") for a, b in edges))


def lyubeznik(edges) -> bool:
    return search_scan(edge_ideal(graph(sorted(edges)))).lyubeznik


def test_the_nine_decide_every_graph_on_six_vertices():
    classes = graph_classes(6, 15)
    assert len(classes) == 155
    forbidden = 0
    for g in classes:
        index = {v: i for i, v in enumerate(g.vertices)}
        edges = {tuple(sorted((index[a], index[b]))) for a, b in g.edges}
        found = has_forbidden(len(g.vertices), edges)
        assert search_scan(edge_ideal(g)).lyubeznik is not found, g
        forbidden += found
    assert forbidden == 122


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(list(combinations(range(7), 2))),
               min_size=1, max_size=11))
def test_the_nine_decide_hypothesis_graphs_on_seven_vertices(edges):
    assert lyubeznik(edges) is not has_forbidden(7, edges)


@pytest.mark.parametrize("name", sorted(NINE))
def test_each_of_the_nine_is_a_minimal_non_lyubeznik_graph(name):
    k, edges = NINE[name]
    edges = {tuple(sorted(edge)) for edge in edges}
    assert not lyubeznik(edges)
    assert not has_forbidden(k, edges, proper=True)
    for size in range(2, k):
        for sub in combinations(range(k), size):
            induced = [pair for pair in combinations(sub, 2) if pair in edges]
            if induced:
                assert lyubeznik(induced), (name, sub)


def test_the_pendant_s_place_and_a_longer_path():
    # the pendant at a degree-3 vertex of the diamond leaves it
    # Lyubeznik; the path on 6 vertices is not, through its path on 5
    pendant = {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4)}
    assert lyubeznik(pendant) and not has_forbidden(5, pendant)
    path = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)}
    assert not lyubeznik(path) and has_forbidden(6, path, proper=True)
