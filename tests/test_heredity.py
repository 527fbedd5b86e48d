"""Heredity: Lyubeznik and totally Lyubeznik pass to restrictions.

For a monomial m, the restriction of I to m is the ideal generated by
the generators of I that divide m.  An order on I restricts to an order
on it, under which a set of those generators has the same courts among
them and the same lcm, so a minimal resolution of I restricts to one of
the restriction: if I is Lyubeznik (some order is minimal), so is each
restriction, and if I is totally Lyubeznik (every order is), so is each
restriction.  The generators dividing m are exactly those dividing the
lcm of the ones that do, so the restrictions are the ideals of the
closed masks, ``divisor_mask[R] == R``, and each is read off as
``divisor_mask[R]`` for any R.  For an edge ideal and a squarefree m,
the restriction is the edge ideal of the induced subgraph on m's
variables.

Both are checked with ``search_scan``: on hypothesis ideals, at a few
restrictions drawn from the subset tables, and on every graph with at
most 5 vertices and each of its induced subgraphs, one search per
isomorphism class.
"""

from itertools import combinations, permutations

import numpy as np
from hypothesis import given, settings, strategies as st

from lyubeznik import MonomialIdeal, SimpleGraph, edge_ideal, search_scan
from lyubeznik.subsets import indices_of, tables_for

from conftest import exponent_rows, small_ideal


def restriction(ideal, mask):
    """The ideal of the generators dividing the lcm of ``mask``'s."""
    closed = int(tables_for(ideal).divisor_mask[mask])
    return MonomialIdeal(ideal.context,
                         [ideal.gen(i) for i in indices_of(closed)])


def verdicts(ideal):
    scan = search_scan(ideal)
    return scan.lyubeznik, scan.totally_lyubeznik


def check_heredity(whole, part):
    """Each verdict that holds for ``whole`` holds for ``part``."""
    assert all(p or not w for w, p in zip(whole, part)), (whole, part)


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(exponent_rows), st.data())
def test_restrictions_keep_the_verdicts_on_hypothesis_ideals(rows, data):
    ideal = small_ideal(rows, max_mu=8)
    whole = verdicts(ideal)
    masks = st.integers(1, (1 << ideal.mu) - 1)
    for mask in data.draw(st.lists(masks, min_size=1, max_size=3)):
        part = restriction(ideal, mask)
        check_heredity(whole, verdicts(part))


PAIRS = list(combinations(range(5), 2))


def graph_of(mask):
    """The graph of an edge mask over the pairs of 5 vertices, its
    isolated vertices dropped."""
    edges = [PAIRS[e] for e in range(len(PAIRS)) if mask >> e & 1]
    vertices = sorted({v for edge in edges for v in edge})
    return SimpleGraph(tuple(f"v{v}" for v in vertices),
                       tuple((f"v{a}", f"v{b}") for a, b in edges))


def least_relabelling():
    """Entry m: the least edge mask among the 5! relabellings of m's
    graph, which names its isomorphism class."""
    index = {pair: e for e, pair in enumerate(PAIRS)}
    masks = np.arange(1 << len(PAIRS))
    least = masks.copy()
    for perm in permutations(range(5)):
        image = np.zeros_like(masks)
        for e, (a, b) in enumerate(PAIRS):
            image |= (masks >> e & 1) << index[tuple(sorted((perm[a],
                                                             perm[b])))]
        np.minimum(least, image, out=least)
    return least


def test_induced_subgraphs_keep_the_verdicts_on_five_vertices():
    # every graph on at most 5 vertices is one on 5 with isolated
    # vertices, and each of its induced subgraphs keeps the edges with
    # both ends in a vertex set W
    least = least_relabelling().tolist()
    classes = sorted(set(least) - {0})
    assert len(classes) == 33
    found = {c: verdicts(edge_ideal(graph_of(c))) for c in classes}
    inside = [sum(1 << e for e, (a, b) in enumerate(PAIRS)
                  if w >> a & 1 and w >> b & 1) for w in range(32)]
    checked = 0
    for c in classes:
        for w in range(32):
            sub = least[c & inside[w]]
            if sub:
                check_heredity(found[c], found[sub])
                checked += found[c][0]
    # 16 of the 33 are Lyubeznik and 8 totally so; the other 17 hold
    # C4, K4, C5 or the triangle with a 2-edge tail as induced subgraphs
    assert sum(v[0] for v in found.values()) == 16
    assert sum(v[1] for v in found.values()) == 8
    assert checked > 16


def test_a_squarefree_restriction_is_the_induced_subgraph():
    # the bull: a triangle with two pendant edges; m = v0 v1 v2 v3
    graph = SimpleGraph(("v0", "v1", "v2", "v3", "v4"),
                        (("v0", "v1"), ("v1", "v2"), ("v0", "v2"),
                         ("v1", "v3"), ("v2", "v4")))
    ideal = edge_ideal(graph)
    names = ideal.context.names
    dividing = [i for i in ideal.indices()
                if all(names[v] in ("v0", "v1", "v2", "v3")
                       for v, e in enumerate(ideal.gen(i).exponents) if e)]
    induced = edge_ideal(SimpleGraph(("v0", "v1", "v2", "v3"),
                                     (("v0", "v1"), ("v1", "v2"),
                                      ("v0", "v2"), ("v1", "v3"))))
    part = restriction(ideal, sum(1 << (i - 1) for i in dividing))
    assert sorted(str(g) for g in part.gens) == \
        sorted(str(g) for g in induced.gens)
