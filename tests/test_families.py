"""Closed forms on graph families, and the rules of disjoint sums.

Edge ideals of paths, cycles, complete graphs and complete bipartite
graphs have closed forms for the projective dimension of R/I.  Those
pinned here are cited, not checked against the sources offline:

* the path P_e with e edges: pd = ceil(2e / 3), and the cycle C_n:
  pd = ceil((2n - 1) / 3) (Jacques 2004);
* K_n: pd = n - 1, and K_{a,b}: pd = a + b - 1 (Fröberg; Jacques 2004).

The least resolution length over all orders (``min_l``) is observed
here, from the exact search, not taken from a source: it is the
projective dimension on every family above, except the cycles C_n with
n = 2 mod 3, where it is one more (C_14 reads (10, 9) in
``ci/test_past_the_bound.py`` as well).

An ideal whose generators fall into parts in disjoint sets of variables
is the sum of its parts, and R/I is the tensor product of the parts'
quotients.  A set of generators is preserved by an order exactly when
its members in each part are preserved by the order the part inherits,
since a court of a set lies in the part of its lcm's variables and the
sets broken in a part stay broken in any larger set; so the complex of
the sum is the join of the parts' complexes.  Hence, checked here on
random sums of two or three parts (mu <= 9, the parts' generators
shuffled together, each part keeping its own order):

* ``projdim`` and ``min_l`` add;
* the sum is Lyubeznik (totally Lyubeznik) exactly when every part is;
* the minimal orders are the shuffles of the parts' minimal orders:
  ``minimal_count`` is the product of the parts' counts times
  mu! / (mu_1! ... mu_k!);
* ``tobsl`` is the largest of the parts': the clutter of the sum is
  the union of the parts' clutters;
* the graded Betti polynomial is the product of the parts';
* the least minimal order and the least order of length ``min_l`` are
  the parts' least ones merged by value: an order is of the kind
  asked for exactly when every part's inherited order is, so the
  least one takes each part's least word, and the least shuffle of
  words with distinct values takes the smaller head at each step.
"""

import heapq
import random
from itertools import combinations
from math import ceil, factorial, prod

import pytest

from lyubeznik import (SimpleGraph, edge_ideal, is_lyubeznik, search_scan,
                       taylor_betti)

from conftest import exponent_ideal
from test_prefix_search import complete_bipartite, cycle


def path(e):
    names = tuple(f"v{i}" for i in range(e + 1))
    return SimpleGraph(names, tuple(zip(names, names[1:])))


def complete(n):
    names = tuple(f"v{i}" for i in range(n))
    return SimpleGraph(names, tuple(combinations(names, 2)))


FAMILIES = (
    [(f"P{e}", path(e), ceil(2 * e / 3), 0) for e in range(1, 14)]
    + [(f"C{n}", cycle(n), ceil((2 * n - 1) / 3), int(n % 3 == 2))
       for n in range(3, 14)]
    + [(f"K{n}", complete(n), n - 1, 0) for n in range(2, 6)]
    + [(f"K{a},{b}", complete_bipartite(a, b), a + b - 1, 0)
       for a in range(1, 5) for b in range(a, 13) if a * b <= 12])


@pytest.mark.parametrize("name, graph, projdim, extra",
                         FAMILIES, ids=[f[0] for f in FAMILIES])
def test_projdim_and_min_l_of_graph_families(name, graph, projdim, extra):
    scan = search_scan(edge_ideal(graph))
    assert (scan.projdim, scan.min_l) == (projdim, projdim + extra)


# -- disjoint sums --------------------------------------------------------------


def random_part(rng, mu):
    """mu exponent rows, no one dividing another, in 2 or 3 variables
    with exponents at most 3; drawn again when a draw gets stuck."""
    nvars = rng.choice((2, 3)) if mu <= 2 else 3
    rows, tries = [], 0
    while len(rows) < mu:
        row = tuple(rng.randint(0, 3) for _ in range(nvars))
        if any(row) and not any(all(a <= b for a, b in zip(r, row))
                                or all(b <= a for a, b in zip(r, row))
                                for r in rows):
            rows.append(row)
        tries += 1
        if tries == 1000:
            rows, tries = [], 0
    return rows


def disjoint_sum(rng, parts):
    """The ideal of the parts' rows in disjoint variables, the parts'
    generators shuffled together, and where[k][i - 1], the index in the
    sum of part k's generator i."""
    widths = [len(rows[0]) for rows in parts]
    starts = [sum(widths[:k]) for k in range(len(parts))]
    labels = [k for k, rows in enumerate(parts) for _ in rows]
    rng.shuffle(labels)
    rows, where = [], [[] for _ in parts]
    for index, k in enumerate(labels, 1):
        row = [0] * sum(widths)
        row[starts[k]:starts[k] + widths[k]] = parts[k][len(where[k])]
        where[k].append(index)
        rows.append(tuple(row))
    return exponent_ideal(rows), where


def random_sums(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        sizes = [rng.randint(1, 4) for _ in range(rng.choice((2, 3)))]
        while sum(sizes) > 9:
            sizes[sizes.index(max(sizes))] -= 1
        parts = [random_part(rng, mu) for mu in sizes]
        whole, where = disjoint_sum(rng, parts)
        yield whole, [exponent_ideal(rows) for rows in parts], where


def merged(words, where):
    """The parts' words in the sum's indices, merged by value."""
    if any(word is None for word in words):
        return None
    return tuple(heapq.merge(*([at[g - 1] for g in word]
                               for word, at in zip(words, where))))


def test_disjoint_sums_add_and_multiply():
    kinds = set()
    for whole, parts, where in random_sums(3700, 150):
        scan, scans = search_scan(whole), [search_scan(p) for p in parts]
        assert scan.projdim == sum(s.projdim for s in scans)
        assert scan.min_l == sum(s.min_l for s in scans)
        assert scan.lyubeznik == all(s.lyubeznik for s in scans)
        assert scan.totally_lyubeznik == all(s.totally_lyubeznik
                                             for s in scans)
        assert scan.minimal_count == (
            prod(s.minimal_count for s in scans) * factorial(whole.mu)
            // prod(factorial(p.mu) for p in parts))
        assert scan.tobsl == max(s.tobsl for s in scans)
        kinds.add((scan.lyubeznik, scan.totally_lyubeznik))
    # sums of every kind were drawn: not Lyubeznik, Lyubeznik only, and
    # totally Lyubeznik
    assert kinds == {(False, False), (True, False), (True, True)}


def betti_product(tables):
    """The product of graded Betti polynomials, {(i, j): coefficient}."""
    product = {(0, 0): 1}
    for table in tables:
        terms = {}
        for (i, j), x in product.items():
            for (a, b), y in table.items():
                terms[(i + a, j + b)] = terms.get((i + a, j + b), 0) + x * y
        product = terms
    return product


def test_disjoint_sums_multiply_betti_and_merge_witnesses():
    for whole, parts, where in random_sums(3701, 150):
        assert taylor_betti(whole).graded == betti_product(
            taylor_betti(p).graded for p in parts)
        verdict = is_lyubeznik(whole).witness
        assert (verdict and verdict.order) == merged(
            [v.witness and v.witness.order
             for v in map(is_lyubeznik, parts)], where)
        assert search_scan(whole).min_l_witness == merged(
            [search_scan(p).min_l_witness for p in parts], where)
