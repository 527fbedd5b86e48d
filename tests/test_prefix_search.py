"""Differential test of the prefix-set search behind exhaustive searches.

``search_scan`` and every searching consumer answer by walks over
prefix sets (``lyubeznik.prefix.PrefixWalk``).  The walks' one checking
route is ``reference_routes.InsideWalk``, which settles a state only
once an alive family set lies inside the prefix.  The search's
aggregates, witnesses and verdicts have one checking route built on it,
``reference_routes.inside_scan``: each value is the least k from 0 up
at which a walk over the clutter edges above k, or over every
(k + 1)-set, finds an order, and its witness is the order found.

* ``search_scan`` against ``inside_scan``, field by field, on the
  corpus, its graphs, seeded mu 8 ideals and hypothesis ideals.
  Each aggregate is also read first on a fresh search, so the
  depth-first searches are checked without the count's memo as well as
  with it.
* ``PrefixWalk``'s count and least order, and ``SearchResult._at_most``
  at every length from the projective dimension up, against
  ``InsideWalk``, on the corpus, hypothesis ideals and a sample of the
  seed-1 pool; ``ci/test_past_the_bound.py`` runs the whole pool.
* The walks' closed table (``prefix._masks``) against one up-closure
  of the open masks (``reference_routes.closed_by_up_closure``), and
  the sure rule against listing every completion of each prefix.
* Past the reach of a listing of all orders, the tests pin what the
  search finds on graphs and pool ideals up to mu 16.
"""

import random
import time
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (OrderedIdeal, PropositionCheck, SimpleGraph,
                       all_graphs, analyze, check_graph_propositions,
                       edge_ideal, identity_order, is_totally_lyubeznik,
                       l_length, load_ideal, longest_path_edges, parse_ideal,
                       read_ideal, search_scan, taylor_betti)
from lyubeznik import invariants
from lyubeznik.corpus import ideal_names
from lyubeznik.covers import cover_table
from lyubeznik.monomials import divides
from lyubeznik.prefix import PrefixWalk, _masks
from lyubeznik.subsets import indices_of, mask_of, tables_for

from reference_routes import InsideWalk, closed_by_up_closure, inside_scan
from conftest import exponent_rows, pool_ideal, small_ideal

FIELDS = ("scanned", "tobsl", "tobsl_witness", "min_l", "min_l_witness",
          "minimal_count", "lyubeznik", "totally_lyubeznik")


def fresh(ideal):
    return search_scan(ideal)


def descended(*args, **kwargs):
    raise AssertionError("a verdict descended a prefix walk")


def check(ideal, projdim=None):
    """The prefix search agrees with ``inside_scan`` on every field, read
    all together or each one first.  Both verdicts also answer with
    ``PrefixWalk.first`` made to raise: they are read off the count of
    minimal orders."""
    reference = inside_scan(ideal)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PrefixWalk, "first", descended)
        search = fresh(ideal)
        assert (search.lyubeznik, search.totally_lyubeznik) == (
            reference.lyubeznik, reference.totally_lyubeznik)
    search = fresh(ideal)
    for field in FIELDS:
        assert getattr(search, field) == getattr(reference, field), field
    for field in FIELDS:
        assert getattr(fresh(ideal), field) == getattr(reference, field), \
            field
    if projdim is not None:
        # analyze's reading order: the verdicts, almost, then min_l
        search = fresh(ideal)
        assert search.lyubeznik == reference.lyubeznik
        assert search.totally_lyubeznik == reference.totally_lyubeznik
        assert (search.almost_lyubeznik
                == reference.almost_lyubeznik(search.projdim))
        assert search.projdim == projdim
        assert search.min_l == reference.min_l
    return reference


@pytest.mark.parametrize("name", ideal_names())
def test_corpus_ideals(name):
    ideal = load_ideal(name)
    projdim = taylor_betti(ideal).projective_dimension
    check(ideal, projdim)


@pytest.mark.parametrize("name,graph", all_graphs(),
                         ids=[name for name, _ in all_graphs()])
def test_corpus_graphs_and_their_propositions(name, graph, monkeypatch):
    scan = check(edge_ideal(graph))
    # the checks read both verdicts off the count and descend no walk
    monkeypatch.setattr(PrefixWalk, "first", descended)
    rows = check_graph_propositions(graph)
    conclusions = ([scan.totally_lyubeznik] * 3 + [scan.lyubeznik] * 2
                   + [not scan.lyubeznik])
    assert rows == tuple(PropositionCheck(r.name, r.hypothesis, c)
                         for r, c in zip(rows, conclusions)), name


def seeded_ideal(seed, mu, nvars=6):
    """A seeded ideal with mu minimal generators, exponents at most 3."""
    rng = random.Random(seed)
    gens = set()
    while True:
        gens.add(tuple(rng.randint(0, 3) for _ in range(nvars)))
        ideal = small_ideal(sorted(gens), max_mu=mu)
        if ideal.mu == mu:
            return ideal


def test_seeded_mu_8_ideals():
    for seed in range(3):
        check(seeded_ideal(seed, 8))


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_hypothesis_ideals(rows):
    check(small_ideal(rows, max_mu=7))


def test_edge_cases():
    # one generator: one order, minimal, of length 1
    scan = check(load_ideal("principal_power"))
    assert (scan.minimal_count, scan.min_l) == (1, 1)
    assert scan.totally_lyubeznik
    # an empty clutter: every order is minimal
    scan = check(parse_ideal("vars x y z\ngen x\ngen y\ngen z"))
    assert scan.minimal_count == 6 and scan.totally_lyubeznik
    # totally Lyubeznik with a non-empty clutter
    scan = check(load_ideal("triangle_edges"))
    assert scan.minimal_count == 6 and scan.totally_lyubeznik
    # no order is minimal
    scan = check(load_ideal("square_edges"))
    assert scan.minimal_count == 0 and not scan.lyubeznik


def test_analyze_reads_the_same_verdicts():
    for name in ("mixed_powers_xyz", "five_gen_squarefree", "square_edges",
                 "chain_four_squares"):
        ideal = load_ideal(name)
        scan = inside_scan(ideal)
        projdim = taylor_betti(ideal).projective_dimension
        report = analyze(identity_order(ideal), search=True)
        assert (report.lyubeznik, report.totally_lyubeznik,
                report.almost_lyubeznik) == (
                    scan.lyubeznik, scan.totally_lyubeznik,
                    scan.almost_lyubeznik(projdim)), name
        assert report.ara.upper == min(scan.min_l, ideal.mu), name


# -- beyond a listing's reach -------------------------------------------------


def disjoint_triangles(count):
    names = [f"v{i}" for i in range(3 * count)]
    edges = []
    for a, b, c in zip(names[::3], names[1::3], names[2::3]):
        edges += [(a, b), (b, c), (a, c)]
    return SimpleGraph(tuple(names), tuple(edges))


def test_four_disjoint_triangles_are_totally_lyubeznik():
    ideal = edge_ideal(disjoint_triangles(4))
    assert ideal.mu == 12
    search = fresh(ideal)
    assert search.minimal_count == factorial(12)
    assert search.totally_lyubeznik
    assert search.tobsl == 0 and search.tobsl_witness == tuple(range(1, 13))


def graph_classes(n, max_edges):
    """One graph per isomorphism class of graphs on n vertices with 1 to
    max_edges edges, isolated vertices dropped.  Each edge set is a mask
    over the pairs; a class is named by its least mask under the n!
    relabellings."""
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int32)
    least = masks.copy()
    for perm in permutations(range(n)):
        image = np.zeros_like(masks)
        for e, (a, b) in enumerate(pairs):
            moved = index[tuple(sorted((perm[a], perm[b])))]
            image |= (masks >> e & 1) << moved
        np.minimum(least, image, out=least)
    graphs = []
    for mask in np.unique(least).tolist():
        edges = [pairs[e] for e in range(len(pairs)) if mask >> e & 1]
        if 1 <= len(edges) <= max_edges:
            vertices = sorted({v for edge in edges for v in edge})
            graphs.append(SimpleGraph(
                tuple(f"v{v}" for v in vertices),
                tuple((f"v{a}", f"v{b}") for a, b in edges)))
    return graphs


def test_graph_census_on_six_vertices():
    # An observation on this range, not a theorem: among the graphs
    # without isolated vertices on at most 6 vertices and at most 12
    # edges, the totally Lyubeznik ones are exactly those without a
    # path of 3 edges (disjoint stars and triangles).
    graphs = graph_classes(6, 12)
    assert len(graphs) == 151
    totally = [g for g in graphs
               if is_totally_lyubeznik(edge_ideal(g))]
    assert all(longest_path_edges(g) < 3 for g in totally)
    assert all(longest_path_edges(g) >= 3 for g in graphs
               if g not in totally)
    assert len(totally) == 14


# -- the least order of each length -------------------------------------------


def walked(ideal, k):
    """The least order of length at most k, by the reference walk over
    every (k + 1)-set, which shares no code with ``PrefixWalk.first``."""
    sets = [mask_of(c) for c in combinations(ideal.indices(), k + 1)]
    return InsideWalk(ideal, sets).first()


def check_at_most(ideal):
    scan = fresh(ideal)
    for k in range(scan.projdim, ideal.mu + 1):
        assert scan._at_most(k) == walked(ideal, k), k


@pytest.mark.parametrize("name", ideal_names())
def test_at_most_matches_the_walk_on_the_corpus(name):
    check_at_most(load_ideal(name))


def pool_sample(inputs, max_mu):
    """Every 32nd pool file up to max_mu, by name: a tier-1 sample of
    the sweeps ``ci/test_past_the_bound.py`` runs on every file."""
    names = sorted(n for n, e in inputs.items() if e["mu"] <= max_mu)
    assert len(names) > 100
    return names[::32]


def test_at_most_matches_the_walk_on_a_pool_sample(pool):
    out, inputs = pool
    for name in pool_sample(inputs, 12):
        check_at_most(pool_ideal(out / name))


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_at_most_matches_the_walk_on_hypothesis_ideals(rows):
    check_at_most(small_ideal(rows, max_mu=8))


def complete_bipartite(a, b):
    left = [f"u{i}" for i in range(a)]
    right = [f"w{j}" for j in range(b)]
    return SimpleGraph(tuple(left + right),
                       tuple((u, w) for u in left for w in right))


def test_min_l_of_k44_walks_the_identity_path(monkeypatch):
    # min_l = pd = 7 and the identity order has length 7, so the one
    # walk over the C(16, 8) = 12,870 8-sets goes straight down the
    # identity path: it builds no more rows than there are generators
    ideal = edge_ideal(complete_bipartite(4, 4))
    assert ideal.mu == 16
    start = time.perf_counter()
    scan = fresh(ideal)
    assert not scan.lyubeznik
    walks = []
    monkeypatch.setattr(invariants, "PrefixWalk",
                        lambda *args: walks.append(PrefixWalk(*args))
                        or walks[-1])
    assert (scan.min_l, scan.projdim) == (7, 7)
    assert scan.min_l_witness == tuple(range(1, 17))
    assert len(walks) == 1
    assert walks[0].alive == (1 << 12870) - 1
    assert len(walks[0].rows) <= 16, len(walks[0].rows)
    assert time.perf_counter() - start < 10


# -- the sure rows against the walk they replaced ----------------------------


def families(ideal, rng):
    """The families the searches walk, and random ones: the empty
    family, the clutter, its edges above each size k, every (k + 1)-set,
    and three random subfamilies of the 2^mu masks."""
    clutter = list(cover_table(ideal).clutter)
    out = [[], clutter]
    out += [[m for m in clutter if m.bit_count() > k]
            for k in sorted({m.bit_count() for m in clutter})]
    out += [[mask_of(c) for c in combinations(ideal.indices(), k + 1)]
            for k in range(ideal.mu)]
    size = 1 << ideal.mu
    out += [rng.sample(range(size), rng.randint(1, min(64, size)))
            for _ in range(3)]
    return out


def check_walks(ideal, seed=0):
    """``PrefixWalk`` agrees with ``InsideWalk`` on every family: the
    count, and the least order read on a fresh walk and after the count
    has filled the memo; and so does the clutter's walk started from
    the root of each clutter subfamily, before and after its own count.
    Returns the row routes the walks took (``rows.wide``)."""
    rng = random.Random(seed)
    routes = set()
    for sets in families(ideal, rng):
        reference = InsideWalk(ideal, sets)
        count = reference.count()
        expected = reference.first()
        walk = PrefixWalk(ideal, sets)
        assert walk.first() == expected, sets
        assert walk.count() == count, sets
        walk = PrefixWalk(ideal, sets)
        assert walk.count() == count, sets
        assert walk.first() == expected, sets
        if walk.rows:
            routes.add(walk.rows.wide)
    clutter = list(cover_table(ideal).clutter)
    roots = [[i for i, m in enumerate(clutter) if m.bit_count() > k]
             for k in sorted({m.bit_count() for m in clutter})]
    roots.append([i for i in range(len(clutter)) if rng.random() < 0.5])
    expected = []
    for members in roots:
        reference = InsideWalk(ideal, [clutter[i] for i in members])
        expected.append(reference.first())
    walk = PrefixWalk(ideal, clutter)
    for counted in (False, True):
        if counted:
            walk.count()
        for members, word in zip(roots, expected):
            alive = sum(1 << i for i in members)
            assert walk.first(alive=alive) == word, (members, counted)
    return routes


@pytest.mark.parametrize("name", ideal_names())
def test_walks_match_the_inside_walk_on_the_corpus(name):
    check_walks(load_ideal(name))


def test_walks_match_the_inside_walk_on_a_pool_sample(pool):
    out, inputs = pool
    routes = set()
    for seed, name in enumerate(pool_sample(inputs, 10)):
        routes |= check_walks(pool_ideal(out / name), seed)
    # rows were built on both sides of _WIDE_FAMILY: by the Python loop
    # and by the numpy pass (the (k + 1)-sets reach 126-252 at mu 9-10)
    assert routes == {False, True}


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(exponent_rows), st.integers(0, 2 ** 32))
def test_walks_match_the_inside_walk_on_hypothesis_ideals(rows, seed):
    check_walks(small_ideal(rows, max_mu=8), seed)


def broken_sets(ideal, orders):
    """broken[o, D]: under the o-th order some generator outside D that
    divides lcm(D) comes before every member of D; read off the
    monomials, not the subset tables."""
    mu = ideal.mu
    rank = np.argsort(orders, axis=1)
    broken = np.zeros((len(orders), 1 << mu), bool)
    for d in range(1, 1 << mu):
        members = [i - 1 for i in indices_of(d)]
        top = ideal.lcm(indices_of(d))
        outside = [g for g in range(mu)
                   if g not in members and divides(ideal.gens[g], top)]
        if outside:
            broken[:, d] = (rank[:, outside].min(axis=1)
                            < rank[:, members].min(axis=1))
    return broken


def closed_up(marked):
    """Each row of a bool array over the 2^mu masks OR-ed over the
    subsets of each mask, by a loop over the bits."""
    marked = marked.copy()
    for b in range(marked.shape[-1].bit_length() - 1):
        for mask in range(marked.shape[-1]):
            if mask >> b & 1:
                marked[..., mask] |= marked[..., mask ^ 1 << b]
    return marked


def sure_rule_cases(ideal):
    """(rule, every) over each prefix word w of each order and each set
    S that no placement in w kills: whether S minus w's set has only
    closed subsets, as the walks' closed table (``prefix._masks``) says,
    and whether every order beginning with w preserves S, found by
    listing those orders."""
    mu, size = ideal.mu, 1 << ideal.mu
    orders = np.array(list(permutations(range(1, mu + 1))), np.int64)
    broken = broken_sets(ideal, orders)
    unpreserved = closed_up(broken)
    all_closed = tables_for(ideal).derived(_masks)[1]
    masks = np.arange(size)
    rule, every = [], []
    for j in range(mu + 1):
        # the orders are listed lexicographically, so those beginning
        # with one word of length j are a block of (mu - j)!
        block = factorial(mu - j)
        prefix = np.zeros(len(orders) // block, np.int64)
        for column in orders[::block, :j].T:
            prefix |= 1 << (column - 1)
        # S is killed by a placement in w when a subset meeting w's
        # set is broken, its least member placed in w
        killed = closed_up(broken[::block] & (masks & prefix[:, None] != 0))
        preserved = ~unpreserved.reshape(-1, block, size).any(axis=1)
        rule.append(all_closed[masks & ~prefix[:, None]][~killed])
        every.append(preserved[~killed])
    return np.concatenate(rule), np.concatenate(every)


def test_the_sure_rule_by_listing_completions():
    # both directions: sets sure by the rule that every completion
    # preserves, and sets with an open subset that some completion kills
    held = set()
    for name in ideal_names():
        ideal = load_ideal(name)
        if ideal.mu <= 6:
            rule, every = sure_rule_cases(ideal)
            assert np.array_equal(rule, every), name
            held |= {(bool(r), bool(e)) for r, e in zip(rule, every)}
    assert held == {(True, True), (False, False)}


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_the_sure_rule_on_hypothesis_ideals(rows):
    rule, every = sure_rule_cases(small_ideal(rows, max_mu=6))
    assert np.array_equal(rule, every)


# -- the closed masks ------------------------------------------------------------


def check_closed(ideal):
    """The walks' closed table, (divisor == mask) & (covered == 0), is
    the up-closure route's; returns the count of masks where the
    covered term decides (closed, with a member covered)."""
    tables = tables_for(ideal)
    closed = tables.derived(_masks)[1]
    assert np.array_equal(closed, closed_by_up_closure(tables))
    identity = np.arange(tables.size)
    return int(np.count_nonzero((tables.divisor_mask == identity)
                                & (tables.covered_mask != 0)))


@pytest.mark.parametrize("name", ideal_names())
def test_closed_masks_match_the_up_closure_on_the_corpus(name):
    check_closed(load_ideal(name))


def test_closed_masks_match_the_up_closure_on_the_pool(pool):
    # every seed-1 input, the c14 ideals and c16-00 included
    out, inputs = pool
    assert {"c14-00.ideal", "c16-00.ideal"} <= set(inputs)
    decided = 0
    for name in sorted(inputs):
        decided += check_closed(pool_ideal(out / name))
    assert decided > 0


@settings(max_examples=100)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_closed_masks_match_the_up_closure_on_hypothesis_ideals(rows):
    check_closed(small_ideal(rows, max_mu=8))


# -- past the CLI bound ---------------------------------------------------------


def cycle(n):
    names = tuple(f"v{i}" for i in range(n))
    return SimpleGraph(names, tuple((names[i], names[(i + 1) % n])
                                    for i in range(n)))


def test_a_pool_search_at_mu_14(pool):
    # c14-03 is not Lyubeznik and min_l's witness needs a walk over all
    # 6-sets: 15 s and 560 MiB before the sure table
    out, _ = pool
    ideal = read_ideal(out / "c14-03.ideal")
    assert ideal.mu == 14
    scan = fresh(ideal)
    assert scan.minimal_count == 0
    assert (scan.tobsl, scan.tobsl_witness) == (4, tuple(range(1, 15)))
    assert scan.min_l == scan.projdim == 5
    assert scan.min_l_witness == (3, 1, 4, 6, 7, 5, 8, 11, 13, 10, 9, 2, 12,
                                  14)
    assert l_length(OrderedIdeal(ideal, scan.min_l_witness)) == 5


def test_walks_build_rows_for_few_prefix_sets(pool, monkeypatch):
    # every field of c14-06's search: its three walks (the clutter's,
    # then the 4-set walk that finds no order at the floor and the
    # 5-set walk that finds min_l's witness) build rows for few of the
    # 2^14 prefix sets each, where building both tables for all of
    # them took 2.7 s
    out, _ = pool
    ideal = read_ideal(out / "c14-06.ideal")
    walks = []
    monkeypatch.setattr(invariants, "PrefixWalk",
                        lambda *args: walks.append(PrefixWalk(*args))
                        or walks[-1])
    scan = fresh(ideal)
    for field in FIELDS:
        getattr(scan, field)
    assert len(walks) == 3
    assert all(len(walk.rows) < (1 << 14) // 10 for walk in walks), [
        len(walk.rows) for walk in walks]


def test_the_fourteen_cycle():
    # 14 = 3 * 4 + 2: no order reaches the projective dimension
    ideal = edge_ideal(cycle(14))
    assert ideal.mu == 14
    scan = fresh(ideal)
    assert (scan.tobsl, scan.projdim, scan.min_l) == (3, 9, 10)
    # the climb walks the floor and the length above it, no more
    assert sorted(scan._short) == [9, 10]
    assert scan.min_l_witness == (1, 2, 3, 4, 6, 5, 7, 9, 8, 10, 12, 11, 13,
                                  14)
    assert l_length(OrderedIdeal(ideal, scan.min_l_witness)) == 10
