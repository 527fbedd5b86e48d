"""The per-order tables against the plain-Python routes they replaced.

``order_analysis`` builds an order's tables by 1-D numpy passes over
the subset masks; its courts, read one mask at a time off the least
ranks, and its preserved array must equal, entry for entry, those of
the Python DP in ``reference_routes``, and its face list must be the
DP's preserved masks in ascending order, and its facet list the
maximal ones.  The resolution length must equal the subset-sum
closure's.  The inputs are the corpus (every order when mu <= 5, three
otherwise), hypothesis ideals, and seeded six-variable ideals at mu 14
and 16, the largest the subset tables allow.

``is_minimal_resolution`` (no face covers a member) has one checking
route, facet stability read off the monomials
(``reference_routes.facets_stable``), and ``obstruction`` (the largest
covering face none of whose one-smaller subsets covers) one, the
largest clutter edge that the Python DP preserves.  They must agree
on the same inputs, on every order of the sweep corpus, on every order
of hypothesis ideals up to mu 5, and on the seed-1 pool's p10-p12
files under each of their three ``--order`` words.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (OrderedIdeal, SubsetClass, all_ideals,
                       classification_census, classify_subset, complete_cover,
                       cover_clutter, covers_of, e_minimal_covers_of,
                       identity_order, is_broken, is_cover_of,
                       is_minimal_resolution, is_preserved, l_length,
                       obstruction, parse_order, preserved_size,
                       read_ideal, sweep_ideals)
from lyubeznik.complexes import order_analysis
from lyubeznik.covers import cover_table
from lyubeznik.subsets import indices_of, tables_for

from conftest import exponent_ideal, exponent_rows, small_ideal
from reference_routes import (all_orders, closure_length, court_table,
                              equivalence_audit, facets, facets_stable,
                              preserved_table)


def some_orders(ideal, seed=0):
    """Every order when mu <= 5; else identity, reversed and one shuffle."""
    if ideal.mu <= 5:
        return list(all_orders(ideal))
    word = list(identity_order(ideal).order)
    shuffled = word[:]
    random.Random(seed).shuffle(shuffled)
    return [OrderedIdeal(ideal, tuple(w)) for w in (word, word[::-1], shuffled)]


def check_tables(ordered):
    court = court_table(ordered)
    preserved = preserved_table(ordered, court)
    analysis = order_analysis(ordered)
    assert [analysis.court(m) for m in range(len(court))] == court, \
        ordered.order
    assert analysis.preserved.tolist() == preserved, ordered.order
    assert analysis.faces == [m for m, p in enumerate(preserved) if p], \
        ordered.order
    assert analysis.facets == facets(preserved), ordered.order
    assert (l_length(ordered) == preserved_size(ordered)
            == closure_length(ordered, court)), ordered.order
    return preserved


def check_minimality(ordered, preserved):
    """Minimality against facet stability, and the obstruction against
    the largest clutter edge the DP preserves."""
    assert is_minimal_resolution(ordered) == facets_stable(ordered, preserved), \
        ordered.order
    clutter = cover_table(ordered.ideal).clutter
    assert obstruction(ordered) == max(
        (m.bit_count() for m in clutter if preserved[m]), default=0), \
        ordered.order


def seeded_ideal(mu, seed):
    """mu generators in 6 variables, exponents <= 3, no one dividing another."""
    rng = random.Random(seed)
    rows = []
    while len(rows) < mu:
        row = tuple(rng.randint(0, 3) for _ in range(6))
        if any(row) and not any(all(a <= b for a, b in zip(r, row)) or
                                all(b <= a for a, b in zip(r, row))
                                for r in rows):
            rows.append(row)
    return exponent_ideal(rows)


def test_kernel_matches_the_python_dp_on_the_corpus():
    for name, ideal in all_ideals():
        for ordered in some_orders(ideal):
            check_minimality(ordered, check_tables(ordered))


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(exponent_rows), st.integers(0, 2**32))
def test_kernel_matches_the_python_dp_on_random_ideals(rows, seed):
    for ordered in some_orders(small_ideal(rows), seed):
        check_minimality(ordered, check_tables(ordered))


def test_minimality_matches_facet_stability_on_every_sweep_order():
    seen = set()
    for _, ideal in sweep_ideals():
        for ordered in all_orders(ideal):
            check_minimality(ordered, preserved_table(ordered))
            seen.add(is_minimal_resolution(ordered))
    # both verdicts occurred
    assert seen == {True, False}


@settings(max_examples=60)
@given(st.integers(2, 5).flatmap(exponent_rows))
def test_minimality_matches_facet_stability_on_random_ideals(rows):
    ideal = small_ideal(rows, max_mu=5)
    for ordered in all_orders(ideal):
        check_minimality(ordered, preserved_table(ordered))


@pytest.mark.parametrize("mu", [14, 16])
def test_kernel_matches_the_python_dp_at_the_table_bound(mu):
    ideal = seeded_ideal(mu, seed=mu)
    assert ideal.mu == mu
    word = list(identity_order(ideal).order)
    rng = random.Random(mu)
    for _ in range(2):
        rng.shuffle(word)
        ordered = OrderedIdeal(ideal, tuple(word))
        check_minimality(ordered, check_tables(ordered))


def test_minimality_matches_facet_stability_on_the_pool(pool):
    # the benchmark's per-order inputs p10 to p12 (mu 10-12), under each
    # of their three seeded --order words
    out, inputs = pool
    names = sorted(n for n, e in inputs.items()
                   if e["stratum"] in ("p10", "p11", "p12"))
    assert len(names) == 24
    seen = set()
    for name in names:
        ideal = read_ideal(out / name)
        assert len(inputs[name]["orders"]) == 3
        for word in inputs[name]["orders"]:
            ordered = parse_order(word, ideal)
            check_minimality(ordered, preserved_table(ordered))
            seen.add(is_minimal_resolution(ordered))
    assert seen == {True, False}


def test_per_order_answers_are_plain_python_types():
    # the tables are numpy arrays; no numpy scalar may reach a caller
    seen = set()
    for name, ideal in all_ideals():
        word = identity_order(ideal).order
        for ordered in (OrderedIdeal(ideal, w) for w in (word, word[::-1])):
            minimal = is_minimal_resolution(ordered)
            assert type(minimal) is bool, name
            assert type(obstruction(ordered)) is int, name
            assert type(l_length(ordered)) is int, name
            seen.add(("minimal", minimal))
            for mask in range(1, 1 << ideal.mu):
                subset = indices_of(mask)
                preserved = is_preserved(subset, ordered)
                court = is_broken(subset, ordered)
                assert type(preserved) is bool, (name, subset)
                assert court is None or type(court) is int, (name, subset)
                seen |= {("preserved", preserved), ("broken", court is None)}
    # every kind of answer occurred
    assert len(seen) == 6


def ints(values):
    return all(type(v) is int for v in values)


def test_cover_and_class_answers_are_plain_python_types():
    # the mask tables are numpy arrays; the covers, the classes and the
    # audit hand back Python values only
    seen = set()
    for name, ideal in all_ideals():
        tables = tables_for(ideal)
        ordered = identity_order(ideal)
        for mask in range(1, 1 << ideal.mu):
            subset = indices_of(mask)
            cover = bool(tables.covered_mask[mask] != 0)
            assert ints(complete_cover(subset, ideal)), (name, subset)
            assert type(classify_subset(subset, ordered)) is SubsetClass
            for u in subset:
                covers_u = is_cover_of(subset, u, ideal)
                assert type(covers_u) is bool, (name, subset, u)
                seen.add(("covers u", covers_u))
            seen.add(("cover", cover))
        for u in ideal.indices():
            for c in covers_of(u, ideal) + e_minimal_covers_of(u, ideal):
                assert ints(c.members) and ints(c.covered), (name, u, c)
                seen.add("cover listed")
        for edge in cover_clutter(ordered).edges:
            assert ints(edge), (name, edge)
        for size, row in classification_census(ordered).items():
            assert type(size) is int and ints(row.values()), (name, size)
            assert all(type(c) is SubsetClass for c in row), (name, size)
        audit = equivalence_audit(ordered)
        for field in dataclasses.fields(audit):
            answer = getattr(audit, field.name)
            assert type(answer) is bool, (name, field.name)
            seen.add((field.name, answer))
    # every kind of answer occurred
    assert len(seen) == 15
