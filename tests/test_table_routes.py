"""The per-ideal cover table and the per-order lengths, checked against
literal routes that share neither table.

* Covers: the E-minimal covers of each generator and the clutter edges
  from ``covers`` are compared with a definition built here from
  ``is_cover_of`` over every subset.  The numpy passes of
  ``cover_table`` are also compared, field by field, with their one
  checking route, the walk over the masks
  (``reference_routes.CoverWalk``), up to the table bound.
* The clutter's identity: covers are upward closed, so the clutter is
  the set of inclusion-minimal masks that cover something; both are
  checked on every mask, with a plain loop for the minimal masks.
* Lengths: ``preserved_size`` and ``l_length`` both read the order's
  preserved-set table; they are compared with the largest admissible
  symbol, which ``is_admissible_symbol`` decides on the monomials
  themselves.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (OrderedIdeal, Symbol, all_ideals, cover_clutter,
                       e_minimal_covers_of, identity_order,
                       is_admissible_symbol, is_cover_of, l_length,
                       preserved_size)
from lyubeznik.covers import cover_table
from lyubeznik.subsets import tables_for

from conftest import exponent_rows, small_ideal
from reference_routes import CoverWalk
from test_preserved_kernel import seeded_ideal


def literal_covers(ideal):
    """generator -> the E-minimal covers, and the clutter, by definition."""
    subsets = [frozenset(c) for k in range(2, ideal.mu + 1)
               for c in combinations(ideal.indices(), k)]
    per_generator = {}
    for u in ideal.indices():
        covers = [s for s in subsets if u in s and is_cover_of(s, u, ideal)]
        per_generator[u] = {c for c in covers
                            if not any(d < c for d in covers)}
    union = set().union(*per_generator.values())
    clutter = {c for c in union if not any(d < c for d in union)}
    return per_generator, clutter


def check_cover_table(ideal):
    per_generator, clutter = literal_covers(ideal)
    for u, expected in per_generator.items():
        listed = [c.members for c in e_minimal_covers_of(u, ideal)]
        assert set(listed) == expected, u
        assert len(listed) == len(expected), u
    assert cover_clutter(identity_order(ideal)).edges == clutter


def check_cover_table_against_the_walk(ideal):
    table = cover_table(ideal)
    walk = CoverWalk(ideal)
    assert table.clutter == walk.clutter
    assert all(type(m) is int for m in table.clutter)
    for u, masks_of_u in enumerate(walk.by_generator, 1):
        assert table.eminimal_of(u).tolist() == list(masks_of_u), u
    # the union the audit reads
    assert table.eminimal.tolist() == list(walk.eminimal)


def check_clutter_is_the_minimal_covers(ideal):
    covered = tables_for(ideal).covered_mask
    masks = np.arange(len(covered))
    for b in range(ideal.mu):
        # adding generator b + 1 to a mask uncovers none of its members
        assert not np.any(covered & ~covered[masks | 1 << b]), b
    # so a covering mask is inclusion-minimal among them iff no
    # one-smaller subset covers anything
    rows = covered.tolist()
    minimal = [m for m, row in enumerate(rows)
               if row and not any(rows[m ^ 1 << b]
                                  for b in range(ideal.mu) if m >> b & 1)]
    assert cover_table(ideal).clutter == tuple(minimal)


def largest_admissible_symbol(ordered):
    return max(t for t in range(1, ordered.ideal.mu + 1)
               for word in combinations(ordered.order, t)
               if is_admissible_symbol(Symbol(word), ordered))


def check_lengths(ideal):
    identity = identity_order(ideal).order
    for word in (identity, identity[::-1], identity[1:] + identity[:1]):
        ordered = OrderedIdeal(ideal, word)
        assert (preserved_size(ordered) == l_length(ordered)
                == largest_admissible_symbol(ordered)), word


def test_cover_table_matches_the_definition_on_the_corpus():
    for _, ideal in all_ideals():
        check_cover_table(ideal)


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_cover_table_matches_the_definition_on_random_ideals(rows):
    check_cover_table(small_ideal(rows))


def test_cover_table_matches_the_walk_on_the_corpus():
    for _, ideal in all_ideals():
        check_cover_table_against_the_walk(ideal)


@settings(max_examples=60)
@given(st.integers(2, 5).flatmap(exponent_rows))
def test_cover_table_matches_the_walk_on_random_ideals(rows):
    check_cover_table_against_the_walk(small_ideal(rows, max_mu=10))


@pytest.mark.parametrize("mu,seed", [(13, 0), (13, 1), (14, 0), (14, 1),
                                     (16, 0)])
def test_cover_table_matches_the_walk_up_to_the_table_bound(mu, seed):
    ideal = seeded_ideal(mu, seed)
    assert ideal.mu == mu
    check_cover_table_against_the_walk(ideal)


def test_clutter_is_the_minimal_covers_on_the_corpus():
    seen = False
    for _, ideal in all_ideals():
        check_clutter_is_the_minimal_covers(ideal)
        table = cover_table(ideal)
        seen |= len(table.clutter) < len(table.eminimal)
    # some E-minimal cover of one generator contains one of another
    assert seen


@settings(max_examples=60)
@given(st.integers(2, 5).flatmap(exponent_rows))
def test_clutter_is_the_minimal_covers_on_random_ideals(rows):
    check_clutter_is_the_minimal_covers(small_ideal(rows, max_mu=10))


@pytest.mark.parametrize("mu", range(12, 17))
def test_clutter_is_the_minimal_covers_up_to_the_table_bound(mu):
    check_clutter_is_the_minimal_covers(seeded_ideal(mu, 0))


def test_lengths_match_the_largest_admissible_symbol_on_the_corpus():
    for _, ideal in all_ideals():
        check_lengths(ideal)


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_lengths_match_the_largest_admissible_symbol_on_random_ideals(rows):
    check_lengths(small_ideal(rows))
