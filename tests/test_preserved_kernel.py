"""The broken/preserved kernel against the plain-Python routes it replaced.

``order_analysis`` runs ``complexes.PreservedKernel`` on a one-word
block; its court and preserved lists must equal, entry for entry, those
of the Python DP in ``reference_routes``, and its face list must be the
DP's preserved masks in ascending order.  The resolution length must
equal the subset-sum closure's, and ``is_minimal_resolution`` (no
E-minimal cover is preserved) must agree with facet stability.  The
inputs are the corpus (every order when mu <= 5, three otherwise),
hypothesis ideals, and seeded six-variable ideals at mu 14 and 16,
the largest the subset tables allow.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (OrderedIdeal, all_ideals, all_orders,
                       identity_order, is_minimal_resolution, l_length,
                       preserved_size)
from lyubeznik.complexes import order_analysis

from conftest import exponent_ideal
from reference_routes import (closure_length, court_table, facets_stable,
                              preserved_table)
from test_scan_kernel import exponent_rows, small_ideal


def some_orders(ideal, seed=0):
    """Every order when mu <= 5; else identity, reversed and one shuffle."""
    if ideal.mu <= 5:
        return list(all_orders(ideal, max_exhaustive=ideal.mu))
    word = list(identity_order(ideal).order)
    shuffled = word[:]
    random.Random(seed).shuffle(shuffled)
    return [OrderedIdeal(ideal, tuple(w)) for w in (word, word[::-1], shuffled)]


def check_tables(ordered):
    court = court_table(ordered)
    preserved = preserved_table(ordered, court)
    analysis = order_analysis(ordered)
    assert analysis.court == court, ordered.order
    assert analysis.preserved == preserved, ordered.order
    assert analysis.faces == [m for m, p in enumerate(preserved) if p], \
        ordered.order
    assert (l_length(ordered) == preserved_size(ordered)
            == closure_length(ordered, court)), ordered.order
    return preserved


def check_minimality(ordered, preserved):
    assert is_minimal_resolution(ordered) == facets_stable(ordered, preserved), \
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


@pytest.mark.parametrize("mu", [14, 16])
def test_kernel_matches_the_python_dp_at_the_table_bound(mu):
    ideal = seeded_ideal(mu, seed=mu)
    assert ideal.mu == mu
    word = list(identity_order(ideal).order)
    rng = random.Random(mu)
    for _ in range(2):
        rng.shuffle(word)
        check_tables(OrderedIdeal(ideal, tuple(word)))
