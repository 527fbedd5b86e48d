"""Differential test of the checking scan and of ``search_scan``.

The checking scan (``reference_routes.exhaustive_scan``) evaluates whole
int8 blocks of permutation words with ``reference_routes.block_ranks``.
Here its aggregates are compared with a plain loop over ``all_orders``
that reads each order's obstruction, length and minimality off the
plain-Python per-order routes in ``reference_routes``, which share no
code with the block routes: values and lexicographically least
witnesses alike.  The same loop
checks ``search_scan``, which answers by prefix-set search instead.
"""

import warnings
from itertools import product

from hypothesis import given, settings, strategies as st

from lyubeznik import (MinimizationWarning, MonomialIdeal, load_ideal,
                       search_scan)
from lyubeznik.covers import cover_table

from conftest import exponent_ideal
from reference_routes import (all_orders, closure_length, court_table,
                              exhaustive_scan, facets_stable,
                              preserved_table)

SCAN_NAMES = ["chain_three_squares", "square_edges", "chain_five_mixed",
              "mixed_powers_xyz", "five_gen_squarefree"]


def per_order_values(ideal):
    """word -> (obstruction, length, minimal), from the reference routes."""
    clutter = cover_table(ideal).clutter
    values = {}
    for ordered in all_orders(ideal):
        court = court_table(ordered)
        preserved = preserved_table(ordered, court)
        obs = max((m.bit_count() for m in clutter if preserved[m]), default=0)
        values[ordered.order] = (obs, closure_length(ordered, court),
                                 facets_stable(ordered, preserved))
    return values


def brute_aggregates(values, words):
    """The scan's aggregates, by a first-strictly-better loop in
    lexicographic order."""
    tobsl = min_l = None
    tobsl_witness = min_l_witness = None
    minimal_count = 0
    for word in words:
        obs, length, minimal = values[word]
        if tobsl is None or obs < tobsl:
            tobsl, tobsl_witness = obs, word
        if min_l is None or length < min_l:
            min_l, min_l_witness = length, word
        if minimal:
            minimal_count += 1
    return (len(words), tobsl, tobsl_witness, min_l, min_l_witness,
            minimal_count)


def scan_aggregates(scan):
    return (scan.scanned, scan.tobsl, scan.tobsl_witness, scan.min_l,
            scan.min_l_witness, scan.minimal_count)


def check_both_routes(ideal):
    values = per_order_values(ideal)
    expected = brute_aggregates(values, list(values))
    scan = search_scan(ideal)
    assert not scan.stopped_early
    assert scan_aggregates(scan) == expected, "prefix search"
    assert scan_aggregates(exhaustive_scan(ideal)) == expected, "block scan"


def test_scanner_matches_brute_force_on_the_corpus():
    for name in SCAN_NAMES:
        check_both_routes(load_ideal(name))


def exponent_rows(nvars):
    # middle degrees first: hypothesis favours early elements, and
    # monomials of equal degree never divide one another
    rows = sorted((row for row in product(range(4), repeat=nvars) if any(row)),
                  key=lambda row: abs(2 * sum(row) - 3 * nvars))
    return st.lists(st.sampled_from(rows), min_size=min(6, len(rows)),
                    max_size=16, unique=True)


def small_ideal(rows, max_mu=6):
    """The ideal of the rows, cut to its first max_mu minimal generators."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MinimizationWarning)
        ideal = exponent_ideal(rows)
    return MonomialIdeal(ideal.context, ideal.gens[:max_mu])


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_scanner_matches_brute_force_on_random_ideals(rows):
    check_both_routes(small_ideal(rows))
