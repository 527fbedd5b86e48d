import tracemalloc
from itertools import combinations

import pytest

from lyubeznik import (BoundExceededError, complete_cover, cover_clutter,
                       covers_of, divides, e_minimal_covers_of, identity_order,
                       is_cover_of, lcm_of, load_ideal, sweep_ideals)
from lyubeznik.covers import _listing_rows, cover_table
from lyubeznik.subsets import indices_of, mask_of, tables_for

from conftest import exponent_ideal
from reference_routes import canonical_edges
from reference_routes import cover_listing as reference_cover_listing
from test_preserved_kernel import seeded_ideal


def cover_sets(covers):
    return {c.members for c in covers}


def fs(*indices):
    return frozenset(indices)


# -- the five-generator mixed-powers ideal, listing order --------------------
# covers of the first two generators are known exactly; the pure powers
# have none

def test_mixed_powers_cover_census():
    ideal = load_ideal("mixed_powers_xyz")
    of_1 = cover_sets(covers_of(1, ideal))
    assert of_1 == {fs(1, 2, 3, 4, 5), fs(1, 3, 4, 5), fs(1, 2, 3, 5),
                    fs(1, 2, 3), fs(1, 3, 4), fs(1, 2, 3, 4)}
    of_2 = cover_sets(covers_of(2, ideal))
    assert of_2 == {fs(2, 4, 5), fs(1, 2, 4, 5), fs(2, 3, 4, 5),
                    fs(1, 2, 3, 4, 5)}
    for u in (3, 4, 5):
        assert covers_of(u, ideal) == ()
    assert cover_sets(e_minimal_covers_of(1, ideal)) == {fs(1, 2, 3),
                                                         fs(1, 3, 4)}
    assert cover_sets(e_minimal_covers_of(2, ideal)) == {fs(2, 4, 5)}


def test_mixed_powers_covered_fields():
    ideal = load_ideal("mixed_powers_xyz")
    full = next(c for c in covers_of(1, ideal)
                if c.members == fs(1, 2, 3, 4, 5))
    assert full.covered == fs(1, 2)
    small = next(c for c in covers_of(1, ideal) if c.members == fs(1, 2, 3))
    assert small.covered == fs(1)


def test_five_gen_squarefree_e_minimal_covers():
    ideal = load_ideal("five_gen_squarefree")
    assert cover_sets(e_minimal_covers_of(2, ideal)) == {fs(2, 3, 4),
                                                         fs(1, 2, 4)}
    assert cover_sets(e_minimal_covers_of(4, ideal)) == {fs(2, 4, 5)}
    assert cover_sets(e_minimal_covers_of(5, ideal)) == {fs(1, 4, 5)}
    # {1,3,4,5} has no proper subset covering generator 1, so it is an
    # E-minimal cover of 1 even though it strictly contains the cover
    # {1,4,5} of generator 5; only the clutter drops it
    assert cover_sets(e_minimal_covers_of(1, ideal)) == {fs(1, 2, 5),
                                                         fs(1, 3, 4, 5)}


def test_five_gen_squarefree_clutter_is_the_minimal_antichain():
    ideal = load_ideal("five_gen_squarefree")
    clutter = cover_clutter(identity_order(ideal))
    assert canonical_edges(clutter) == ((1, 2, 4), (1, 2, 5), (1, 4, 5),
                                        (2, 3, 4), (2, 4, 5))


def test_seven_gen_e_minimal_covers_of_m4():
    ideal = load_ideal("seven_gen_squarefree")
    expected = {fs(4, 1, 2), fs(4, 1, 3), fs(4, 1, 7), fs(4, 2, 3),
                fs(4, 2, 6), fs(4, 3, 5), fs(4, 5, 6, 7)}
    assert cover_sets(e_minimal_covers_of(4, ideal)) == expected
    for u in (5, 6, 7):
        assert covers_of(u, ideal) == ()


def test_cover_listing_is_by_size_then_lexicographic():
    ideal = load_ideal("mixed_powers_xyz")
    listed = [tuple(sorted(c.members)) for c in covers_of(1, ideal)]
    assert listed == sorted(listed, key=lambda t: (len(t), t))


def test_is_cover_of_matches_definition():
    for name in ("mixed_powers_xyz", "five_gen_squarefree", "powers_chain"):
        ideal = load_ideal(name)
        for size in range(1, ideal.mu + 1):
            for members in combinations(ideal.indices(), size):
                for u in members:
                    rest = [ideal.gen(v) for v in members if v != u]
                    expected = bool(rest) and divides(ideal.gen(u),
                                                      lcm_of(rest))
                    assert is_cover_of(members, u, ideal) == expected


def test_e_minimal_covers_of_rejects_unknown_generators():
    ideal = load_ideal("mixed_powers_xyz")
    for u in (0, -1, ideal.mu + 1):
        with pytest.raises(ValueError, match="not in 1..5"):
            e_minimal_covers_of(u, ideal)


def test_covers_of_rejects_unknown_generators():
    ideal = load_ideal("mixed_powers_xyz")
    for u in (0, -1, ideal.mu + 1):
        with pytest.raises(ValueError, match="not in 1..5"):
            covers_of(u, ideal)


@pytest.mark.parametrize("call", [covers_of, e_minimal_covers_of])
def test_an_unknown_generator_is_refused_before_any_table(call):
    # past the subset tables' bound the bad argument is reported, not
    # the tables' refusal
    with pytest.raises(ValueError, match="generator 0 is not in 1..17"):
        call(0, exponent_ideal(unit_rows(17)))
    ideal = load_ideal("mixed_powers_xyz")
    tables_for.cache_clear()
    with pytest.raises(ValueError, match="generator 99 is not in 1..5"):
        call(99, ideal)
    # the cover table is kept with the subset tables: no miss, no table
    assert tables_for.cache_info().misses == 0


def test_is_cover_of_requires_membership():
    ideal = load_ideal("mixed_powers_xyz")
    with pytest.raises(ValueError):
        is_cover_of([2, 3], 1, ideal)


def test_complete_cover():
    ideal = load_ideal("mixed_powers_xyz")
    # lcm(m2, m3) = x^3*y^2*z is divisible by m1 = x^2*y as well
    assert complete_cover([2, 3], ideal) == fs(1, 2, 3)
    assert complete_cover([5], ideal) == fs(5)
    with pytest.raises(ValueError):
        complete_cover([], ideal)


def test_complete_cover_contains_members_everywhere():
    for _, ideal in sweep_ideals():
        for size in (1, 2):
            for members in combinations(ideal.indices(), size):
                assert set(members) <= complete_cover(members, ideal)


def test_e_minimal_covers_have_no_covering_subset():
    for _, ideal in sweep_ideals():
        for u in ideal.indices():
            for cover in e_minimal_covers_of(u, ideal):
                members = sorted(cover.members)
                for drop in members:
                    if drop == u:
                        continue
                    smaller = [v for v in members if v != drop]
                    assert not is_cover_of(smaller, u, ideal)


def test_covers_are_upward_closed_in_the_generators():
    for name in ("mixed_powers_xyz", "five_gen_squarefree"):
        ideal = load_ideal(name)
        for u in ideal.indices():
            for cover in covers_of(u, ideal):
                for extra in ideal.indices():
                    if extra in cover.members:
                        continue
                    grown = sorted(cover.members | {extra})
                    assert is_cover_of(grown, u, ideal)


def test_clutter_is_an_antichain():
    for _, ideal in sweep_ideals():
        clutter = cover_clutter(identity_order(ideal))
        edges = canonical_edges(clutter)
        for a in edges:
            for b in edges:
                if a != b:
                    assert not set(a) <= set(b)


def test_clutter_mixed_powers():
    ideal = load_ideal("mixed_powers_xyz")
    clutter = cover_clutter(identity_order(ideal))
    assert canonical_edges(clutter) == ((1, 2, 3), (1, 3, 4), (2, 4, 5))


def test_the_covers_functions_reach_the_table_bound():
    # nothing caps the covers below the subset tables: at mu 13 every
    # function answers, and agrees with the checking routes
    ideal = seeded_ideal(13, 0)
    listing = reference_cover_listing(ideal)
    rows = _listing_rows(ideal)
    covered_mask = tables_for(ideal).covered_mask
    table = cover_table(ideal)
    for u in (1, 7, 13):
        masks, _, covered = rows(u)
        assert masks.tolist() == list(listing[u - 1])
        assert covered.tolist() == covered_mask[masks].tolist()
        assert tuple(mask_of(c.members) for c in covers_of(u, ideal)) == \
            listing[u - 1]
        assert sorted(mask_of(c.members)
                      for c in e_minimal_covers_of(u, ideal)) == \
            table.eminimal_of(u).tolist()
    assert cover_clutter(identity_order(ideal)).edges == {
        frozenset(indices_of(m)) for m in table.clutter}
    assert covers_of(1, exponent_ideal(unit_rows(13))) == ()


def unit_rows(mu):
    return [[1 if i == j else 0 for j in range(mu)] for i in range(mu)]


def refuses_before_allocating(call, ideal):
    """Whether ``call(ideal)`` raises the subset tables' refusal while
    allocating less than one bool per subset."""
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError,
                           match="subset tables support at most 16"):
            call(ideal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak < 1 << ideal.mu


@pytest.mark.parametrize("call", [
    _listing_rows, cover_table, lambda i: covers_of(1, i),
    lambda i: e_minimal_covers_of(1, i),
    lambda i: cover_clutter(identity_order(i))])
def test_the_covers_functions_refuse_above_the_table_bound(call):
    assert refuses_before_allocating(call, exponent_ideal(unit_rows(17)))
