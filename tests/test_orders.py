from itertools import combinations, permutations

import pytest

from lyubeznik import (BoundExceededError, OrderedIdeal, all_orders,
                       courts_first_orders, divides, identity_order, lcm_of,
                       load_ideal, order_count, orders_for_search, parse_order,
                       possible_courts)
from lyubeznik.orders import min_of


def test_ordered_ideal_validates_permutation():
    ideal = load_ideal("mixed_powers_xyz")
    with pytest.raises(ValueError):
        OrderedIdeal(ideal, (1, 2, 3))
    with pytest.raises(ValueError):
        OrderedIdeal(ideal, (1, 2, 3, 4, 4))
    with pytest.raises(ValueError):
        OrderedIdeal(ideal, (0, 1, 2, 3, 4))


def test_rank_and_precedes():
    ideal = load_ideal("mixed_powers_xyz")
    ordered = OrderedIdeal(ideal, (3, 1, 2, 5, 4))
    assert ordered.rank(3) == 0
    assert ordered.rank(4) == 4
    assert ordered.precedes(3, 1)
    assert not ordered.precedes(4, 5)
    assert ordered.sorted_by_rank([4, 3, 2]) == (3, 2, 4)
    assert str(ordered) == "(3,1,2,5,4)"
    assert min_of([4, 2, 5], ordered) == 2


def test_identity_order():
    ideal = load_ideal("five_gen_squarefree")
    assert identity_order(ideal).order == (1, 2, 3, 4, 5)


def test_all_orders_is_the_lexicographic_stream():
    ideal = load_ideal("powers_chain")
    words = [o.order for o in all_orders(ideal)]
    assert words == sorted(permutations(range(1, ideal.mu + 1)))
    assert order_count(ideal) == 24 == len(words)


def test_all_orders_bound():
    ideal = load_ideal("seven_gen_squarefree")
    with pytest.raises(BoundExceededError):
        list(all_orders(ideal, max_exhaustive=6))
    # force bypasses the guard
    stream = all_orders(ideal, max_exhaustive=6, force=True)
    assert next(stream).order == (1, 2, 3, 4, 5, 6, 7)


def test_parse_order():
    ideal = load_ideal("powers_chain")
    assert parse_order("2,4,1,3", ideal).order == (2, 4, 1, 3)
    assert parse_order(" 2, 4 , 1,3 ", ideal).order == (2, 4, 1, 3)
    for bad in ("2,4,1", "1,2,3,5", "a,b,c,d", "1,1,2,3", ""):
        with pytest.raises(ValueError):
            parse_order(bad, ideal)


def brute_possible_courts(ideal):
    """A generator is a possible court iff it divides the lcm of some
    other subset; checked here over every nonempty subset."""
    found = set()
    others = list(ideal.indices())
    for u in ideal.indices():
        rest = [v for v in others if v != u]
        for size in range(1, len(rest) + 1):
            for d in combinations(rest, size):
                if divides(ideal.gen(u), lcm_of([ideal.gen(v) for v in d])):
                    found.add(u)
                    break
            if u in found:
                break
    return found


def test_possible_courts_frozen_values():
    assert possible_courts(load_ideal("mixed_powers_xyz")) == {1, 2}
    assert possible_courts(load_ideal("koszul_two_vars")) == frozenset()
    # the squarefree product of the variables divides every pairwise lcm
    # of the square generators, and conversely
    assert possible_courts(load_ideal("chain_five_mixed")) == {1, 2, 3, 4, 5}


def test_possible_courts_against_subset_search():
    from lyubeznik import sweep_ideals
    for _, ideal in sweep_ideals():
        assert set(possible_courts(ideal)) == brute_possible_courts(ideal)


def test_courts_first_orders_mixed_powers():
    ideal = load_ideal("mixed_powers_xyz")
    words = [o.order for o in courts_first_orders(ideal)]
    # courts {1,2} in either order, then all arrangements of the rest
    assert len(words) == 2 * 6
    assert words[0] == (1, 2, 3, 4, 5)
    assert all(set(w[:2]) == {1, 2} for w in words)
    assert words == sorted(words)


def test_courts_first_is_exhaustive_when_all_are_courts():
    ideal = load_ideal("chain_five_mixed")
    stream, exact = orders_for_search(ideal, "courts-first")
    assert exact
    assert sum(1 for _ in stream) == 120


def test_orders_for_search_modes():
    ideal = load_ideal("mixed_powers_xyz")
    stream, exact = orders_for_search(ideal, "exhaustive")
    assert exact and sum(1 for _ in stream) == 120
    stream, exact = orders_for_search(ideal, "courts-first")
    assert not exact and sum(1 for _ in stream) == 12
    with pytest.raises(ValueError):
        orders_for_search(ideal, "simulated-annealing")
