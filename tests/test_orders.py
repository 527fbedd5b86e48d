from itertools import chain, combinations, permutations, product
from math import factorial

import numpy as np
import pytest

from lyubeznik import (BoundExceededError, OrderedIdeal, all_orders,
                       courts_first_orders, divides, identity_order, lcm_of,
                       load_ideal, orders_for_search, parse_ideal,
                       parse_order, possible_courts)
from lyubeznik.invariants import DEFAULT_CHUNK, _word_blocks


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
    assert ordered.sorted_by_rank([4, 2, 5])[0] == 2


def test_identity_order():
    ideal = load_ideal("five_gen_squarefree")
    assert identity_order(ideal).order == (1, 2, 3, 4, 5)


def test_all_orders_is_the_lexicographic_stream():
    ideal = load_ideal("powers_chain")
    words = [o.order for o in all_orders(ideal)]
    assert words == sorted(permutations(range(1, ideal.mu + 1)))
    assert factorial(ideal.mu) == 24 == len(words)


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


# The word stream against itertools: every word in order, and the
# scan's blocks cut at exact multiples of the chunk size.  5040 = 7! is
# the length of one tail table, so 5040 and 5041 put the cuts on and
# just past its seams.
STREAM_CHUNKS = (1, 7, DEFAULT_CHUNK, 5040, 5041)


def word_array(words, mu, count):
    return np.fromiter(chain.from_iterable(words), np.int8,
                       count * mu).reshape(count, mu)


def check_stream(search, expected):
    """``search(...)`` opens the stream afresh for every chunk size."""
    stream, _ = search()
    words = list(stream)
    assert all(type(w) is bytes for w in words)
    assert np.array_equal(word_array(words, expected.shape[1], len(expected)),
                          expected)
    for chunk in STREAM_CHUNKS:
        stream, _ = search()
        blocks = list(_word_blocks(stream, expected.shape[1], chunk))
        full, last = divmod(len(expected), chunk)
        assert [len(b) for b in blocks] == \
            [chunk] * full + ([last] if last else [])
        assert all(b.dtype == np.int8 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), expected)


def koszul(mu):
    names = [f"x{i}" for i in range(1, mu + 1)]
    return parse_ideal("vars " + " ".join(names) + "\n"
                       + "\n".join(f"gen {v}" for v in names))


@pytest.mark.parametrize("mu", [1, 2, 7, 8, 9])
def test_exhaustive_words_match_itertools(mu):
    ideal = koszul(mu)
    expected = word_array(permutations(range(1, mu + 1)), mu, factorial(mu))
    check_stream(lambda: orders_for_search(ideal, "exhaustive", force=True),
                 expected)
    assert orders_for_search(ideal, "exhaustive", force=True)[1]


def courts_first_expected(ideal):
    courts = sorted(possible_courts(ideal))
    rest = sorted(set(ideal.indices()) - set(courts))
    count = factorial(len(courts)) * factorial(len(rest))
    words = (h + t for h, t in product(permutations(courts),
                                       permutations(rest)))
    return courts, rest, word_array(words, ideal.mu, count)


def test_courts_first_words_match_itertools_past_the_tail_table():
    # two court triangles (yz | lcm(y^2, z^2), likewise uv) and four
    # private variables: 2 courts, 8 non-courts, so the non-court part
    # needs a middle position in front of the 7-position tail table
    ideal = parse_ideal("vars a b c d y z u v\n" + "\n".join(
        f"gen {g}" for g in ("a", "b", "c", "d", "y^2", "z^2", "y*z",
                             "u^2", "v^2", "u*v")))
    courts, rest, expected = courts_first_expected(ideal)
    assert len(courts) == 2 and len(rest) == 8
    check_stream(lambda: orders_for_search(ideal, "courts-first", force=True),
                 expected)
    assert not orders_for_search(ideal, "courts-first", force=True)[1]
    words = [o.order for o in courts_first_orders(ideal)]
    assert np.array_equal(word_array(words, ideal.mu, len(expected)),
                          expected)


def clique_and_private(n, others):
    """The edges of the complete graph on n >= 3 vertices, each of them
    a court (ab divides lcm(ac, bc)), and ``others`` private variables,
    none of them a court."""
    xs = [f"x{i}" for i in range(n)]
    zs = [f"z{i}" for i in range(others)]
    gens = [f"{a}*{b}" for a, b in combinations(xs, 2)] + zs
    return parse_ideal("vars " + " ".join(xs + zs) + "\n"
                       + "\n".join(f"gen {g}" for g in gens))


@pytest.mark.parametrize("n,others", [(3, 1), (3, 7), (4, 1), (4, 4)])
def test_courts_first_words_match_itertools_with_few_non_courts(n, others):
    # at most 7 non-courts: runs of heads share one array with the
    # non-courts' table (4 non-courts: 720 heads in runs of 210)
    ideal = clique_and_private(n, others)
    courts, rest, expected = courts_first_expected(ideal)
    assert (len(courts), len(rest)) == (n * (n - 1) // 2, others)
    check_stream(lambda: orders_for_search(ideal, "courts-first",
                                           force=True), expected)
