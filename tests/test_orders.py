import os
import pickle
import subprocess
import sys
from itertools import chain, islice, permutations
from math import factorial

import numpy as np
import pytest

from lyubeznik import (OrderedIdeal, identity_order, is_minimal_resolution,
                       load_ideal, orders_for_search, parse_ideal,
                       parse_order)

from reference_routes import all_orders


def test_ordered_ideal_validates_permutation():
    ideal = load_ideal("mixed_powers_xyz")
    with pytest.raises(ValueError):
        OrderedIdeal(ideal, (1, 2, 3))
    with pytest.raises(ValueError):
        OrderedIdeal(ideal, (1, 2, 3, 4, 4))
    with pytest.raises(ValueError):
        OrderedIdeal(ideal, (0, 1, 2, 3, 4))


def test_order_entries_become_python_ints():
    # numpy's ints are taken and stored as Python ints; any other entry
    # is refused here, not later by an array index
    ideal = load_ideal("mixed_powers_xyz")
    for word in ((1.0, 2.0, 3.0, 4.0, 5.0), (1, 2, 3, 4, 5.0),
                 (1, 2, 3, 4, "5"), (1, 2, 3, 4, None)):
        with pytest.raises(ValueError, match="not a permutation of 1..5"):
            OrderedIdeal(ideal, word)
    ordered = OrderedIdeal(ideal, np.array([3, 1, 2, 5, 4]))
    assert ordered.order == (3, 1, 2, 5, 4)
    assert all(type(i) is int for i in ordered.order)
    assert ordered == OrderedIdeal(ideal, (3, 1, 2, 5, 4))
    assert is_minimal_resolution(ordered) == is_minimal_resolution(
        OrderedIdeal(ideal, [np.int8(i) for i in (3, 1, 2, 5, 4)]))


def test_ideals_and_orders_keep_the_dataclass_hash():
    # the hash is kept once computed, with the value of the frozen
    # dataclass's own: a tuple of the fields
    ideal = load_ideal("mixed_powers_xyz")
    ordered = OrderedIdeal(ideal, (2, 1, 3, 5, 4))
    for _ in range(2):
        assert hash(ideal) == hash((ideal.context, ideal.gens))
        assert hash(ordered) == hash((ideal, ordered.order))
    twin = parse_order("2,1,3,5,4", load_ideal("mixed_powers_xyz"))
    assert twin == ordered and hash(twin) == hash(ordered)


def test_a_kept_hash_is_not_pickled():
    # string hashes differ between processes, so an unpickled ideal or
    # order hashes itself again: under another hash seed a child must
    # read the hash of the fields it hashes itself
    ordered = OrderedIdeal(load_ideal("mixed_powers_xyz"), (2, 1, 3, 5, 4))
    hash(ordered)
    data = pickle.dumps(ordered)
    copy = pickle.loads(data)
    assert "_hash" not in vars(copy) and "_hash" not in vars(copy.ideal)
    assert copy == ordered and hash(copy) == hash(ordered)
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    child = ("import pickle, sys\n"
             "ordered = pickle.loads(sys.stdin.buffer.read())\n"
             "ideal = ordered.ideal\n"
             "print(hash(ideal) == hash((ideal.context, ideal.gens)),\n"
             "      hash(ordered) == hash((ideal, ordered.order)))\n")
    run = subprocess.run([sys.executable, "-c", child], input=data,
                         capture_output=True,
                         env={**os.environ, "PYTHONHASHSEED": seed})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [b"True", b"True"]


def test_rank_and_sorted_by_rank():
    ideal = load_ideal("mixed_powers_xyz")
    ordered = OrderedIdeal(ideal, (3, 1, 2, 5, 4))
    assert ordered.rank(3) == 0
    assert ordered.rank(4) == 4
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


def test_all_orders_streams_past_the_command_line_default():
    # no bound: a mu 10 stream starts lazily at the identity word
    stream = all_orders(koszul(10))
    assert [o.order for o in islice(stream, 3)] == [
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (1, 2, 3, 4, 5, 6, 7, 8, 10, 9),
        (1, 2, 3, 4, 5, 6, 7, 9, 8, 10)]


def test_parse_order():
    ideal = load_ideal("powers_chain")
    assert parse_order("2,4,1,3", ideal).order == (2, 4, 1, 3)
    assert parse_order(" 2, 4 , 1,3 ", ideal).order == (2, 4, 1, 3)
    for bad in ("2,4,1", "1,2,3,5", "a,b,c,d", "1,1,2,3", ""):
        with pytest.raises(ValueError):
            parse_order(bad, ideal)


def test_orders_for_search_lists_every_order():
    ideal = load_ideal("mixed_powers_xyz")
    stream, exact = orders_for_search(ideal)
    assert exact and sum(len(block) for block in stream) == 120


# The block stream against itertools: every word in order, in int8
# blocks of 7! = 5040 rows (one block of mu! rows below mu = 7), with
# no bound at mu 9, past the command line's --max-exhaustive default.


def word_array(words, mu, count):
    return np.fromiter(chain.from_iterable(words), np.int8,
                       count * mu).reshape(count, mu)


def koszul(mu):
    names = [f"x{i}" for i in range(1, mu + 1)]
    return parse_ideal("vars " + " ".join(names) + "\n"
                       + "\n".join(f"gen {v}" for v in names))


@pytest.mark.parametrize("mu", [1, 2, 7, 8, 9])
def test_exhaustive_words_match_itertools(mu):
    ideal = koszul(mu)
    expected = word_array(permutations(range(1, mu + 1)), mu, factorial(mu))
    blocks, exact = orders_for_search(ideal)
    blocks = list(blocks)
    assert exact
    assert all(b.dtype == np.int8 and b.shape == (factorial(min(mu, 7)), mu)
               for b in blocks)
    assert np.array_equal(np.concatenate(blocks), expected)
