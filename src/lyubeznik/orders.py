"""Total orders on the generators of a monomial ideal.

An ``OrderedIdeal`` pairs an ideal with a permutation word: ``order[k]``
is the (1-based) index of the generator sitting at rank k.  The identity
order is the listing order of the generators.

Order enumeration is always lexicographic on the permutation word, so
witness orders are reproducible.  The exhaustive search of
``invariants`` answers for all mu! orders without listing them
(``prefix``).

``orders_for_search`` reads ``itertools.permutations`` in int8 blocks
of ``BLOCK`` words.  No command calls it and no checking route lists
orders with it: besides its own tests, its one remaining reader is the
benchmark's tracer, which wraps it by name.  It is lazy and refuses no
mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, permutations
from operator import index
from typing import Iterable, Iterator

import numpy as np

from .monomials import MonomialIdeal

# words per block of orders_for_search: 7!, so that each block from
# mu = 7 on is full
BLOCK = 5040


@dataclass(frozen=True)
class OrderedIdeal:
    """An ideal together with a total order on its generators."""

    ideal: MonomialIdeal
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        order = tuple(self.order)
        try:  # Python ints: numpy's are taken, floats refused
            word = tuple(map(index, order))
        except TypeError:
            word = ()
        if sorted(word) != list(range(1, self.ideal.mu + 1)):
            raise ValueError(
                f"order {order} is not a permutation of 1..{self.ideal.mu}")
        object.__setattr__(self, "order", word)

    @cached_property
    def _rank(self) -> tuple[int, ...]:
        ranks = [0] * len(self.order)
        for pos, gen in enumerate(self.order):
            ranks[gen - 1] = pos
        return tuple(ranks)

    def rank(self, i: int) -> int:
        """0-based rank of generator i; rank 0 is the least generator."""
        return self._rank[i - 1]

    def sorted_by_rank(self, indices: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(indices, key=lambda i: self._rank[i - 1]))

    def __str__(self) -> str:
        return "(" + ",".join(str(i) for i in self.order) + ")"


def identity_order(ideal: MonomialIdeal) -> OrderedIdeal:
    return OrderedIdeal(ideal, tuple(range(1, ideal.mu + 1)))


def parse_order(text: str, ideal: MonomialIdeal) -> OrderedIdeal:
    """Parse a CLI-style order override like ``"3,1,2"``."""
    try:
        word = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"order override {text!r} is not a comma-separated "
                         "list of integers") from None
    return OrderedIdeal(ideal, word)


def orders_for_search(ideal: MonomialIdeal
                      ) -> tuple[Iterator[np.ndarray], bool]:
    """The mu! permutation words, lexicographic, as int8 arrays of shape
    (count, mu) whose row k is one word, ``BLOCK`` words to an array but
    the last, plus ``True``: the stream covers every order."""
    return _blocks(permutations(ideal.indices())), True


def _blocks(words: Iterator[tuple[int, ...]]) -> Iterator[np.ndarray]:
    while block := list(islice(words, BLOCK)):
        yield np.array(block, np.int8)
