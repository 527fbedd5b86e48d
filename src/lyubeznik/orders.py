"""Total orders on the generators of a monomial ideal.

An ``OrderedIdeal`` pairs an ideal with a permutation word: ``order[k]``
is the (1-based) index of the generator sitting at rank k.  The identity
order is the listing order of the generators.

Order enumeration is always lexicographic on the permutation word, so
witness orders are reproducible.  The exhaustive search of
``invariants`` answers for all mu! orders without listing them
(``prefix``); it still follows the bound of the order stream,
``check_search_bound``: a search of more than ``max_exhaustive``
generators is refused.  ``all_orders`` and the tests' checking scan
read the stream.

The stream is built in numpy as int8 arrays of rows: the last
min(mu, TAIL) positions of each word come from indexing the generators
through one cached table of lexicographic permutations, the positions
before those from ``itertools.permutations``.  ``orders_for_search``
yields these arrays as they are, one per arrangement of the leading
positions; ``all_orders`` turns each row into an ``OrderedIdeal``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .monomials import BoundExceededError, MonomialIdeal

DEFAULT_MAX_EXHAUSTIVE = 8
# the last TAIL positions of every word come from one table of TAIL! rows
TAIL = 7


@dataclass(frozen=True)
class OrderedIdeal:
    """An ideal together with a total order on its generators."""

    ideal: MonomialIdeal
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.order, tuple):
            object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(range(1, self.ideal.mu + 1)):
            raise ValueError(
                f"order {self.order} is not a permutation of 1..{self.ideal.mu}")

    @cached_property
    def _rank(self) -> tuple[int, ...]:
        ranks = [0] * len(self.order)
        for pos, gen in enumerate(self.order):
            ranks[gen - 1] = pos
        return tuple(ranks)

    def rank(self, i: int) -> int:
        """0-based rank of generator i; rank 0 is the least generator."""
        return self._rank[i - 1]

    def precedes(self, i: int, j: int) -> bool:
        return self._rank[i - 1] < self._rank[j - 1]

    def sorted_by_rank(self, indices: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(indices, key=lambda i: self._rank[i - 1]))

    def __str__(self) -> str:
        return "(" + ",".join(str(i) for i in self.order) + ")"


def identity_order(ideal: MonomialIdeal) -> OrderedIdeal:
    return OrderedIdeal(ideal, tuple(range(1, ideal.mu + 1)))


@lru_cache(maxsize=None)
def _tail_table(t: int) -> np.ndarray:
    """The t! permutations of range(t), lexicographic, as int8 rows.

    Built on first use for t <= TAIL, so at most TAIL + 1 small tables.
    """
    return np.array(list(permutations(range(t))), np.int8).reshape(
        factorial(t), t)


def _arrangements(pool: Sequence[int]) -> Iterator[np.ndarray]:
    """Every arrangement of ``pool``, lexicographic.

    The last t = min(|pool|, TAIL) positions come from one index of the
    remaining generators through ``_tail_table(t)``; the positions
    before them range over ``permutations(pool, |pool| - t)``.  Yields
    one int8 array of t! rows per middle.
    """
    pool = sorted(pool)
    t = min(len(pool), TAIL)
    table = _tail_table(t)
    for middle in permutations(pool, len(pool) - t):
        rest = np.array(sorted(set(pool).difference(middle)), np.int8)
        rows = np.empty((len(table), len(pool)), np.int8)
        rows[:, :len(middle)] = middle
        rows[:, len(middle):] = rest[table]
        yield rows


def all_orders(ideal: MonomialIdeal, *,
               max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE
               ) -> Iterator[OrderedIdeal]:
    """All mu! orders, lexicographic on the permutation word.

    Refuses when mu exceeds ``max_exhaustive``; pass
    ``max_exhaustive=ideal.mu`` to lift the bound.
    """
    blocks, _ = orders_for_search(ideal, max_exhaustive=max_exhaustive)
    return (OrderedIdeal(ideal, tuple(word))
            for block in blocks for word in block.tolist())


def parse_order(text: str, ideal: MonomialIdeal) -> OrderedIdeal:
    """Parse a CLI-style order override like ``"3,1,2"``."""
    try:
        word = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"order override {text!r} is not a comma-separated "
                         "list of integers") from None
    return OrderedIdeal(ideal, word)




def check_search_bound(ideal: MonomialIdeal, *,
                       max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE) -> None:
    """Refuse a search of the mu! orders when mu exceeds
    ``max_exhaustive``, whether the search lists the orders or not."""
    mu = ideal.mu
    if mu > max_exhaustive:
        raise BoundExceededError(
            f"exhaustive search over {mu}! = {factorial(mu)} orders exceeds "
            f"the threshold of {max_exhaustive}! = "
            f"{factorial(max_exhaustive)} orders; raise --max-exhaustive "
            "(max_exhaustive= in the library)")


def orders_for_search(ideal: MonomialIdeal, *,
                      max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE
                      ) -> tuple[Iterator[np.ndarray], bool]:
    """The mu! permutation words, lexicographic, as int8 arrays of shape
    (count, mu) whose row k is one word, plus ``True``: the stream
    covers every order.

    Refused by ``check_search_bound``.
    """
    check_search_bound(ideal, max_exhaustive=max_exhaustive)
    return _arrangements(ideal.indices()), True
