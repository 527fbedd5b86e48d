"""Total orders on the generators of a monomial ideal.

An ``OrderedIdeal`` pairs an ideal with a permutation word: ``order[k]``
is the (1-based) index of the generator sitting at rank k.  The identity
order is the listing order of the generators.

Order enumeration is always lexicographic on the permutation word, so
witness orders are reproducible and searches can be partitioned into
disjoint prefix blocks.  The courts-first stream is the documented
heuristic alternative to all mu! orders: it yields only the orders in
which every "possible court" precedes every non-court.  Both streams
follow one bound (mu! grows fast): a stream longer than
``max_exhaustive``! orders is refused.

Both streams are built in numpy as int8 arrays of rows: the last
min(n, TAIL) positions of an arrangement of n generators come from
indexing them through one cached table of lexicographic permutations,
the positions before those from ``itertools.permutations``.  The
courts-first stream pairs the courts' arrangements with the
non-courts' by ``np.repeat`` and ``np.tile``.  ``orders_for_search``
yields the rows as one ``bytes`` word per order, which a search joins
back into int8 blocks (the split and the join cost about 0.02 s for
the 9! words at mu = 9); ``all_orders`` and ``courts_first_orders``
turn each word into an ``OrderedIdeal``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, permutations
from math import factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .monomials import BoundExceededError, MonomialIdeal, divides, lcm_of

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


def _arrangements(pool: Sequence[int], head: tuple[int, ...] = ()
                  ) -> Iterator[np.ndarray]:
    """``head`` followed by every arrangement of ``pool``, lexicographic.

    The last t = min(|pool|, TAIL) positions come from one index of the
    remaining generators through ``_tail_table(t)``; the positions
    before them range over ``permutations(pool, |pool| - t)``.  Yields
    one int8 array of t! rows per middle.
    """
    pool = sorted(pool)
    t = min(len(pool), TAIL)
    table = _tail_table(t)
    for middle in permutations(pool, len(pool) - t):
        fixed = head + middle
        rest = np.array(sorted(set(pool).difference(middle)), np.int8)
        rows = np.empty((len(table), len(fixed) + t), np.int8)
        rows[:, :len(fixed)] = fixed
        rows[:, len(fixed):] = rest[table]
        yield rows


def _courts_first_rows(ideal: MonomialIdeal, courts: frozenset[int]
                       ) -> Iterator[np.ndarray]:
    """Every arrangement of the courts, each followed by every
    arrangement of the non-courts, lexicographic, as int8 arrays."""
    others = set(ideal.indices()) - courts
    if not courts or not others:
        yield from _arrangements(ideal.indices())
        return
    if len(others) > TAIL:
        # each head is followed by arrays of TAIL! rows
        for heads in _arrangements(courts):
            for head in heads.tolist():
                yield from _arrangements(others, tuple(head))
        return
    # few non-court arrangements: pair whole runs of heads with their
    # table, so that each array still holds about TAIL! rows
    tails = np.array(sorted(others), np.int8)[_tail_table(len(others))]
    per = max(1, factorial(TAIL) // len(tails))
    tiled = np.tile(tails, (per, 1))
    for heads in _arrangements(courts):
        for start in range(0, len(heads), per):
            run = heads[start:start + per]
            rows = np.empty((len(run) * len(tails), ideal.mu), np.int8)
            rows[:, :len(courts)] = np.repeat(run, len(tails), axis=0)
            rows[:, len(courts):] = tiled[:len(rows)]
            yield rows


def _words(rows: Iterator[np.ndarray], mu: int) -> Iterator[bytes]:
    """The rows of a stream of int8 (count, mu) arrays, one ``bytes``
    word each.  (Generator indices are at least 1, so no word has the
    trailing zero bytes that numpy's ``S`` type would drop.)"""
    return chain.from_iterable(piece.view(f"S{mu}").ravel().tolist()
                               for piece in rows)


def all_orders(ideal: MonomialIdeal, *,
               max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE
               ) -> Iterator[OrderedIdeal]:
    """All mu! orders, lexicographic on the permutation word.

    Refuses when mu exceeds ``max_exhaustive``; pass
    ``max_exhaustive=ideal.mu`` to lift the bound.
    """
    words, _ = orders_for_search(ideal, "exhaustive",
                                 max_exhaustive=max_exhaustive)
    return (OrderedIdeal(ideal, tuple(word)) for word in words)


def possible_courts(ideal: MonomialIdeal) -> frozenset[int]:
    """Generators u that divide lcm(D) for some subset D not containing u.

    Checking D = G(I) minus {u} suffices: lcm is monotone under
    inclusion, so that single D is a witness exactly when any witness
    exists.  (The subset search the definition suggests is therefore
    redundant, but cheap enough that tests re-run it as an oracle.)
    """
    mu = ideal.mu
    if mu == 1:
        return frozenset()
    courts = set()
    for u in ideal.indices():
        rest = [ideal.gen(i) for i in ideal.indices() if i != u]
        if divides(ideal.gen(u), lcm_of(rest)):
            courts.add(u)
    return frozenset(courts)


def courts_first_orders(ideal: MonomialIdeal) -> Iterator[OrderedIdeal]:
    """Orders in which every possible court precedes every non-court.

    Yields |P|! * (mu - |P|)! orders, lexicographic on the word.  With
    P empty or P = G(I) this degenerates to the full order stream.
    """
    rows = _courts_first_rows(ideal, possible_courts(ideal))
    return (OrderedIdeal(ideal, tuple(word))
            for word in _words(rows, ideal.mu))


def parse_order(text: str, ideal: MonomialIdeal) -> OrderedIdeal:
    """Parse a CLI-style order override like ``"3,1,2"``."""
    try:
        word = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"order override {text!r} is not a comma-separated "
                         "list of integers") from None
    return OrderedIdeal(ideal, word)


def orders_for_search(ideal: MonomialIdeal, mode: str, *,
                      max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE
                      ) -> tuple[Iterator[bytes], bool]:
    """The permutation words a search mode scans, plus whether they are
    all mu! orders.

    Each word is a ``bytes`` object whose byte k is the generator at
    rank k, so ``np.frombuffer(b"".join(words), np.int8)`` reads a run
    of them as one array.  Words come in the same lexicographic order
    as ``all_orders`` and ``courts_first_orders``, without an
    ``OrderedIdeal`` per word.  The exhaustive stream is the
    courts-first stream with no courts; the courts-first stream is
    flagged exact when it coincides with it (P empty or P = G(I)).
    Either stream is refused when it is longer than
    ``max_exhaustive``! orders.
    """
    if mode not in ("exhaustive", "courts-first"):
        raise ValueError(f"unknown search mode {mode!r}")
    courts = possible_courts(ideal) if mode == "courts-first" else frozenset()
    mu, p = ideal.mu, len(courts)
    count = factorial(p) * factorial(mu - p)
    # no stream is longer than mu!, so only mu > max_exhaustive can refuse
    if mu > max_exhaustive and count > factorial(max_exhaustive):
        size = f"{mu}!" if p in (0, mu) else f"{p}! * {mu - p}!"
        raise BoundExceededError(
            f"{mode} search over {size} = {count} orders exceeds the "
            f"threshold of {max_exhaustive}! = {factorial(max_exhaustive)} "
            "orders; raise --max-exhaustive (max_exhaustive= in the "
            "library)")
    return _words(_courts_first_rows(ideal, courts), mu), p in (0, mu)
