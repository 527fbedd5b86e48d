"""Total orders on the generators of a monomial ideal.

An ``OrderedIdeal`` pairs an ideal with a permutation word: ``order[k]``
is the (1-based) index of the generator sitting at rank k.  The identity
order is the listing order of the generators.

Order enumeration is always lexicographic on the permutation word, so
witness orders are reproducible and searches can be partitioned into
disjoint prefix blocks.  Exhaustive enumeration is refused above a
threshold (mu! grows fast); the courts-first stream is the documented
heuristic alternative: it yields only the orders in which every
"possible court" precedes every non-court.  A search refuses that
stream too when it is longer than the exhaustive threshold allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import factorial
from typing import Iterable, Iterator

from .monomials import BoundExceededError, MonomialIdeal, divides, lcm_of

DEFAULT_MAX_EXHAUSTIVE = 8


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


def min_of(subset: Iterable[int], ordered: OrderedIdeal) -> int:
    """The least generator index of a non-empty subset under the order."""
    best = None
    for i in subset:
        if best is None or ordered.precedes(i, best):
            best = i
    if best is None:
        raise ValueError("min of an empty subset is undefined")
    return best


def order_count(ideal: MonomialIdeal) -> int:
    return factorial(ideal.mu)


def _exhaustive_words(ideal: MonomialIdeal, *, max_exhaustive: int,
                     force: bool) -> Iterator[tuple[int, ...]]:
    """All mu! permutation words in lexicographic order, bound-checked."""
    mu = ideal.mu
    if mu > max_exhaustive and not force:
        raise BoundExceededError(
            f"exhaustive search over {mu}! = {factorial(mu)} orders exceeds "
            f"the threshold mu <= {max_exhaustive}; raise --max-exhaustive "
            "(or force=True), or use the courts-first heuristic search")
    return permutations(range(1, mu + 1))


def all_orders(ideal: MonomialIdeal, *,
               max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
               force: bool = False) -> Iterator[OrderedIdeal]:
    """All mu! orders, lexicographic on the permutation word.

    Refuses when mu exceeds ``max_exhaustive`` unless ``force`` is set;
    the error names the courts-first heuristic as the alternative.
    """
    words = _exhaustive_words(ideal, max_exhaustive=max_exhaustive,
                              force=force)
    return (OrderedIdeal(ideal, word) for word in words)


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


def _courts_first_words(ideal: MonomialIdeal) -> Iterator[tuple[int, ...]]:
    courts = sorted(possible_courts(ideal))
    rest = sorted(set(ideal.indices()) - set(courts))
    for head in permutations(courts):
        for tail in permutations(rest):
            yield head + tail


def courts_first_orders(ideal: MonomialIdeal) -> Iterator[OrderedIdeal]:
    """Orders in which every possible court precedes every non-court.

    Yields |P|! * (mu - |P|)! orders, lexicographic on the word.  With
    P empty or P = G(I) this degenerates to the full order stream.
    """
    return (OrderedIdeal(ideal, word) for word in _courts_first_words(ideal))


def parse_order(text: str, ideal: MonomialIdeal) -> OrderedIdeal:
    """Parse a CLI-style order override like ``"3,1,2"``."""
    try:
        word = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"order override {text!r} is not a comma-separated "
                         "list of integers") from None
    return OrderedIdeal(ideal, word)


def orders_for_search(ideal: MonomialIdeal, mode: str, *,
                      max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
                      force: bool = False
                      ) -> tuple[Iterator[tuple[int, ...]], bool]:
    """The permutation words a search mode scans, plus whether they are
    all mu! orders.

    Words come in the same lexicographic order as ``all_orders`` and
    ``courts_first_orders``, without an ``OrderedIdeal`` per word.  The
    courts-first stream is flagged exact when it coincides with the
    full stream (P empty or P = G(I)).  Either stream is refused when it
    is longer than ``max_exhaustive``! orders, unless ``force`` is set.
    """
    if mode == "exhaustive":
        return _exhaustive_words(ideal, max_exhaustive=max_exhaustive,
                                 force=force), True
    if mode == "courts-first":
        mu = ideal.mu
        p = len(possible_courts(ideal))
        count = factorial(p) * factorial(mu - p)
        # no stream is longer than mu!, so only mu > max_exhaustive can refuse
        if mu > max_exhaustive and count > factorial(max_exhaustive) \
                and not force:
            raise BoundExceededError(
                f"courts-first search over {p}! * {mu - p}! = {count} orders "
                f"exceeds the threshold of {max_exhaustive}! = "
                f"{factorial(max_exhaustive)} orders; raise --max-exhaustive "
                "(or force=True)")
        return _courts_first_words(ideal), p in (0, mu)
    raise ValueError(f"unknown search mode {mode!r}")

