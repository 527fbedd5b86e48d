"""Broken and preserved sets, the Lyubeznik complex, symbol predicates.

Fix an ideal and a total order on its generators.  A non-empty set D is
*broken* when some generator u outside D divides lcm(D) and strictly
precedes min(D); such u is a *court* of D.  A set is *preserved* when
none of its subsets is broken.  The preserved sets are closed under
taking subsets, so they form a simplicial complex: the Lyubeznik
complex of the ordered ideal.

The broken and preserved sets of every subset under one order are
computed once, by a few 1-D numpy passes over the subset masks
(``order_analysis``).  Two predicates are deliberately implemented
along independent routes and compared by tests:

* ``is_preserved`` reads the order's preserved table (a set is
  preserved iff no broken set lies below it, the up-closure of the
  broken sets);
* ``is_admissible_symbol`` transcribes the resolution-side definition
  literally (for every member except the last, no strictly earlier
  generator divides the lcm of the tail), touching monomials directly.

The classification of a subset crosses preserved/unpreserved with
cover/non-cover; on the symbol side the same four classes appear as
admissible/inadmissible crossed with stable/non-stable, where a symbol
is *stable* when deleting any member strictly drops the lcm
(equivalently, its set is not a cover).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from typing import Iterable

import numpy as np

from .monomials import MonomialIdeal, divides, lcm_of
from .orders import OrderedIdeal
from .subsets import (SubsetTables, indices_of, lone_bits, mask_of,
                      popcounts, tables_for, up_closure)


class _OrderAnalysis:
    """Per-order tables, by 1-D numpy passes over the subset masks.

    With ``rank[g]`` the rank of generator g + 1 under the order:

    * ``least[mask]`` is the least rank in the mask (mu for the empty
      mask), by doubling over the bits;
    * a mask is broken iff ``least`` of its complete cover
      (``divisor_mask``, its members and outside divisors) is below its
      own: ranks are distinct, so only a court can lower it;
    * a mask is preserved iff it is outside the up-closure of the
      broken sets (``subsets.up_closure``).

    ``least`` is an int8 array and ``preserved`` a bool array over the
    masks, whether no subset of the mask is broken; both are read-only,
    as the subset tables are.  ``court(mask)`` reads the mask's least
    court off ``least``, as a Python int, 0 when it is not broken.
    ``f_vector[t]`` counts the preserved sets of size t; ``length``, the
    size of the largest one, is its last index, and ``dim`` is one less.
    ``faces`` lists the preserved masks in ascending order: the faces of
    the Lyubeznik complex, which the complex, the Betti counts and the
    radical generators read.  ``lone`` holds the lone bits of each face
    in ascending order (the generators g for which F ^ g is not a
    face), in the smallest unsigned dtype that holds mu bits
    (``subsets.lone_bits``), built on its first read.  ``facets`` lists
    the maximal faces in ascending order, read off it: faces are closed
    under subsets, so no face is lone at a member, and F is a facet
    exactly when it is lone at every bit outside it, ``lone[F] | F ==
    2^mu - 1``.  The complex reads the facets, and the oracle both of
    its resolution certificates, off this one table.  The census
    (``classification_census``) reads the f-vector.
    """

    __slots__ = ("divisor_mask", "order", "least", "preserved", "faces",
                 "_lone", "f_vector", "length")

    def __init__(self, ordered: OrderedIdeal) -> None:
        tables = tables_for(ordered.ideal)
        mu = tables.mu
        rank = np.empty(mu, np.int8)
        rank[np.array(ordered.order) - 1] = np.arange(mu, dtype=np.int8)
        # masks 2^b .. 2^(b+1)-1 extend masks 0 .. 2^b-1 by bit b
        least = np.empty(tables.size, np.int8)
        least[0] = mu
        for b in range(mu):
            np.minimum(least[:1 << b], rank[b], out=least[1 << b:2 << b])
        preserved = ~up_closure(least[tables.divisor_mask] < least)
        # the tables are cached and shared: an in-place write must raise
        least.flags.writeable = preserved.flags.writeable = False
        self.order = ordered.order
        self.least = least
        self.preserved = preserved
        self.faces = np.flatnonzero(preserved).tolist()
        self._lone = None
        self.f_vector = tuple(
            np.bincount(popcounts(mu)[preserved]).tolist())
        self.length = len(self.f_vector) - 1
        # court's table, the only one kept: no old ideal's tables stay
        self.divisor_mask = tables.divisor_mask

    @property
    def facets(self) -> list[int]:
        faces = np.flatnonzero(self.preserved)
        return faces[(self.lone | faces) == len(self.preserved) - 1].tolist()

    @property
    def lone(self) -> np.ndarray:
        if self._lone is None:
            self._lone = lone_bits(self.preserved)
            self._lone.flags.writeable = False
        return self._lone

    @property
    def dim(self) -> int:
        return self.length - 1

    def court(self, mask: int) -> int:
        """The least court of the mask, 0 when it is not broken."""
        low = int(self.least[self.divisor_mask[mask]])
        return self.order[low] if low < self.least[mask] else 0


# one entry: a command reads one order of one ideal, and more entries
# would hold 2^mu tables for every order a process has seen
@lru_cache(maxsize=1)
def order_analysis(ordered: OrderedIdeal) -> _OrderAnalysis:
    return _OrderAnalysis(ordered)


def is_broken(subset: Iterable[int], ordered: OrderedIdeal) -> int | None:
    """The least court of the subset, or None when it is not broken."""
    mask = mask_of(subset, ordered.ideal.mu)
    if mask == 0:
        raise ValueError("the empty set cannot be broken")
    return order_analysis(ordered).court(mask) or None


def is_preserved(subset: Iterable[int], ordered: OrderedIdeal) -> bool:
    """True iff no subset of the set is broken (the empty set is preserved)."""
    mask = mask_of(subset, ordered.ideal.mu)
    return bool(order_analysis(ordered).preserved[mask])


@dataclass(frozen=True)
class LyubeznikComplex:
    """All preserved subsets of the generators, as a simplicial complex.

    ``dim`` and ``f_vector`` are read off its own ``faces``, which hold
    the empty face, so reading them builds no order's tables again."""

    order: OrderedIdeal
    faces: frozenset[frozenset[int]]
    facets: frozenset[frozenset[int]]

    @cached_property
    def dim(self) -> int:
        """max |F| - 1; the empty complex {∅} has dimension -1."""
        return max(map(len, self.faces)) - 1

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        """Entry t counts faces with t vertices (entry 0 is the empty face)."""
        sizes = Counter(map(len, self.faces))
        return tuple(sizes[t] for t in range(self.dim + 2))


def lyubeznik_complex(ordered: OrderedIdeal) -> LyubeznikComplex:
    analysis = order_analysis(ordered)
    faces = frozenset(frozenset(indices_of(m)) for m in analysis.faces)
    facets = frozenset(frozenset(indices_of(m)) for m in analysis.facets)
    return LyubeznikComplex(ordered, faces, facets)


@dataclass(frozen=True)
class Symbol:
    """u(i1;...;it): generator indices listed in increasing rank."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.indices, tuple):
            object.__setattr__(self, "indices", tuple(self.indices))
        if not self.indices:
            raise ValueError("symbols have dimension at least 1")
        if any(not isinstance(i, int) or i < 1 for i in self.indices):
            raise ValueError("symbol entries are 1-based generator indices")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError(f"symbol {self.indices} repeats a generator")

    @property
    def dimension(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        return "u(" + ";".join(str(i) for i in self.indices) + ")"


def symbol_of(subset: Iterable[int], ordered: OrderedIdeal) -> Symbol:
    """The symbol of a non-empty subset: members sorted by rank."""
    subset = tuple(subset)
    mask_of(subset, ordered.ideal.mu)
    return Symbol(ordered.sorted_by_rank(subset))


def is_admissible_symbol(symbol: Symbol, ordered: OrderedIdeal) -> bool:
    """Literal admissibility: for every position h before the last, no
    generator strictly preceding the h-th member divides
    lcm(m_{i_h},...,m_{i_t}).

    Independent of the preserved-set machinery by construction.
    """
    mask_of(symbol.indices, ordered.ideal.mu)
    ranks = [ordered.rank(i) for i in symbol.indices]
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        raise ValueError(
            f"symbol {symbol} is not strictly increasing under order {ordered}")
    ideal = ordered.ideal
    idx = symbol.indices
    t = len(idx)
    for h in range(t - 1):
        tail = lcm_of(ideal.gen(i) for i in idx[h:])
        bound = ordered.rank(idx[h])
        for q in ideal.indices():
            if ordered.rank(q) < bound and divides(ideal.gen(q), tail):
                return False
    return True


def is_stable_symbol(symbol: Symbol, ideal: MonomialIdeal) -> bool:
    """True iff deleting any member strictly drops the lcm.

    Singletons are stable: deleting the only member leaves the empty
    product 1, and no minimal generator is 1.  Stability does not depend
    on the order, only on the member set.
    """
    idx = symbol.indices
    mask_of(idx, ideal.mu)
    if len(idx) == 1:
        return True
    full = lcm_of(ideal.gen(i) for i in idx)
    for q in idx:
        rest = lcm_of(ideal.gen(i) for i in idx if i != q)
        if rest == full:
            return False
    return True


class SubsetClass(Enum):
    PRESERVED_COVER = "PreservedCover"
    UNPRESERVED_COVER = "UnpreservedCover"
    PRESERVED_NONCOVER = "PreservedNonCover"
    UNPRESERVED_NONCOVER = "UnpreservedNonCover"


def classify_subset(subset: Iterable[int], ordered: OrderedIdeal) -> SubsetClass:
    """The unique class of a non-empty subset."""
    mask = mask_of(subset, ordered.ideal.mu)
    if mask == 0:
        raise ValueError("classification applies to non-empty subsets")
    cover = tables_for(ordered.ideal).covered_mask[mask] != 0
    if order_analysis(ordered).preserved[mask]:
        return SubsetClass.PRESERVED_COVER if cover else SubsetClass.PRESERVED_NONCOVER
    return SubsetClass.UNPRESERVED_COVER if cover else SubsetClass.UNPRESERVED_NONCOVER


def _covering_counts(tables: SubsetTables) -> np.ndarray:
    """The masks that cover some member, counted by size 0..mu."""
    return np.bincount(popcounts(tables.mu)[tables.covered_mask != 0],
                       minlength=tables.mu + 1)


def classification_census(ordered: OrderedIdeal) -> dict[int, dict[SubsetClass, int]]:
    """Counts of each class among the subsets of each size 1..mu.

    Three counts by size decide the four classes: the faces (the
    f-vector), the faces that are covers, and the covers, which do not
    depend on the order and are kept with the subset tables."""
    analysis = order_analysis(ordered)
    tables = tables_for(ordered.ideal)
    mu = tables.mu
    faces = analysis.f_vector + (0,) * (mu - analysis.length)
    covers = tables.derived(_covering_counts).tolist()
    both = np.bincount(
        popcounts(mu)[analysis.preserved & (tables.covered_mask != 0)],
        minlength=mu + 1).tolist()
    return {t: {SubsetClass.PRESERVED_COVER: both[t],
                SubsetClass.UNPRESERVED_COVER: covers[t] - both[t],
                SubsetClass.PRESERVED_NONCOVER: faces[t] - both[t],
                SubsetClass.UNPRESERVED_NONCOVER:
                    comb(mu, t) - faces[t] - covers[t] + both[t]}
            for t in range(1, mu + 1)}


def _symbols(ordered: OrderedIdeal, size: int, admissible: bool
             ) -> tuple[Symbol, ...]:
    """The symbols of one dimension whose sets are (not) preserved.
    ``ordered.order`` is the rank-sorted generator word, so combinations
    come out lexicographic in rank and already rank-increasing."""
    preserved = order_analysis(ordered).preserved
    return tuple(Symbol(word) for word in combinations(ordered.order, size)
                 if preserved[mask_of(word)] == admissible)


def admissible_symbols(ordered: OrderedIdeal, size: int) -> tuple[Symbol, ...]:
    """All admissible symbols of the given dimension, via the order's
    preserved-set table."""
    return _symbols(ordered, size, True)


def inadmissible_symbols(ordered: OrderedIdeal, size: int) -> tuple[Symbol, ...]:
    return _symbols(ordered, size, False)
