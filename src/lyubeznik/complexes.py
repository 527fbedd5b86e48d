"""Broken and preserved sets, the Lyubeznik complex, symbol predicates.

Fix an ideal and a total order on its generators.  A non-empty set D is
*broken* when some generator u outside D divides lcm(D) and strictly
precedes min(D); such u is a *court* of D.  A set is *preserved* when
none of its subsets is broken.  The preserved sets are closed under
taking subsets, so they form a simplicial complex: the Lyubeznik
complex of the ordered ideal.

The broken and preserved sets of every subset are computed by one
numpy kernel, ``PreservedKernel``, which the order search also runs on
blocks of orders.  Two predicates are deliberately implemented along
independent routes and compared by tests:

* ``is_preserved`` reads the kernel's table (a set is preserved iff no
  broken set lies below it, the up-closure of the broken sets);
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

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .monomials import MonomialIdeal, divides, lcm_of
from .orders import OrderedIdeal
from .subsets import indices_of, mask_of, popcounts, tables_for


class PreservedKernel:
    """Least ranks, broken sets and unpreserved sets of blocks of orders.

    The kernel takes an ideal's ``outside_mask`` table and evaluates a
    block of permutation words, an int8 array of shape (count, mu),
    with whole-array numpy passes over one row per subset mask:

    * ``least[mask][j]``: the least rank in the mask under order j (mu
      for the empty mask), by doubling over the bits;
    * ``court_rank[mask][j]``: ``least`` of the mask's outside divisors,
      by one gather; the mask is broken iff this is below ``least``;
    * ``unpreserved[mask]``: some subset of the mask is broken, by
      up-closing the broken sets in place, one OR per bit (the zeta
      transform over the subset lattice).  This table is bit packed
      along the order axis: each row is ``np.packbits`` of the orders
      (order j is bit 7 - j % 8 of byte j // 8), viewed as uint64 when
      the row is a whole number of 64-bit words (blocks of a multiple
      of 64 orders), so the closure and its readers move one
      sixty-fourth of the elements a bool table would.  Read it back
      with ``np.unpackbits(unpreserved.view(np.uint8), axis=1,
      count=count)``.

    ``least``, ``court_rank`` and the unpacked broken sets are scratch
    kept from one block to the next of the same size, so they are valid
    until the next call: multi-megabyte arrays allocated afresh for
    every block are mapped and page-faulted in by the allocator each
    time, which costs about as much as the arithmetic on them.
    """

    def __init__(self, outside_mask: Sequence[int]) -> None:
        self.outside = np.array(outside_mask, np.intp)
        self.mu = len(outside_mask).bit_length() - 1
        self._scratch: tuple[np.ndarray, ...] = ()

    def __call__(self, words: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(least, court_rank, unpreserved): the first two of shape
        (2^mu, count), the third packed to ceil(count / 8) bytes a row."""
        mu = self.mu
        count = len(words)
        if not self._scratch or self._scratch[0].shape[1] != count:
            shape = (1 << mu, count)
            # broken rows are padded with False to whole bytes, so that
            # they pack as one flat run: np.packbits along axis 1 pays
            # per row, which dominates the kernel for a single order
            self._scratch = (np.empty(shape, np.int8), np.empty(shape, np.int8),
                             np.zeros((1 << mu, -(-count // 8) * 8), bool))
        least, court_rank, broken = self._scratch

        # rank[g][j]: rank of generator g + 1 in order j
        rank = np.empty((mu, count), np.int8)
        rank[words.T - 1, np.arange(count)] = np.arange(mu, dtype=np.int8)[:, None]

        # masks 2^b .. 2^(b+1)-1 extend masks 0 .. 2^b-1 by bit b
        least[0] = mu
        for b in range(mu):
            np.minimum(least[:1 << b], rank[b], out=least[1 << b:2 << b])

        # broken: some outside divisor precedes every member (never for
        # an empty outside set, whose least rank is the sentinel mu).
        # The gather uses mode="clip" (indices are in range) so that
        # numpy writes straight into the scratch instead of a buffer.
        np.take(least, self.outside, axis=0, out=court_rank, mode="clip")
        np.less(court_rank, least, out=broken[:, :count])
        unpreserved = np.packbits(broken.reshape(-1)).reshape(1 << mu, -1)
        if unpreserved.shape[1] % 8 == 0:
            unpreserved = unpreserved.view(np.uint64)
        for b in range(mu):
            halves = unpreserved.reshape(-1, 2, 1 << b, unpreserved.shape[1])
            halves[:, 1] |= halves[:, 0]
        return least, court_rank, unpreserved


class _OrderAnalysis:
    """Per-order tables, from ``PreservedKernel`` on a one-word block.

    ``court`` is the order's one broken-set table: ``court[mask]`` is the
    least court of the subset, nonzero exactly when it is broken.
    ``preserved[mask]`` says whether no subset of the mask is broken, and
    ``length`` is the size of the largest preserved set.  Both tables are
    plain Python lists, as the subset tables are; ``preserved_array`` is
    the same table as a numpy bool array, for whole-array readers.
    ``faces`` lists the preserved masks in ascending order: the faces of
    the Lyubeznik complex, which the complex, the Betti counts, the
    radical generators and the homology checks all read.
    """

    __slots__ = ("tables", "court", "preserved", "preserved_array", "faces",
                 "length")

    def __init__(self, ordered: OrderedIdeal) -> None:
        tables = tables_for(ordered.ideal)
        word = np.array(ordered.order, np.int8)
        least, court_rank, unpreserved = PreservedKernel(tables.outside_mask)(
            word[None])
        least, court_rank = least[:, 0], court_rank[:, 0]
        # one order: its bit is the only one a packed row can hold
        preserved = unpreserved[:, 0] == 0
        # an empty outside set has court rank mu: pad the word to index it
        court = np.append(word, np.int8(0))[court_rank]
        court[court_rank >= least] = 0
        self.court = court.tolist()
        self.preserved = preserved.tolist()
        self.preserved_array = preserved
        self.faces = np.flatnonzero(preserved).tolist()
        self.length = int(popcounts(tables.mu)[preserved].max())
        self.tables = tables


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
    court = order_analysis(ordered).court[mask]
    return court if court else None


def is_preserved(subset: Iterable[int], ordered: OrderedIdeal) -> bool:
    """True iff no subset of the set is broken (the empty set is preserved)."""
    return order_analysis(ordered).preserved[mask_of(subset, ordered.ideal.mu)]


@dataclass(frozen=True)
class LyubeznikComplex:
    """All preserved subsets of the generators, as a simplicial complex."""

    order: OrderedIdeal
    faces: frozenset[frozenset[int]]
    facets: frozenset[frozenset[int]]

    @cached_property
    def dim(self) -> int:
        """max |F| - 1; the empty complex {∅} has dimension -1."""
        return max(len(f) for f in self.faces) - 1

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        """Entry t counts faces with t vertices (entry 0 is the empty face)."""
        counts = [0] * (self.dim + 2)
        for f in self.faces:
            counts[len(f)] += 1
        return tuple(counts)

    def faces_of_size(self, t: int) -> tuple[frozenset[int], ...]:
        return tuple(sorted((f for f in self.faces if len(f) == t),
                            key=lambda f: tuple(sorted(f))))


def lyubeznik_complex(ordered: OrderedIdeal) -> LyubeznikComplex:
    analysis = order_analysis(ordered)
    preserved = analysis.preserved_array
    # downward closure makes maximality a one-bit test: a face is a facet
    # iff no face one larger contains it.  larger[m] collects, one bit b
    # at a time, whether m | 2^b is a face for some b outside m.
    larger = np.zeros_like(preserved)
    for b in range(analysis.tables.mu):
        halves = larger.reshape(-1, 2, 1 << b)
        halves[:, 0] |= preserved.reshape(-1, 2, 1 << b)[:, 1]
    facet_masks = np.flatnonzero(preserved & ~larger).tolist()
    faces = frozenset(frozenset(indices_of(m)) for m in analysis.faces)
    facets = frozenset(frozenset(indices_of(m)) for m in facet_masks)
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


def _subset_class(analysis: _OrderAnalysis, mask: int) -> SubsetClass:
    cover = analysis.tables.covered_mask[mask] != 0
    if analysis.preserved[mask]:
        return SubsetClass.PRESERVED_COVER if cover else SubsetClass.PRESERVED_NONCOVER
    return SubsetClass.UNPRESERVED_COVER if cover else SubsetClass.UNPRESERVED_NONCOVER


def classify_subset(subset: Iterable[int], ordered: OrderedIdeal) -> SubsetClass:
    """The unique class of a non-empty subset."""
    mask = mask_of(subset, ordered.ideal.mu)
    if mask == 0:
        raise ValueError("classification applies to non-empty subsets")
    return _subset_class(order_analysis(ordered), mask)


def classification_census(ordered: OrderedIdeal) -> dict[int, dict[SubsetClass, int]]:
    """Counts of each class among the subsets of each size 1..mu."""
    analysis = order_analysis(ordered)
    mu = analysis.tables.mu
    covered = np.array(analysis.tables.covered_mask) != 0
    keys = (popcounts(mu).astype(np.intp) * 4
            + analysis.preserved_array * 2 + covered)
    counts = np.bincount(keys, minlength=4 * (mu + 1)).reshape(-1, 2, 2)
    return {t: {SubsetClass.PRESERVED_COVER: int(counts[t, 1, 1]),
                SubsetClass.UNPRESERVED_COVER: int(counts[t, 0, 1]),
                SubsetClass.PRESERVED_NONCOVER: int(counts[t, 1, 0]),
                SubsetClass.UNPRESERVED_NONCOVER: int(counts[t, 0, 0])}
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
