"""Minimality tests, Betti tables from preserved sets, and order searches.

Per-order quantities (is the Lyubeznik resolution minimal, its length,
the obstruction) are read off the order's preserved-set table,
``order_analysis(ordered)``, and the ideal's cover table in ``covers``:
the resolution is minimal iff no E-minimal cover is preserved.  Their
checking routes live in the tests: facet stability for minimality, and
the Python preserved-set DP and the subset-sum closure for the tables
and the length.

An order search, ``search_scan``, yields the total obstruction, the
minimal length, the number of minimal orders and the Lyubeznik /
almost / totally Lyubeznik verdicts over all mu! orders, each witness
the lexicographically least order achieving its value, as one
``SearchResult``.  It never lists the orders: it answers each question
by walks over prefix sets (``prefix``) when the question is first read,
so that a caller pays only for what it reads.  A search is built with
its field, ``search_scan(ideal, prime=...)``, and holds the projective
dimension of R/I over it as ``projdim``: the floor of its least length
and what ``almost_lyubeznik`` compares with, so that a call that reads
one search computes one projective dimension.  Its checking route in
the tests reads each value off the least k at which a plainer prefix
walk, one without the sure table, finds an order.

Where a minimal order is in hand, the projective dimension is read off
it and the homology oracle is not called: a minimal free resolution
has length pd(R/I), and the Lyubeznik resolution is defined over Z
with monomial coefficients, so an order whose resolution is minimal
gives it over every field.  So a Lyubeznik ideal's ``projdim`` is the
length of its least minimal order, and ``analyze`` takes a minimal
order's length as the ara lower bound of a squarefree ideal.
Elsewhere pd is the oracle's walk down the Morse-reduced strands
(``oracle._projective_dimension``), which builds no Betti table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .betti import BettiTable
from .complexes import order_analysis
from .covers import cover_table
from .linalg import check_prime
from .monomials import MonomialIdeal
from .oracle import _projective_dimension
from .orders import OrderedIdeal
from .prefix import PrefixWalk
from .subsets import popcounts, tables_for


class NotMinimalError(ValueError):
    """Preserved-set counts were requested for a non-minimal resolution."""


# ---------------------------------------------------------------------------
# per-order invariants


def is_minimal_resolution(ordered: OrderedIdeal) -> bool:
    """Whether the Lyubeznik resolution of this order is minimal: no
    E-minimal cover is preserved, that is, no edge of the clutter."""
    return obstruction(ordered) == 0


def obstruction(ordered: OrderedIdeal) -> int:
    """Largest preserved element of the E-minimal cover clutter, else 0."""
    clutter = cover_table(ordered.ideal).clutter
    preserved = order_analysis(ordered).preserved
    return max((m.bit_count() for m in clutter if preserved[m]), default=0)


def l_length(ordered: OrderedIdeal) -> int:
    """Length of the Lyubeznik resolution: the largest face size."""
    return order_analysis(ordered).length


def preserved_size(ordered: OrderedIdeal) -> int:
    """Largest preserved subset; by definition the resolution length."""
    return order_analysis(ordered).length


def betti_from_preserved(ordered: OrderedIdeal) -> BettiTable:
    """Multigraded Betti numbers of R/I read off the preserved sets.

    Each preserved set A contributes 1 to beta_{|A|, lcm(A)}(R/I);
    valid only when the resolution is minimal.
    """
    if not is_minimal_resolution(ordered):
        raise NotMinimalError(
            "the Lyubeznik resolution is not minimal for this order, so "
            "preserved-set counts are not Betti numbers; use the homology "
            "oracle (taylor_betti) instead")
    return _preserved_betti(ordered)


def _preserved_betti(ordered: OrderedIdeal) -> BettiTable:
    """Preserved-set counts by size and lcm, for an order known minimal."""
    ideal = ordered.ideal
    analysis = order_analysis(ordered)
    faces = analysis.faces
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    # the empty face's lcm tuple is the zero tuple, the unit's degree
    for mask, exps in zip(faces, tables_for(ideal).lcm_tuples(faces)):
        key = (mask.bit_count(), exps)
        counts[key] = counts.get(key, 0) + 1
    return BettiTable.from_multigraded(ideal.context, counts)


# ---------------------------------------------------------------------------
# order searches


class SearchResult:
    """The aggregates of all mu! orders of an ideal and the verdicts they
    settle, each computed when first read by ``prefix.PrefixWalk``
    searches, so that a caller pays only for what it reads: ``graph``
    the two verdicts, ``analyze`` no positive total obstruction.

    The search answers for every order without listing them: it is
    never ``stopped_early``, and ``scanned`` is mu!.  Witnesses are
    permutation words, each the lexicographically least order achieving
    its value.

    * the clutter walk's count is ``minimal_count``, and it settles both
      verdicts: ``lyubeznik`` when it is positive, ``totally_lyubeznik``
      when it is mu!.  The walk's least order, the zero-obstruction
      witness, descends along the count's memo, which is quicker than
      searching without it, so the clutter walk is counted as soon as
      it is built;
    * a positive ``tobsl`` is the least edge size k at which some order
      preserves no clutter edge larger than k, tried k ascending, each k
      by the clutter walk started from the root of the edges above k
      (``first(alive=...)``), so every k reads the rows and the count's
      memo of that one walk.  Above the largest size no edge is left
      alive, and the walk settles at its root with the identity order;
    * an order's length is at most k exactly when it preserves no
      (k + 1)-set.  No order is shorter than the projective dimension
      of R/I, and minimal orders reach it, so a Lyubeznik ideal's
      ``min_l`` is its minimal witness's length.  Otherwise ``min_l``
      is the least k, tried upward from the projective dimension, at
      which the walk over the (k + 1)-sets finds an order; having one
      is monotone in k, and most ideals are settled at the floor or
      one above it.  Each k is one walk, even where the identity order
      is short enough: the identity is the lexicographically least
      word, so the walk then goes straight down its path, reading one
      row per prefix of it until a state settles (on K_{4,4}, mu 16,
      12 rows of the floor's walk over the C(16, 8) = 12,870 8-sets).
      So ``tobsl`` and ``min_l`` are both the first k, tried upward, at
      which a walk finds an order.  A Lyubeznik resolution is free over every
      field, so the floor may be the projective dimension over any: it
      is ``projdim``, taken over the field the search was built with;
    * ``projdim`` is the projective dimension of R/I over GF(prime), or
      Q when the prime is None.  A Lyubeznik ideal's is the length of
      its least minimal order, ``min_l``, over every field.  Otherwise
      it comes from the homology oracle's strands walked from the top
      level down (``oracle._projective_dimension``), which ranks only
      what the counts leave open and builds no Betti table.
      ``almost_lyubeznik`` compares ``min_l`` with it, so it holds on
      every Lyubeznik ideal without a call to the oracle.
    """

    stopped_early = False

    def __init__(self, ideal: MonomialIdeal, clutter: tuple[int, ...],
                 prime: int | None) -> None:
        self._ideal = ideal
        self._clutter = clutter
        self._field = prime
        self._short: dict[int, tuple[int, ...] | None] = {}

    @cached_property
    def scanned(self) -> int:
        return factorial(self._ideal.mu)

    @cached_property
    def _edges(self) -> PrefixWalk:
        walk = PrefixWalk(self._ideal, self._clutter)
        walk.count()
        return walk

    @property
    def minimal_count(self) -> int:
        return self._edges.count()

    @cached_property
    def _minimal(self) -> tuple[int, ...] | None:
        return self._edges.first()

    @property
    def lyubeznik(self) -> bool:
        """Some order gives a minimal resolution."""
        return self.minimal_count > 0

    @property
    def totally_lyubeznik(self) -> bool:
        """Every order gives a minimal resolution."""
        return self.minimal_count == factorial(self._ideal.mu)

    @cached_property
    def projdim(self) -> int:
        if self._minimal is not None:
            # a minimal resolution's length, over every field
            return self.min_l
        return _projective_dimension(self._ideal, prime=self._field)

    @property
    def almost_lyubeznik(self) -> bool:
        """The least resolution length meets the projective dimension."""
        return self.min_l == self.projdim

    @cached_property
    def _tobsl(self) -> tuple[int, tuple[int, ...]]:
        if self._minimal is not None:
            return 0, self._minimal
        # above the largest size no edge is left alive, so the climb
        # ends there at the latest, with the identity order
        for k in sorted({m.bit_count() for m in self._clutter}):
            above = sum(1 << i for i, m in enumerate(self._clutter)
                        if m.bit_count() > k)
            word = self._edges.first(alive=above)
            if word is not None:
                return k, word

    @property
    def tobsl(self) -> int:
        return self._tobsl[0]

    @property
    def tobsl_witness(self) -> tuple[int, ...]:
        return self._tobsl[1]

    def _at_most(self, k: int) -> tuple[int, ...] | None:
        """The least order of length at most k: one preserving no
        (k + 1)-set, found by a walk over every (k + 1)-set."""
        if k not in self._short:
            sets = np.flatnonzero(popcounts(self._ideal.mu) == k + 1)
            self._short[k] = PrefixWalk(self._ideal, sets.tolist()).first()
        return self._short[k]

    @cached_property
    def min_l(self) -> int:
        if self._minimal is not None:
            return l_length(OrderedIdeal(self._ideal, self._minimal))
        k = self.projdim
        while self._at_most(k) is None:
            k += 1
        return k

    @property
    def min_l_witness(self) -> tuple[int, ...]:
        return self._at_most(self.min_l)


def search_scan(ideal: MonomialIdeal, *,
                prime: int | None = None) -> SearchResult:
    """The aggregates of all mu! orders, each computed when first read.

    ``prime`` names the field of the search's ``projdim``: GF(prime),
    or Q when it is None.

    Answers up to the subset tables' bound, mu <= 16, and refuses above
    it with ``BoundExceededError`` before any table is built.  ``min_l``
    of an ideal that is not Lyubeznik walks every (k+1)-set for each
    length k it tries, climbing from the projective dimension; the
    walks settle a state as soon as an alive set is sure to be
    preserved, and build the rows of the prefix sets they read only
    (``prefix``).  ``tobsl`` climbs the clutter's edge sizes the same
    way, up to the largest, where no edge is left alive.
    """
    if prime is not None:
        check_prime(prime)
    return SearchResult(ideal, cover_table(ideal).clutter, prime)


def min_l_length(ideal: MonomialIdeal) -> tuple[int, OrderedIdeal]:
    """Minimum resolution length over all orders, with witness."""
    scan = search_scan(ideal)
    return scan.min_l, OrderedIdeal(ideal, scan.min_l_witness)


@dataclass(frozen=True)
class LyubeznikVerdict:
    """Outcome of the Lyubeznik-ideal test over all mu! orders.

    Iterating yields ``(verdict, witness)``.
    """

    verdict: bool
    witness: OrderedIdeal | None

    def __iter__(self):
        return iter((self.verdict, self.witness))


def is_lyubeznik(ideal: MonomialIdeal) -> LyubeznikVerdict:
    """Whether some order makes the Lyubeznik resolution minimal."""
    scan = search_scan(ideal)
    witness = (OrderedIdeal(ideal, scan.tobsl_witness) if scan.lyubeznik
               else None)
    return LyubeznikVerdict(scan.lyubeznik, witness)


def is_totally_lyubeznik(ideal: MonomialIdeal) -> bool:
    """Whether every order makes the Lyubeznik resolution minimal."""
    return search_scan(ideal).totally_lyubeznik


# ---------------------------------------------------------------------------
# ring-theoretic bounds


def height(ideal: MonomialIdeal) -> int:
    """Height: smallest variable set meeting every generator's support.

    The supports are bitmasks over the variables, read off the
    generators as they are: the radical's generators have the minimal
    ones among them, and a set meeting those meets the rest, so the
    radical is not formed.  Searched by branch and bound, depth first:
    a partial set branches on each variable of the smallest support it
    does not meet, since one of them must be chosen, and a branch stops
    once it cannot beat the smallest set found so far.  The variables of
    all supports together meet every support, which bounds the search
    at the start.  At worst it visits d^h partial sets, for supports of
    at most d variables and height h, each scanned against the supports.
    """
    supports = sorted({sum(1 << v for v, e in enumerate(m.exponents) if e)
                       for m in ideal.gens}, key=int.bit_count)
    best = 0
    for s in supports:
        best |= s
    best = best.bit_count()
    stack = [(0, 0)]
    while stack:
        chosen, size = stack.pop()
        if size >= best:
            continue
        # the smallest support the set does not meet yet
        unmet = next((s for s in supports if not s & chosen), 0)
        if not unmet:
            best = size
        elif size + 1 < best:
            while unmet:
                low = unmet & -unmet
                stack.append((chosen | low, size + 1))
                unmet ^= low
    return best


@dataclass(frozen=True)
class AraBounds:
    """Bounds on the arithmetical rank.  Iterating yields (lower, upper)."""

    lower: int
    upper: int
    equality: bool

    def __iter__(self):
        return iter((self.lower, self.upper))


def ara_bounds(ideal: MonomialIdeal, *,
               prime: int | None = None) -> AraBounds:
    """Lower and upper bounds on the arithmetical rank.

    The upper bound is the least resolution length over all orders (no
    face has more members than the generators, so it never exceeds
    their number).  The lower bound is the search's projective
    dimension of R/I for squarefree ideals (where it equals the
    cohomological dimension), and the height otherwise.  ``equality``
    flags bounds that pin the value exactly.
    """
    scan = search_scan(ideal, prime=prime)
    lower = scan.projdim if ideal.is_squarefree() else height(ideal)
    return AraBounds(lower, scan.min_l, lower == scan.min_l)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class InvariantReport:
    """Everything the analyzer knows about one (ideal, order) pair."""

    order: tuple[int, ...]
    minimal: bool
    obstruction: int
    l_length: int
    ps: int
    betti: BettiTable | None
    height: int
    ara: AraBounds
    lyubeznik: bool | None = None
    almost_lyubeznik: bool | None = None
    totally_lyubeznik: bool | None = None


def analyze(ordered: OrderedIdeal, *, search: bool = False,
            prime: int | None = None) -> InvariantReport:
    """Full per-order report, optionally with an order search on top.

    Without the search, the arithmetical-rank upper bound falls back to
    this order's resolution length (still valid, possibly loose), and
    the classification flags stay ``None``; a squarefree ideal's lower
    bound is the projective dimension, which a minimal order's length
    gives without the oracle.  With it, the bounds equal
    ``ara_bounds``: the upper bound is the least length, read off the
    same single search that decides the classification flags, and a
    squarefree ideal's lower bound is that search's ``projdim``.
    """
    if prime is not None:
        check_prime(prime)
    ideal = ordered.ideal
    obs = obstruction(ordered)
    minimal = obs == 0
    length = l_length(ordered)
    betti = _preserved_betti(ordered) if minimal else None
    ht = height(ideal)

    # one search and at most one projective dimension per call
    squarefree = ideal.is_squarefree()
    lyub = almost = totally = None
    if search:
        scan = search_scan(ideal, prime=prime)
        lyub, almost, totally = (scan.lyubeznik, scan.almost_lyubeznik,
                                 scan.totally_lyubeznik)
        best, projdim = scan.min_l, scan.projdim
    else:
        best = length
        # a minimal resolution's length is pd(R/I) over every field
        projdim = (None if not squarefree else length if minimal
                   else _projective_dimension(ideal, prime=prime))
    lower = projdim if squarefree else ht
    return InvariantReport(order=ordered.order, minimal=minimal,
                           obstruction=obs, l_length=length, ps=length,
                           betti=betti, height=ht,
                           ara=AraBounds(lower, best, lower == best),
                           lyubeznik=lyub, almost_lyubeznik=almost,
                           totally_lyubeznik=totally)
