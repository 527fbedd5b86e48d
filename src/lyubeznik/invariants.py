"""Minimality tests, Betti tables from preserved sets, and order searches.

Per-order quantities (is the Lyubeznik resolution minimal, its length,
the obstruction) are read off the order's preserved-set table,
``order_analysis(ordered)``, and the ideal's cover table in ``covers``:
the resolution is minimal iff no E-minimal cover is preserved.  The
checking routes (facet stability, the Python preserved-set DP, the
subset-sum closure) live in the tests.

An order search, ``search_scan``, yields the total obstruction, the
minimal length, the number of minimal orders and the Lyubeznik /
almost / totally Lyubeznik verdicts over all mu! orders, each witness
the lexicographically least order achieving its value, as one
``SearchResult``.  It never lists the orders: it answers each question
by walks over prefix sets (``prefix``) when the question is first read,
so that a caller pays only for what it reads.  The floor of its least
length is the projective dimension of R/I over the caller's field, so
that one call computes one, and it is the oracle's walk down the
Morse-reduced strands (``oracle._projective_dimension``), which builds
no Betti table.  Its checking route in the tests scans every order, a
block of orders at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import factorial

import numpy as np

from .betti import QUOTIENT, BettiTable
from .complexes import order_analysis
from .covers import cover_table
from .monomials import MonomialIdeal
from .oracle import _projective_dimension
from .orders import OrderedIdeal, identity_order
from .prefix import PrefixWalk
from .subsets import iter_bits, mask_of


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
    for mask, exps in zip(faces, analysis.tables.lcm_tuples(faces)):
        key = (mask.bit_count(), exps)
        counts[key] = counts.get(key, 0) + 1
    return BettiTable.from_multigraded(QUOTIENT, ideal.context, counts)


@dataclass(frozen=True)
class EquivalenceAudit:
    """The five minimality conditions, evaluated independently."""

    minimal: bool
    covers_unpreserved: bool
    cover_witness_condition: bool
    eminimal_covers_unpreserved: bool
    eminimal_witness_condition: bool

    @property
    def consistent(self) -> bool:
        return (self.minimal == self.covers_unpreserved ==
                self.cover_witness_condition ==
                self.eminimal_covers_unpreserved ==
                self.eminimal_witness_condition)


def equivalence_audit(ordered: OrderedIdeal) -> EquivalenceAudit:
    """Evaluate all five equivalent characterizations of minimality.

    The witness conditions are checked literally: for every (E-minimal)
    cover C there must be a non-empty D inside C whose complete cover
    reaches below min(D) — for the E-minimal variant, additionally via
    some v for which D plus v is an E-minimal cover of v.
    """
    emin_set = frozenset().union(*cover_table(ordered.ideal).by_generator)
    analysis = order_analysis(ordered)
    tables = analysis.tables
    cover_masks = np.flatnonzero(tables.covered_mask).tolist()

    def has_low_subset(cover: int, eminimal: bool) -> bool:
        sub = cover
        while sub:
            # a court of sub is an outside divisor ranked below min(sub)
            if analysis.court(sub):
                if not eminimal:
                    return True
                out = int(tables.divisor_mask[sub]) & ~sub
                if any(sub | (1 << v) in emin_set for v in iter_bits(out)):
                    return True
            sub = (sub - 1) & cover
        return False

    return EquivalenceAudit(
        minimal=is_minimal_resolution(ordered),
        covers_unpreserved=not any(analysis.preserved[m] for m in cover_masks),
        cover_witness_condition=all(has_low_subset(m, False)
                                    for m in cover_masks),
        eminimal_covers_unpreserved=not any(analysis.preserved[m]
                                            for m in emin_set),
        eminimal_witness_condition=all(has_low_subset(m, True)
                                       for m in emin_set),
    )


# ---------------------------------------------------------------------------
# order searches


class SearchResult:
    """The aggregates of all mu! orders of an ideal and the verdicts they
    settle, each computed when first read by ``prefix.PrefixWalk``
    searches, so that a caller pays only for what it reads: ``graph``
    the two verdicts, ``analyze`` no positive total obstruction.

    The search answers for every order without listing them: it is
    ``exact``, never ``stopped_early``, and ``scanned`` is mu!.
    Witnesses are permutation words, each the lexicographically least
    order achieving its value.

    * the clutter walk's count is ``minimal_count``; its least avoiding
      order is the zero-obstruction witness, and its least preserving
      order ``nonminimal_witness`` (None when every order is minimal).
      Both witnesses descend along the count's memo, which is quicker
      than searching without it, so the clutter walk is counted as soon
      as it is built;
    * a positive ``tobsl`` is the least edge size k at which some order
      preserves no clutter edge larger than k, tried k ascending;
    * an order's length is at most k exactly when it preserves no
      (k + 1)-set.  No order is shorter than the projective dimension
      of R/I, and minimal orders reach it, so a Lyubeznik ideal's
      ``min_l`` is its minimal witness's length.  Otherwise ``min_l``
      is the projective dimension if some order reaches it, which
      settles most ideals with one search, and else the search
      descends one length at a time from the identity order's while
      some order is shorter.  A Lyubeznik resolution is free over every
      field, so the floor may be the projective dimension over any: it
      is taken over GF(``_prime``), or Q while ``_prime`` is None, from
      the homology oracle's strands walked from the top level down
      (``oracle._projective_dimension``, through ``_projdim``), which
      ranks only what the counts leave open and builds no Betti table.
    """

    exact = True
    stopped_early = False
    _prime: int | None = None

    def __init__(self, ideal: MonomialIdeal, clutter: tuple[int, ...]) -> None:
        self.ideal = ideal
        self._clutter = clutter
        self._short: dict[int, tuple[int, ...] | None] = {}

    @cached_property
    def scanned(self) -> int:
        return factorial(self.ideal.mu)

    @cached_property
    def _edges(self) -> PrefixWalk:
        walk = PrefixWalk(self.ideal, self._clutter)
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
        return self._minimal is not None

    @cached_property
    def nonminimal_witness(self) -> tuple[int, ...] | None:
        return self._edges.first(avoid=False)

    @property
    def totally_lyubeznik(self) -> bool:
        """Every order gives a minimal resolution."""
        return self.nonminimal_witness is None

    def almost_lyubeznik(self, projdim: int) -> bool:
        """The least resolution length meets ``projdim``, the projective
        dimension of R/I."""
        return self.min_l == projdim

    @cached_property
    def _tobsl(self) -> tuple[int, tuple[int, ...]]:
        if self._minimal is not None:
            return 0, self._minimal
        sizes = sorted({m.bit_count() for m in self._clutter})
        for k in sizes[:-1]:
            above = [m for m in self._clutter if m.bit_count() > k]
            word = PrefixWalk(self.ideal, above).first()
            if word is not None:
                return k, word
        # every order preserves an edge of the largest size
        return sizes[-1], identity_order(self.ideal).order

    @property
    def tobsl(self) -> int:
        return self._tobsl[0]

    @property
    def tobsl_witness(self) -> tuple[int, ...]:
        return self._tobsl[1]

    def _at_most(self, k: int) -> tuple[int, ...] | None:
        """The least order of length at most k: one preserving no
        (k + 1)-set."""
        if k not in self._short:
            sets = [mask_of(c) for c in combinations(self.ideal.indices(),
                                                     k + 1)]
            self._short[k] = PrefixWalk(self.ideal, sets).first()
        return self._short[k]

    @cached_property
    def min_l(self) -> int:
        if self._minimal is not None:
            return l_length(OrderedIdeal(self.ideal, self._minimal))
        floor = _projdim(self.ideal, self._prime)
        if self._at_most(floor) is not None:
            return floor
        best = l_length(identity_order(self.ideal))
        while best - 1 > floor and self._at_most(best - 1) is not None:
            best -= 1
        return best

    @property
    def min_l_witness(self) -> tuple[int, ...]:
        return self._at_most(self.min_l)


def search_scan(ideal: MonomialIdeal) -> SearchResult:
    """The aggregates of all mu! orders, each computed when first read.

    Answers up to the subset tables' bound, mu <= 16, and refuses above
    it with ``BoundExceededError`` before any table is built.  The
    clutter walk and its verdicts stay quick there, but ``min_l`` of an
    ideal that is not Lyubeznik walks every (k+1)-set for each length k
    it tries: at mu 13-16 that can take minutes and gigabytes (at mu 14
    one such read has taken 92 s and 5.8 GiB).
    """
    return SearchResult(ideal, cover_table(ideal).clutter)


def total_obstruction(ideal: MonomialIdeal) -> tuple[int, OrderedIdeal]:
    """Minimum obstruction over all orders, with its lexicographically
    least witness."""
    scan = search_scan(ideal)
    return scan.tobsl, OrderedIdeal(ideal, scan.tobsl_witness)


def min_l_length(ideal: MonomialIdeal) -> tuple[int, OrderedIdeal]:
    """Minimum resolution length over all orders, with witness."""
    scan = search_scan(ideal)
    return scan.min_l, OrderedIdeal(ideal, scan.min_l_witness)


@dataclass(frozen=True)
class LyubeznikVerdict:
    """Outcome of the Lyubeznik-ideal test over all ``scanned`` orders.

    Iterating yields ``(verdict, witness)``.
    """

    verdict: bool
    witness: OrderedIdeal | None
    exact: bool
    scanned: int

    def __iter__(self):
        return iter((self.verdict, self.witness))


def is_lyubeznik(ideal: MonomialIdeal) -> LyubeznikVerdict:
    """Whether some order makes the Lyubeznik resolution minimal."""
    scan = search_scan(ideal)
    witness = (OrderedIdeal(ideal, scan.tobsl_witness) if scan.lyubeznik
               else None)
    return LyubeznikVerdict(scan.lyubeznik, witness, scan.exact, scan.scanned)


def is_totally_lyubeznik(ideal: MonomialIdeal) -> bool:
    """Whether every order makes the Lyubeznik resolution minimal."""
    return search_scan(ideal).totally_lyubeznik


# one entry: a call reads one ideal's projective dimension, both as a
# bound and as the floor of an exhaustive search's least length
@lru_cache(maxsize=1)
def _projdim(ideal: MonomialIdeal, prime: int | None) -> int:
    return _projective_dimension(ideal, prime=prime)


def is_almost_lyubeznik(ideal: MonomialIdeal, *,
                        prime: int | None = None) -> bool:
    """Whether the best resolution length meets the projective dimension."""
    scan = search_scan(ideal)
    scan._prime = prime
    return scan.almost_lyubeznik(_projdim(ideal, prime))


# ---------------------------------------------------------------------------
# ring-theoretic bounds


def height(ideal: MonomialIdeal) -> int:
    """Height: smallest variable set meeting every generator's support.

    The supports are bitmasks over the variables, read off the
    generators as they are: the radical's generators have the minimal
    ones among them, and a set meeting those meets the rest, so the
    radical is not formed.  Searched by increasing size.
    """
    supports = {sum(1 << v for v, e in enumerate(m.exponents) if e)
                for m in ideal.gens}
    universe = [1 << v for v in range(len(ideal.context))
                if any(s >> v & 1 for s in supports)]
    for k in range(1, len(universe) + 1):
        for combo in combinations(universe, k):
            chosen = sum(combo)
            if all(chosen & s for s in supports):
                return k
    return len(universe)


@dataclass(frozen=True)
class AraBounds:
    """Bounds on the arithmetical rank.  Iterating yields (lower, upper)."""

    lower: int
    upper: int
    equality: bool

    def __iter__(self):
        return iter((self.lower, self.upper))


def _ara(ideal: MonomialIdeal, lower: int, best: int) -> AraBounds:
    """Ara bounds from a lower bound and the least resolution length
    found; the upper bound is min(best, number of generators)."""
    upper = min(best, ideal.mu)
    return AraBounds(lower, upper, lower == upper)


def ara_bounds(ideal: MonomialIdeal, *,
               prime: int | None = None) -> AraBounds:
    """Lower and upper bounds on the arithmetical rank.

    The upper bound is min(best resolution length, number of
    generators).  The lower bound is the projective dimension of R/I
    for squarefree ideals (where it equals the cohomological
    dimension), and the height otherwise.  ``equality`` flags bounds
    that pin the value exactly.
    """
    lower = _projdim(ideal, prime) if ideal.is_squarefree() else height(ideal)
    scan = search_scan(ideal)
    scan._prime = prime
    return _ara(ideal, lower, scan.min_l)


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
    the classification flags stay ``None``.  With it, the bounds equal
    ``ara_bounds``, read off the same single search that decides the
    classification flags.
    """
    ideal = ordered.ideal
    obs = obstruction(ordered)
    minimal = obs == 0
    length = l_length(ordered)
    betti = _preserved_betti(ordered) if minimal else None
    ht = height(ideal)

    # one search and at most one homology computation per call
    squarefree = ideal.is_squarefree()
    projdim = _projdim(ideal, prime) if squarefree else None
    best = length
    lyub = almost = totally = None
    if search:
        scan = search_scan(ideal)
        scan._prime = prime
        lyub, totally = scan.lyubeznik, scan.totally_lyubeznik
        if projdim is None:
            projdim = _projdim(ideal, prime)
        almost = scan.almost_lyubeznik(projdim)
        best = scan.min_l
    return InvariantReport(order=ordered.order, minimal=minimal,
                           obstruction=obs, l_length=length, ps=length,
                           betti=betti, height=ht,
                           ara=_ara(ideal, projdim if squarefree else ht,
                                    best),
                           lyubeznik=lyub, almost_lyubeznik=almost,
                           totally_lyubeznik=totally)
