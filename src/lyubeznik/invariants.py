"""Minimality tests, Betti tables from preserved sets, and order searches.

Per-order quantities (is the Lyubeznik resolution minimal, its length,
the obstruction) are read off the order's preserved-set table,
``order_analysis(ordered)``, and the ideal's cover table in ``covers``:
the resolution is minimal iff no E-minimal cover is preserved.  The
checking routes (facet stability, the Python preserved-set DP, the
subset-sum closure) live in the tests.

An order search, ``search_scan``, yields the total obstruction, the
minimal length, the number of minimal orders and the Lyubeznik /
almost / totally Lyubeznik verdicts, each witness the lexicographically
least order achieving its value, as one ``SearchResult``.  There are
two routes:

* the exhaustive search never lists the mu! orders.  Its result is a
  ``_PrefixSearch``, which answers each question by walks over prefix
  sets (``prefix``) when the question is first read, so that a caller
  pays only for what it reads.  It is exact, never stopped early, and
  counts all mu! orders as scanned;
* the courts-first heuristic scans its stream of orders.  The words of
  ``orders.orders_for_search`` are joined into int8 blocks of
  ``DEFAULT_CHUNK`` orders, optionally scanned by ``--jobs`` worker
  processes and merged in stream order, and ``_BlockScanner`` runs
  ``complexes.PreservedKernel`` on each block.  The length and the
  obstruction of every order are read off the bit-packed unpreserved
  sets it returns, by ANDs over the packed words; only one bit per
  (size, order) is unpacked.  A stop policy may end the scan early.
  The same scan over all mu! orders is the checking route of the
  prefix search in the tests.
"""

from __future__ import annotations

from collections import deque
from contextlib import closing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from itertools import combinations, islice
from math import factorial
from typing import Iterator, Sequence

import numpy as np

from .betti import QUOTIENT, BettiTable
from .complexes import PreservedKernel, order_analysis
from .covers import cover_table
from .monomials import MonomialIdeal, radical_ideal, support
from .oracle import taylor_betti
from .orders import (DEFAULT_MAX_EXHAUSTIVE, OrderedIdeal, identity_order,
                     orders_for_search, search_courts)
from .prefix import PrefixWalk
from .subsets import iter_bits, mask_of, popcounts, tables_for

DEFAULT_CHUNK = 4096


class NotMinimalError(ValueError):
    """Preserved-set counts were requested for a non-minimal resolution."""


# ---------------------------------------------------------------------------
# per-order invariants


def is_minimal_resolution(ordered: OrderedIdeal) -> bool:
    """Whether the Lyubeznik resolution of this order is minimal: no
    E-minimal cover is preserved."""
    preserved = order_analysis(ordered).preserved
    return not any(preserved[m] for m in cover_table(ordered.ideal).eminimal)


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
    lcm_exps = analysis.tables.lcm_exps
    zero = (0,) * len(ideal.context)
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for mask in analysis.faces:
        key = (mask.bit_count(), lcm_exps[mask] if mask else zero)
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
    emin_masks = cover_table(ordered.ideal).eminimal
    analysis = order_analysis(ordered)
    tables = analysis.tables
    cover_masks = [m for m in range(1, tables.size) if tables.covered_mask[m]]
    emin_set = frozenset(emin_masks)

    def has_low_subset(cover: int, eminimal: bool) -> bool:
        sub = cover
        while sub:
            # a court of sub is an outside divisor ranked below min(sub)
            if analysis.court[sub]:
                if not eminimal:
                    return True
                out = tables.outside_mask[sub]
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
                                            for m in emin_masks),
        eminimal_witness_condition=all(has_low_subset(m, True)
                                       for m in emin_masks),
    )


# ---------------------------------------------------------------------------
# order searches


@dataclass(frozen=True)
class SearchResult:
    """Aggregates of a search over a stream of orders, and the verdicts
    they settle.

    ``exact`` records whether the stream covered all orders;
    ``stopped_early`` whether an early-exit policy cut the scan short;
    ``scanned`` how many orders the aggregates cover.  An exhaustive
    search is exact, never stopped early, and covers all mu! orders.
    Witnesses are permutation words, always the lexicographically least
    achieving their value among the scanned prefix.  Each verdict is
    True or False where the search settles it and None where it cannot.
    """

    mode: str
    exact: bool
    scanned: int
    stopped_early: bool
    tobsl: int
    tobsl_witness: tuple[int, ...]
    min_l: int
    min_l_witness: tuple[int, ...]
    minimal_count: int
    nonminimal_witness: tuple[int, ...] | None

    @property
    def lyubeznik(self) -> bool | None:
        """Some order gives a minimal resolution; refuting it takes a
        scan of every order (a heuristic cannot certify failure)."""
        if self.tobsl == 0:
            return True
        return False if self.exact and not self.stopped_early else None

    @property
    def totally_lyubeznik(self) -> bool | None:
        """Every order gives a minimal resolution; None on a heuristic
        stream, even when it holds a non-minimal order."""
        if not self.exact or (self.stopped_early
                              and self.nonminimal_witness is None):
            return None
        return self.nonminimal_witness is None

    def almost_lyubeznik(self, projdim: int) -> bool | None:
        """The least resolution length meets ``projdim``, the projective
        dimension of R/I; None unless every order was scanned."""
        if self.exact and not self.stopped_early:
            return self.min_l == projdim
        return None


class _BlockScanner:
    """Per-order invariants of blocks of words for one ideal.

    The unpreserved sets come bit packed from ``PreservedKernel``, and
    both invariants are ANDs over them that are unpacked only at the
    end, one bit per (row, order):

    * length: the preserved sets are closed under taking subsets, so an
      order's length is the number of sizes k >= 1 at which some k-set
      is preserved.  The masks are gathered sorted by popcount and one
      ``np.bitwise_and.reduceat`` over the size levels says, per order,
      whether every k-set is unpreserved;
    * obstruction: the largest edge size k of the cover clutter at which
      not every k-edge is unpreserved, by one AND over each size's edges.
    """

    def __init__(self, ideal: MonomialIdeal) -> None:
        tables = tables_for(ideal)
        self.kernel = PreservedKernel(tables.outside_mask)
        mu = self.kernel.mu
        popcount = popcounts(mu)
        self.by_size = np.argsort(popcount, kind="stable")
        self.level_starts = np.searchsorted(popcount[self.by_size],
                                            np.arange(1, mu + 1))
        by_size: dict[int, list[int]] = {}
        for m in cover_table(ideal).clutter:
            by_size.setdefault(m.bit_count(), []).append(m)
        self.clutter = [np.array(edges, np.intp)
                        for _, edges in sorted(by_size.items())]
        self.clutter_sizes = np.array(sorted(by_size), np.int8)[:, None]

    def __call__(self, words: Sequence[tuple[int, ...]] | np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(obstruction, length, minimal) arrays indexed like ``words``.

        ``words`` is a sequence of permutation words or an int8 array of
        shape (count, mu).
        """
        word_arr = np.asarray(words, np.int8).reshape(-1, self.kernel.mu)
        mu, count = self.kernel.mu, len(word_arr)
        _, _, unpreserved = self.kernel(word_arr)
        # bit rows 0 .. mu-1: every set of size 1 .. mu is unpreserved;
        # then one row per clutter edge size: every such edge is
        levels = np.bitwise_and.reduceat(unpreserved[self.by_size],
                                         self.level_starts, axis=0)
        rows = [levels] + [np.bitwise_and.reduce(unpreserved[edges], axis=0,
                                                 keepdims=True)
                           for edges in self.clutter]
        bits = np.unpackbits(np.concatenate(rows).view(np.uint8), axis=1,
                             count=count)
        lengths = mu - bits[:mu].sum(axis=0, dtype=np.int8)
        if self.clutter:
            obs = (self.clutter_sizes * (bits[mu:] == 0)).max(axis=0)
        else:
            obs = np.zeros(count, np.int8)
        return obs, lengths, obs == 0


# one entry, like the per-ideal tables: a worker process scans blocks
# of one ideal, and the scanner holds that ideal's kernel scratch
@lru_cache(maxsize=1)
def _scanner_for(ideal: MonomialIdeal) -> _BlockScanner:
    return _BlockScanner(ideal)


def _scan_words(ideal: MonomialIdeal, words: Sequence[tuple[int, ...]] | np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-order invariants of one block of words: see ``_BlockScanner``.

    The ``--jobs`` workers run this on every block they receive, so the
    scanner is built once per worker and ideal.
    """
    return _scanner_for(ideal)(words)


# stop policies of search_scan: whether the scan so far settles its question
_STOPS = {
    None: lambda scan: False,
    "zero-obstruction": lambda scan: scan.tobsl == 0,
}


def _merge(scan: SearchResult, words: np.ndarray,
           result: tuple[np.ndarray, np.ndarray, np.ndarray]) -> SearchResult:
    """``scan`` extended by the next block of words and their invariants;
    a witness changes only when the block holds a strictly lower value."""
    obs, lengths, minimal = result
    j, k = int(np.argmin(obs)), int(np.argmin(lengths))
    changes = {"scanned": scan.scanned + len(words),
               "minimal_count": scan.minimal_count + int(minimal.sum())}
    if obs[j] < scan.tobsl:
        changes.update(tobsl=int(obs[j]), tobsl_witness=tuple(words[j].tolist()))
    if lengths[k] < scan.min_l:
        changes.update(min_l=int(lengths[k]),
                       min_l_witness=tuple(words[k].tolist()))
    if scan.nonminimal_witness is None and not minimal.all():
        changes["nonminimal_witness"] = tuple(
            words[int(np.argmin(minimal))].tolist())
    return replace(scan, **changes)


def _word_blocks(words: Iterator[bytes], mu: int,
                 chunk_size: int) -> Iterator[np.ndarray]:
    """Consecutive chunks of a word stream as int8 (count, mu) arrays."""
    while True:
        data = b"".join(islice(words, chunk_size))
        if not data:
            return
        yield np.frombuffer(data, np.int8).reshape(-1, mu)


def _scanned_blocks(ideal: MonomialIdeal, blocks: Iterator[np.ndarray],
                    jobs: int) -> Iterator[tuple[np.ndarray, tuple]]:
    """(block, per-order invariants) pairs in stream order, scanned here
    or by a pool of ``jobs`` workers with ``jobs + 2`` blocks in flight;
    closing the generator cancels the blocks not yet read."""
    if jobs == 1:
        scanner = _BlockScanner(ideal)
        for words in blocks:
            yield words, scanner(words)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending: deque = deque()
        try:
            for words in blocks:
                pending.append((words, pool.submit(_scan_words, ideal, words)))
                if len(pending) >= jobs + 2:
                    words, future = pending.popleft()
                    yield words, future.result()
            while pending:
                words, future = pending.popleft()
                yield words, future.result()
        finally:
            for _, future in pending:
                future.cancel()


class _PrefixSearch(SearchResult):
    """The ``SearchResult`` of all mu! orders, each aggregate computed
    when first read, by ``prefix.PrefixWalk`` searches.

    The fields are properties here, so a caller pays only for what it
    reads: ``graph`` the two verdicts, ``analyze`` no positive total
    obstruction.

    * the clutter walk's count is ``minimal_count``; its least avoiding
      order is the zero-obstruction witness, and its least preserving
      order ``nonminimal_witness``.  Both witnesses descend along the
      count's memo, which is quicker than searching without it, so the
      clutter walk is counted as soon as it is built;
    * a positive ``tobsl`` is the least edge size k at which some order
      preserves no clutter edge larger than k, tried k ascending;
    * an order's length is at most k exactly when it preserves no
      (k + 1)-set.  No order is shorter than the projective dimension
      of R/I, and minimal orders reach it, so a Lyubeznik ideal's
      ``min_l`` is its minimal witness's length.  Otherwise ``min_l``
      is the projective dimension if some order reaches it, which
      settles most ideals with one search, and else the search
      descends one length at a time from the identity order's while
      some order is shorter.
    """

    mode = "exhaustive"
    exact = True
    stopped_early = False

    def __init__(self, ideal: MonomialIdeal) -> None:
        self.ideal = ideal
        self._short: dict[int, tuple[int, ...] | None] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchResult):
            return NotImplemented
        return all(getattr(self, f.name) == getattr(other, f.name)
                   for f in fields(SearchResult))

    @cached_property
    def scanned(self) -> int:
        return factorial(self.ideal.mu)

    @cached_property
    def _clutter(self) -> tuple[int, ...]:
        return cover_table(self.ideal).clutter

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
        return self._minimal is not None

    @cached_property
    def nonminimal_witness(self) -> tuple[int, ...] | None:
        return self._edges.first(avoid=False)

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
        floor = _projdim(self.ideal, None)
        if self._at_most(floor) is not None:
            return floor
        best = l_length(identity_order(self.ideal))
        while best - 1 > floor and self._at_most(best - 1) is not None:
            best -= 1
        return best

    @property
    def min_l_witness(self) -> tuple[int, ...]:
        return self._at_most(self.min_l)


def search_scan(ideal: MonomialIdeal, mode: str = "exhaustive", *,
                max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE, jobs: int = 1,
                chunk_size: int = DEFAULT_CHUNK,
                stop_when: str | None = None) -> SearchResult:
    """The aggregates of the orders a search mode covers.

    The exhaustive search answers for all mu! orders by prefix-set
    search, each aggregate when first read: it is exact, never stopped
    early, and ``scanned`` is mu!.  The courts-first stream is scanned
    in blocks of ``chunk_size`` orders, by ``jobs`` worker processes
    when more than one, and ``stop_when="zero-obstruction"`` ends that
    scan once a minimal order is found (its witness is then exact).
    Blocks are merged in stream order regardless of
    ``jobs``, so every output is deterministic.  Pass
    ``max_exhaustive=ideal.mu`` to search every order of any ideal.
    """
    if stop_when not in _STOPS:
        raise ValueError(f"unknown stop policy {stop_when!r}")
    if jobs < 1 or chunk_size < 1:
        raise ValueError(f"jobs and chunk_size must be at least 1, got "
                         f"jobs={jobs}, chunk_size={chunk_size}")
    if mode == "exhaustive":
        search_courts(ideal, mode, max_exhaustive=max_exhaustive)
        return _PrefixSearch(ideal)
    return _scan(ideal, mode, max_exhaustive=max_exhaustive, jobs=jobs,
                 chunk_size=chunk_size, stop_when=stop_when)


def _scan(ideal: MonomialIdeal, mode: str, *, max_exhaustive: int, jobs: int,
          chunk_size: int, stop_when: str | None) -> SearchResult:
    """Scan a mode's stream block by block and aggregate per-order
    invariants."""
    stream, exact = orders_for_search(ideal, mode,
                                      max_exhaustive=max_exhaustive)
    settled = _STOPS[stop_when]
    # no obstruction or length exceeds mu: mu + 1 is above every value
    scan = SearchResult(mode=mode, exact=exact, scanned=0, stopped_early=False,
                        tobsl=ideal.mu + 1, tobsl_witness=(),
                        min_l=ideal.mu + 1, min_l_witness=(), minimal_count=0,
                        nonminimal_witness=None)
    blocks = _word_blocks(stream, ideal.mu, chunk_size)
    with closing(_scanned_blocks(ideal, blocks, jobs)) as pairs:
        for words, result in pairs:
            scan = _merge(scan, words, result)
            if settled(scan):
                scan = replace(scan, stopped_early=True)
                break
    if scan.scanned == 0:
        raise RuntimeError("order stream was empty")
    return scan


def total_obstruction(ideal: MonomialIdeal, search_mode: str = "exhaustive", *,
                      max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
                      jobs: int = 1) -> tuple[int, OrderedIdeal]:
    """Minimum obstruction over the searched orders, with its witness.

    Exact under exhaustive search; under the courts-first heuristic the
    value is only an upper bound (unless the stream was complete).  The
    witness is the lexicographically least minimizing order.
    """
    scan = search_scan(ideal, search_mode, max_exhaustive=max_exhaustive,
                       jobs=jobs, stop_when="zero-obstruction")
    return scan.tobsl, OrderedIdeal(ideal, scan.tobsl_witness)


def min_l_length(ideal: MonomialIdeal, search_mode: str = "exhaustive", *,
                 max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE, jobs: int = 1
                 ) -> tuple[int, OrderedIdeal]:
    """Minimum resolution length over the searched orders, with witness."""
    scan = search_scan(ideal, search_mode, max_exhaustive=max_exhaustive,
                       jobs=jobs)
    return scan.min_l, OrderedIdeal(ideal, scan.min_l_witness)


@dataclass(frozen=True)
class LyubeznikVerdict:
    """Outcome of the Lyubeznik-ideal test.

    ``verdict`` is ``None`` when a heuristic scan found no minimal
    order: the heuristic can certify success but not failure.
    Iterating yields ``(verdict, witness)``.
    """

    verdict: bool | None
    witness: OrderedIdeal | None
    mode: str
    exact: bool
    scanned: int

    def __iter__(self):
        return iter((self.verdict, self.witness))


def is_lyubeznik(ideal: MonomialIdeal, search_mode: str = "exhaustive", *,
                 max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
                 jobs: int = 1) -> LyubeznikVerdict:
    """Whether some order makes the Lyubeznik resolution minimal."""
    scan = search_scan(ideal, search_mode, max_exhaustive=max_exhaustive,
                       jobs=jobs, stop_when="zero-obstruction")
    witness = (OrderedIdeal(ideal, scan.tobsl_witness) if scan.lyubeznik
               else None)
    return LyubeznikVerdict(scan.lyubeznik, witness, scan.mode, scan.exact,
                            scan.scanned)


def is_totally_lyubeznik(ideal: MonomialIdeal, *,
                         max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE
                         ) -> bool:
    """Whether every order makes the Lyubeznik resolution minimal."""
    return search_scan(ideal, "exhaustive",
                       max_exhaustive=max_exhaustive).totally_lyubeznik


# one entry: a call reads one ideal's projective dimension, both as a
# bound and as the floor of an exhaustive search's least length
@lru_cache(maxsize=1)
def _projdim(ideal: MonomialIdeal, prime: int | None) -> int:
    return taylor_betti(ideal, prime=prime).projective_dimension


def is_almost_lyubeznik(ideal: MonomialIdeal, *,
                        max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
                        prime: int | None = None) -> bool:
    """Whether the best resolution length meets the projective dimension."""
    scan = search_scan(ideal, "exhaustive", max_exhaustive=max_exhaustive)
    return scan.almost_lyubeznik(_projdim(ideal, prime))


# ---------------------------------------------------------------------------
# ring-theoretic bounds


def height(ideal: MonomialIdeal) -> int:
    """Height: smallest variable set meeting every generator's support.

    Computed on the radical (the support hypergraph is the same) by
    increasing-size exhaustive search.
    """
    supports = [support(m) for m in radical_ideal(ideal).gens]
    universe = sorted(set().union(*supports))
    for k in range(1, len(universe) + 1):
        for combo in combinations(universe, k):
            chosen = set(combo)
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


def ara_bounds(ideal: MonomialIdeal, search_mode: str = "exhaustive", *,
               max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE, jobs: int = 1,
               prime: int | None = None) -> AraBounds:
    """Lower and upper bounds on the arithmetical rank.

    The upper bound is min(best resolution length, number of
    generators).  The lower bound is the projective dimension of R/I
    for squarefree ideals (where it equals the cohomological
    dimension), and the height otherwise.  ``equality`` flags bounds
    that pin the value exactly.
    """
    # the lower bound first: the oracle refuses before a long scan
    lower = _projdim(ideal, prime) if ideal.is_squarefree() else height(ideal)
    scan = search_scan(ideal, search_mode, max_exhaustive=max_exhaustive,
                       jobs=jobs)
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


def analyze(ordered: OrderedIdeal, *, search_mode: str | None = None,
            max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE, jobs: int = 1,
            prime: int | None = None) -> InvariantReport:
    """Full per-order report, optionally with an order search on top.

    Without a search mode, the arithmetical-rank upper bound falls back
    to this order's resolution length (still valid, possibly loose),
    and the classification flags stay ``None``.  With one, the bounds
    equal ``ara_bounds`` for that mode, read off the same single scan
    that decides the classification flags.
    """
    ideal = ordered.ideal
    minimal = is_minimal_resolution(ordered)
    obs = obstruction(ordered)
    length = l_length(ordered)
    betti = _preserved_betti(ordered) if minimal else None
    ht = height(ideal)

    # one scan and at most one homology computation per call; the
    # squarefree oracle call comes first, as it does in ara_bounds
    squarefree = ideal.is_squarefree()
    projdim = _projdim(ideal, prime) if squarefree else None
    best = length
    lyub = almost = totally = None
    if search_mode is not None:
        scan = search_scan(ideal, search_mode, max_exhaustive=max_exhaustive,
                           jobs=jobs)
        lyub, totally = scan.lyubeznik, scan.totally_lyubeznik
        if scan.exact:
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
