"""Minimality tests, Betti tables from preserved sets, and order searches.

Per-order quantities (is the Lyubeznik resolution minimal, its length,
the largest preserved set, the obstruction) are computed by two
independent routes wherever the theory promises an identity, and a
disagreement raises ``RuntimeError`` rather than silently trusting
either side:

* minimality: every facet of the complex is stable, versus no
  E-minimal cover (read from the ideal's cover table in ``covers``) is
  preserved;
* length: largest face of the complex (downward-closed DP), versus the
  largest preserved set found by up-closing the broken sets with a
  subset-sum transform.  Both routes read the order's one broken-set
  table, ``order_analysis(ordered).court``, as the scanner's two routes
  share one broken array.

Order searches (total obstruction, minimal length, Lyubeznik /
almost / totally Lyubeznik classification) scan permutation words in
lexicographic order so witnesses are reproducible, optionally in
parallel.  The scanner packs the words into int8 blocks of
``DEFAULT_CHUNK`` orders and evaluates a whole block with array
operations over one row per subset mask: minimum ranks by doubling
over the bits, broken sets by one gather against the outside masks,
and then both length routes per order.  Route one is the face DP run
level by level over subset size, each set checked against its
one-smaller subsets; route two up-closes the broken sets bit by bit
(the zeta transform over the subset lattice).  The two lengths are
compared on every block.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .betti import QUOTIENT, BettiTable
from .complexes import is_stable_symbol, lyubeznik_complex, order_analysis, symbol_of
from .covers import cover_table
from .monomials import MonomialIdeal, radical_ideal, support
from .oracle import taylor_betti
from .orders import (DEFAULT_MAX_EXHAUSTIVE, OrderedIdeal, orders_for_search)
from .subsets import iter_bits, tables_for

DEFAULT_CHUNK = 4096


class NotMinimalError(ValueError):
    """Preserved-set counts were requested for a non-minimal resolution."""


# ---------------------------------------------------------------------------
# per-order invariants


def is_minimal_resolution(ordered: OrderedIdeal) -> bool:
    """Whether the Lyubeznik resolution of this order is minimal.

    Route one checks that every facet of the complex is a stable
    symbol; route two checks that no E-minimal cover is preserved.
    Both are computed and must agree.
    """
    ideal = ordered.ideal
    eminimal = cover_table(ideal).eminimal
    analysis = order_analysis(ordered)
    via_covers = not any(analysis.preserved[m] for m in eminimal)
    complex_ = lyubeznik_complex(ordered)
    via_facets = all(is_stable_symbol(symbol_of(f, ordered), ideal)
                     for f in complex_.facets)
    if via_facets != via_covers:
        raise RuntimeError(
            "internal disagreement: facet stability says "
            f"{via_facets}, preserved E-minimal covers say {via_covers}")
    return via_facets


def obstruction(ordered: OrderedIdeal) -> int:
    """Largest preserved element of the E-minimal cover clutter, else 0."""
    clutter = cover_table(ordered.ideal).clutter
    preserved = order_analysis(ordered).preserved
    return max((m.bit_count() for m in clutter if preserved[m]), default=0)


def l_length(ordered: OrderedIdeal) -> int:
    """Length of the Lyubeznik resolution: the largest face size."""
    preserved = order_analysis(ordered).preserved
    return max(m.bit_count() for m, face in enumerate(preserved) if face)


def preserved_size(ordered: OrderedIdeal) -> int:
    """Largest preserved subset, computed without the face machinery.

    The broken sets (the order's court table) are closed upward with a
    bitwise subset-sum transform; the answer is the largest subset that
    never lands in the closure.  Must equal ``l_length``, which reads
    the face DP over the same court table (checked wholesale by the
    test suite and per order by the search scanner).
    """
    analysis = order_analysis(ordered)
    size = analysis.tables.size
    bad = bytearray(map(bool, analysis.court))
    for b in range(analysis.tables.mu):
        bit = 1 << b
        for mask in range(size):
            if mask & bit and bad[mask ^ bit]:
                bad[mask] = 1
    return max(m.bit_count() for m in range(size) if not bad[m])


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
    tables = tables_for(ideal)
    analysis = order_analysis(ordered)
    zero = (0,) * len(ideal.context)
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for mask in range(tables.size):
        if analysis.preserved[mask]:
            exps = tables.lcm_exps[mask] if mask else zero
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
    """Aggregates of a scan over a stream of orders.

    ``exact`` records whether the stream covered all orders;
    ``stopped_early`` whether an early-exit policy cut the scan short.
    Witnesses are permutation words, always the lexicographically least
    achieving their value among the scanned prefix.
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


class _ScanPlan:
    """Order-free index arrays that drive ``_BlockScanner`` for one ideal.

    ``outside[mask]`` is the tables' ``outside_mask``.  The face DP keeps
    its rows in level order (by popcount, then by value) so that each
    level is one contiguous slice: ``natural[r]`` is the mask at row r,
    ``levels[k]`` the slice of the k-element masks, and ``subsets[k]``
    the rows of their one-smaller subsets, one column per member.  The
    cover clutter is grouped by edge size, as level-order rows.
    """

    __slots__ = ("mu", "outside", "natural", "levels", "subsets", "clutter")

    def __init__(self, ideal: MonomialIdeal) -> None:
        tables = tables_for(ideal)
        mu, size = tables.mu, tables.size
        sizes = [bin(m).count("1") for m in range(size)]
        natural = sorted(range(size), key=lambda m: (sizes[m], m))
        position = [0] * size
        for row, mask in enumerate(natural):
            position[mask] = row
        self.mu = mu
        self.outside = np.array(tables.outside_mask, np.intp)
        self.natural = np.array(natural, np.intp)
        self.levels = []
        self.subsets = []
        start = 0
        for k in range(mu + 1):
            stop = start + comb(mu, k)
            self.levels.append(slice(start, stop))
            self.subsets.append(np.array(
                [[position[m ^ (1 << b)] for b in iter_bits(m)]
                 for m in natural[start:stop]], np.intp).reshape(stop - start, k))
            start = stop
        by_size: dict[int, list[int]] = {}
        for m in cover_table(ideal).clutter:
            by_size.setdefault(sizes[m], []).append(position[m])
        self.clutter = [(k, np.array(rows, np.intp))
                        for k, rows in sorted(by_size.items())]


# one entry: a command reads one ideal, and more entries would hold
# 2^mu tables for every ideal a process has seen
@lru_cache(maxsize=1)
def _scan_plan(ideal: MonomialIdeal) -> _ScanPlan:
    return _ScanPlan(ideal)


class _BlockScanner:
    """Vectorized per-order invariants of blocks of words for one ideal.

    Scratch arrays are kept from one block to the next of the same size:
    multi-megabyte arrays allocated afresh for every block are mapped
    and page-faulted in by the allocator each time, which costs about as
    much as the arithmetic on them.
    """

    def __init__(self, ideal: MonomialIdeal) -> None:
        self.plan = _scan_plan(ideal)
        self._scratch: tuple[np.ndarray, ...] = ()

    def _workspace(self, count: int) -> tuple[np.ndarray, ...]:
        if not self._scratch or self._scratch[0].shape[1] != count:
            mu = self.plan.mu
            full = (1 << mu, count)
            self._scratch = (np.empty(full, np.int8), np.empty(full, np.int8),
                             np.empty(full, bool), np.empty(full, bool),
                             np.empty((comb(mu, mu // 2), count), bool))
        return self._scratch

    def __call__(self, words: Sequence[tuple[int, ...]] | np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(obstruction, length, minimal) arrays indexed like ``words``.

        ``words`` is a sequence of permutation words or an int8 array of
        shape (count, mu).  Every step is a whole-array operation over
        all orders of the block at once, with one row per subset mask;
        the length is computed both by the face DP and by the subset-sum
        closure, and a mismatch raises.
        """
        plan = self.plan
        mu = plan.mu
        size = 1 << mu
        word_arr = np.asarray(words, np.int8).reshape(-1, mu)
        count = len(word_arr)
        minpos, gathered, broken, pres, rows = self._workspace(count)

        # rank[g][j]: rank of generator g + 1 in order j
        rank = np.empty((mu, count), np.int8)
        ranks = np.arange(mu, dtype=np.int8)[:, None]
        rank[word_arr.T - 1, np.arange(count)] = ranks

        # minpos[mask][j]: least rank in the mask, built by doubling over
        # bits (masks 2^b .. 2^(b+1)-1 extend masks 0 .. 2^b-1 by bit b)
        minpos[0] = mu
        for b in range(mu):
            np.minimum(minpos[:1 << b], rank[b], out=minpos[1 << b:2 << b])

        # broken[mask]: some outside divisor precedes every member (never
        # for an empty outside set, whose minpos is the sentinel mu).
        # Gathers use mode="clip" (indices are in range) so that numpy
        # writes straight into the workspace instead of a buffer.
        np.take(minpos, plan.outside, axis=0, out=gathered, mode="clip")
        np.less(gathered, minpos, out=broken)
        # minpos is spent; its buffer takes broken in level order
        broken_lv = np.take(broken, plan.natural, axis=0,
                            out=minpos.view(bool), mode="clip")

        # route one: a set is preserved iff it is unbroken and all its
        # one-smaller subsets are preserved, one level at a time
        pres[0] = True
        for k in range(1, mu + 1):
            level = plan.levels[k]
            acc = np.logical_not(broken_lv[level], out=pres[level])
            below = rows[:len(acc)]
            for column in plan.subsets[k].T:
                acc &= np.take(pres, column, axis=0, out=below, mode="clip")

        # route two: up-close the broken sets in place, one OR per bit
        for b in range(mu):
            halves = broken.reshape(size >> (b + 1), 2, 1 << b, count)
            halves[:, 1] |= halves[:, 0]
        bad_lv = np.take(broken, plan.natural, axis=0, out=gathered.view(bool),
                         mode="clip")

        l_arr = np.zeros(count, np.int8)
        ps_arr = np.zeros(count, np.int8)
        for k in range(1, mu + 1):
            level = plan.levels[k]
            l_arr[pres[level].any(axis=0)] = k
            ps_arr[~bad_lv[level].all(axis=0)] = k
        if not np.array_equal(l_arr, ps_arr):
            raise RuntimeError("internal disagreement: face DP length and "
                               "subset-closure preserved size differ")

        obs = np.zeros(count, np.int8)
        for k, edges in plan.clutter:
            hit = np.take(pres, edges, axis=0, out=rows[:len(edges)],
                          mode="clip")
            obs[hit.any(axis=0)] = k
        return obs, l_arr, obs == 0


def _scan_words(ideal: MonomialIdeal, words: Sequence[tuple[int, ...]] | np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-order invariants of one block of words: see ``_BlockScanner``."""
    return _BlockScanner(ideal)(words)


class _Agg:
    __slots__ = ("scanned", "tobsl", "tobsl_witness", "min_l", "min_l_witness",
                 "minimal_count", "nonminimal_witness")

    def __init__(self) -> None:
        self.scanned = 0
        self.tobsl = None
        self.tobsl_witness = None
        self.min_l = None
        self.min_l_witness = None
        self.minimal_count = 0
        self.nonminimal_witness = None


def _merge(agg: _Agg, words: np.ndarray,
           result: tuple[np.ndarray, np.ndarray, np.ndarray],
           stop_when: str | None) -> bool:
    obs, lengths, minimal = result
    agg.scanned += len(words)
    agg.minimal_count += int(minimal.sum())

    j = int(np.argmin(obs))
    if agg.tobsl is None or int(obs[j]) < agg.tobsl:
        agg.tobsl = int(obs[j])
        agg.tobsl_witness = tuple(words[j].tolist())
    j = int(np.argmin(lengths))
    if agg.min_l is None or int(lengths[j]) < agg.min_l:
        agg.min_l = int(lengths[j])
        agg.min_l_witness = tuple(words[j].tolist())
    if agg.nonminimal_witness is None and not minimal.all():
        agg.nonminimal_witness = tuple(words[int(np.argmin(minimal))].tolist())

    if stop_when == "zero-obstruction":
        return agg.tobsl == 0
    if stop_when == "nonzero-obstruction":
        return agg.nonminimal_witness is not None
    return False


def _word_blocks(words: Iterator[tuple[int, ...]], mu: int,
                 chunk_size: int) -> Iterator[np.ndarray]:
    """Consecutive chunks of a word stream as int8 (count, mu) arrays."""
    while True:
        block = np.fromiter(chain.from_iterable(islice(words, chunk_size)),
                            np.int8)
        if not block.size:
            return
        yield block.reshape(-1, mu)


def search_scan(ideal: MonomialIdeal, mode: str = "exhaustive", *,
                max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
                force: bool = False, jobs: int = 1,
                chunk_size: int = DEFAULT_CHUNK,
                stop_when: str | None = None) -> SearchResult:
    """Scan an order stream and aggregate per-order invariants.

    ``stop_when`` may be ``"zero-obstruction"`` (stop once a minimal
    order is found; its witness is then exact) or
    ``"nonzero-obstruction"`` (stop once a non-minimal order is found).
    Chunks are merged in stream order regardless of ``jobs``, so every
    output is deterministic.
    """
    if stop_when not in (None, "zero-obstruction", "nonzero-obstruction"):
        raise ValueError(f"unknown stop policy {stop_when!r}")
    if jobs < 1 or chunk_size < 1:
        raise ValueError(f"jobs and chunk_size must be at least 1, got "
                         f"jobs={jobs}, chunk_size={chunk_size}")
    stream, exact = orders_for_search(ideal, mode,
                                      max_exhaustive=max_exhaustive,
                                      force=force)
    chunks = _word_blocks(stream, ideal.mu, chunk_size)
    agg = _Agg()
    stopped = False

    if jobs == 1:
        scanner = _BlockScanner(ideal)
        for words in chunks:
            if _merge(agg, words, scanner(words), stop_when):
                stopped = True
                break
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            pending: deque = deque()
            try:
                for words in chunks:
                    pending.append((words, pool.submit(_scan_words, ideal, words)))
                    if len(pending) >= jobs + 2:
                        head_words, fut = pending.popleft()
                        if _merge(agg, head_words, fut.result(), stop_when):
                            stopped = True
                            break
                while not stopped and pending:
                    head_words, fut = pending.popleft()
                    if _merge(agg, head_words, fut.result(), stop_when):
                        stopped = True
            finally:
                while pending:
                    pending.popleft()[1].cancel()

    if agg.scanned == 0:
        raise RuntimeError("order stream was empty")
    return SearchResult(
        mode=mode, exact=exact, scanned=agg.scanned, stopped_early=stopped,
        tobsl=agg.tobsl, tobsl_witness=agg.tobsl_witness,
        min_l=agg.min_l, min_l_witness=agg.min_l_witness,
        minimal_count=agg.minimal_count,
        nonminimal_witness=agg.nonminimal_witness)


def total_obstruction(ideal: MonomialIdeal, search_mode: str = "exhaustive", *,
                      max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
                      force: bool = False, jobs: int = 1
                      ) -> tuple[int, OrderedIdeal]:
    """Minimum obstruction over the searched orders, with its witness.

    Exact under exhaustive search; under the courts-first heuristic the
    value is only an upper bound (unless the stream was complete).  The
    witness is the lexicographically least minimizing order.
    """
    scan = search_scan(ideal, search_mode, max_exhaustive=max_exhaustive,
                       force=force, jobs=jobs, stop_when="zero-obstruction")
    return scan.tobsl, OrderedIdeal(ideal, scan.tobsl_witness)


def min_l_length(ideal: MonomialIdeal, search_mode: str = "exhaustive", *,
                 max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
                 force: bool = False, jobs: int = 1
                 ) -> tuple[int, OrderedIdeal]:
    """Minimum resolution length over the searched orders, with witness."""
    scan = search_scan(ideal, search_mode, max_exhaustive=max_exhaustive,
                       force=force, jobs=jobs)
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
                 force: bool = False, jobs: int = 1) -> LyubeznikVerdict:
    """Whether some order makes the Lyubeznik resolution minimal."""
    scan = search_scan(ideal, search_mode, max_exhaustive=max_exhaustive,
                       force=force, jobs=jobs, stop_when="zero-obstruction")
    if scan.tobsl == 0:
        return LyubeznikVerdict(True, OrderedIdeal(ideal, scan.tobsl_witness),
                                scan.mode, scan.exact, scan.scanned)
    verdict = False if scan.exact else None
    return LyubeznikVerdict(verdict, None, scan.mode, scan.exact, scan.scanned)


def is_totally_lyubeznik(ideal: MonomialIdeal, *,
                         max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
                         force: bool = False, jobs: int = 1) -> bool:
    """Whether every order makes the Lyubeznik resolution minimal."""
    scan = search_scan(ideal, "exhaustive", max_exhaustive=max_exhaustive,
                       force=force, jobs=jobs, stop_when="nonzero-obstruction")
    return scan.nonminimal_witness is None


def is_almost_lyubeznik(ideal: MonomialIdeal, *,
                        max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
                        force: bool = False, jobs: int = 1,
                        prime: int | None = None) -> bool:
    """Whether the best resolution length meets the projective dimension."""
    best, _ = min_l_length(ideal, "exhaustive", max_exhaustive=max_exhaustive,
                           force=force, jobs=jobs)
    return best == taylor_betti(ideal, prime=prime).projective_dimension


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


def ara_bounds(ideal: MonomialIdeal, search_mode: str = "exhaustive", *,
               max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
               force: bool = False, jobs: int = 1,
               prime: int | None = None) -> AraBounds:
    """Lower and upper bounds on the arithmetical rank.

    The upper bound is min(best resolution length, number of
    generators).  The lower bound is the projective dimension of R/I
    for squarefree ideals (where it equals the cohomological
    dimension), and the height otherwise.  ``equality`` flags bounds
    that pin the value exactly.
    """
    if ideal.is_squarefree():
        lower = taylor_betti(ideal, prime=prime).projective_dimension
    else:
        lower = height(ideal)
    best, _ = min_l_length(ideal, search_mode, max_exhaustive=max_exhaustive,
                           force=force, jobs=jobs)
    upper = min(best, ideal.mu)
    return AraBounds(lower, upper, lower == upper)


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
            max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE, force: bool = False,
            jobs: int = 1, prime: int | None = None) -> InvariantReport:
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
    if minimal != (obs == 0):
        raise RuntimeError("internal disagreement: minimality and "
                           "obstruction routes differ")
    length = l_length(ordered)
    ps = preserved_size(ordered)
    if length != ps:
        raise RuntimeError("internal disagreement: resolution length and "
                           "preserved size differ")
    betti = _preserved_betti(ordered) if minimal else None
    ht = height(ideal)

    # one scan and at most one homology computation per call; the
    # squarefree oracle call comes first, as it does in ara_bounds
    squarefree = ideal.is_squarefree()
    projdim = (taylor_betti(ideal, prime=prime).projective_dimension
               if squarefree else None)
    best = length
    lyub = almost = totally = None
    if search_mode is not None:
        scan = search_scan(ideal, search_mode, max_exhaustive=max_exhaustive,
                           force=force, jobs=jobs)
        best = scan.min_l
        if scan.tobsl == 0:
            lyub = True
        elif scan.exact:
            lyub = False
        if scan.exact:
            if projdim is None:
                projdim = taylor_betti(ideal,
                                       prime=prime).projective_dimension
            almost = scan.min_l == projdim
            totally = scan.minimal_count == scan.scanned
    lower = projdim if squarefree else ht
    upper = min(best, ideal.mu)
    return InvariantReport(order=ordered.order, minimal=minimal,
                           obstruction=obs, l_length=length, ps=ps,
                           betti=betti, height=ht,
                           ara=AraBounds(lower, upper, lower == upper),
                           lyubeznik=lyub, almost_lyubeznik=almost,
                           totally_lyubeznik=totally)


def audit_courts_first(ideal: MonomialIdeal, *,
                       max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
                       force: bool = False, jobs: int = 1
                       ) -> tuple[bool, OrderedIdeal | None]:
    """Empirically test the courts-first heuristic on one ideal.

    The heuristic claims that any order putting every possible court
    before every non-court yields a minimal resolution.  Returns
    (claim holds, first counterexample order or None).  The claim is
    known to fail for some ideals, which is why courts-first search
    results are flagged as inexact.
    """
    scan = search_scan(ideal, "courts-first", max_exhaustive=max_exhaustive,
                       force=force, jobs=jobs,
                       stop_when="nonzero-obstruction")
    if scan.nonminimal_witness is None:
        return True, None
    return False, OrderedIdeal(ideal, scan.nonminimal_witness)
