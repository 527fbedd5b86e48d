"""Plain-Python checking routes for the per-order tables.

The library computes an order's broken and preserved sets by 1-D numpy
passes over the subset masks (``complexes.order_analysis``).  These
are the routes it replaced, kept as the references that differential
tests compare it with.  They share no code with it, only the ideal's
subset tables (``divisor_mask``, with the members removed: the outside
divisors), which ``tests/test_subsets.py`` checks against the
monomials.

* ``court_table`` and ``preserved_table``: least ranks by a loop over
  the masks, then the preserved-set DP (a set is preserved iff it has
  no court and all its one-smaller subsets are preserved);
* ``closure_length``: the largest set outside the up-closure of the
  broken sets, by a bitwise subset-sum transform;
* ``facets_stable``: minimality as "every facet of the complex is a
  stable symbol", read off the monomials;
* ``block_ranks``: the least and court ranks of every mask under each
  order of a block, by whole-array passes over the (mask, order) plane;
* ``unpacked_readout``: a block of orders' obstruction, length and
  minimality from those ranks, up-closed and read as one bool per
  (mask, order);
* ``exhaustive_scan``: the aggregates of all mu! orders, by
  ``block_ranks`` and ``unpacked_readout`` on every block of
  ``orders_for_search`` and a first-strictly-better merge in
  lexicographic order, the route the prefix-set search
  (``search_scan``) replaced;
* ``BoundaryMatrix`` and ``boundary_levels``: dense sign matrices
  between consecutive levels of a face family, faces written as index
  tuples, the route the oracle's sparse columns
  (``oracle._boundary_columns``) replaced; ``boundary_matrices`` writes
  the Lyubeznik complex's faces in increasing rank, and
  ``dense_chain_complex`` and ``dense_composes_to_zero`` check d^2 = 0
  with these matrices;
* ``full_strands`` and ``full_strand_betti``: every nonempty mask
  grouped by lcm and then by size, and the Betti numbers from the
  homology of these whole Taylor strands, the route the Morse-reduced
  strands (``oracle._critical_strands``) replaced;
* ``table_projective_dimension``: pd(R/I) read off the whole Betti
  table of ``taylor_betti``, the route the top-down walk
  (``oracle._projective_dimension``) replaced;
* ``preserved_betti``: the preserved-set counts keyed by the lcm tuples
  of ``lcm_exps``, which holds one tuple for every mask, the route the
  gather over the faces only (``SubsetTables.lcm_tuples``) replaced;
* ``height``: the fewest variables meeting every support, searched over
  the supports of the re-minimised radical as sets, the route the
  bitmask search (``invariants.height``) replaced;
* ``monomial_text``: a monomial's text, built as ``Monomial.__str__``
  built it before the tuple formatter (``monomials.monomial_text``);
* ``cover_listing``: the masks that cover anything, sorted by a Python
  key (size, then member tuple) and filtered per generator, the route
  the numpy listing (``covers.cover_listing``) replaced;
* ``CoverWalk``: the E-minimal covers of each generator, their union
  and its inclusion-minimal members, by a walk over every mask and its
  one-smaller subsets, the route the numpy passes of
  ``covers._CoverTable`` replaced;
* ``tokenize``, ``redundant``, ``minimize_generators`` and
  ``first_division``: the tokenizer that steps through a line one
  character at a time, and the divisibility tests one pair of
  generators at a time, comparing their contexts for every pair, the
  routes that the one ``finditer`` pass and the divisibility matrix of
  ``monomials`` replaced; ``parse_ideal`` is ``monomials.parse_ideal``
  with ``tokenize`` and ``redundant`` in place of its own.
"""

from dataclasses import dataclass
from itertools import combinations
from unittest import mock

import numpy as np

from lyubeznik import (is_stable_symbol, monomials, orders_for_search,
                       symbol_of, taylor_betti)
from lyubeznik.betti import QUOTIENT, BettiTable
from lyubeznik.complexes import order_analysis
from lyubeznik.covers import cover_table
from lyubeznik.monomials import divides, radical_ideal, support
from lyubeznik.oracle import _rank_function, _strand_homology
from lyubeznik.subsets import indices_of, iter_bits, tables_for


def court_table(ordered):
    """court[mask]: the least court of the subset, 0 if it is not broken."""
    tables = tables_for(ordered.ideal)
    mu, size = tables.mu, tables.size
    rank = [ordered.rank(b + 1) for b in range(mu)]
    minrank = [mu] * size
    for mask in range(1, size):
        low = mask & -mask
        minrank[mask] = min(rank[low.bit_length() - 1], minrank[mask ^ low])
    court = [0] * size
    for mask in range(1, size):
        out = int(tables.divisor_mask[mask]) & ~mask
        if out and minrank[out] < minrank[mask]:
            court[mask] = ordered.order[minrank[out]]
    return court


def preserved_table(ordered, court=None):
    """preserved[mask], by the DP over one-smaller subsets."""
    court = court_table(ordered) if court is None else court
    preserved = [False] * len(court)
    preserved[0] = True
    for mask in range(1, len(court)):
        if not court[mask]:
            preserved[mask] = all(preserved[mask ^ (1 << b)]
                                  for b in iter_bits(mask))
    return preserved


def closure_length(ordered, court=None):
    """The largest preserved set's size, by up-closing the broken sets."""
    court = court_table(ordered) if court is None else court
    bad = bytearray(map(bool, court))
    for b in range(ordered.ideal.mu):
        bit = 1 << b
        for mask in range(len(bad)):
            if mask & bit and bad[mask ^ bit]:
                bad[mask] = 1
    return max(m.bit_count() for m in range(len(bad)) if not bad[m])


def facets(preserved):
    """The maximal preserved masks."""
    full = len(preserved) - 1
    return [m for m, face in enumerate(preserved) if face and
            not any(preserved[m | (1 << b)] for b in iter_bits(full & ~m))]


def facets_stable(ordered, preserved=None):
    """Minimality by facet stability: deleting any member of any facet
    strictly drops its lcm."""
    preserved = preserved_table(ordered) if preserved is None else preserved
    return all(is_stable_symbol(symbol_of(indices_of(f), ordered), ordered.ideal)
               for f in facets(preserved))


def block_ranks(ideal, words):
    """(least, court_rank), int8 arrays of shape (2^mu, count), for a
    block of permutation words of shape (count, mu): the least rank in
    each mask under each order (mu for the empty mask), and that of the
    mask's outside divisors."""
    mu, count = ideal.mu, len(words)
    rank = np.empty((mu, count), np.int8)
    rank[words.T - 1, np.arange(count)] = np.arange(mu, dtype=np.int8)[:, None]
    least = np.empty((1 << mu, count), np.int8)
    least[0] = mu
    for b in range(mu):
        np.minimum(least[:1 << b], rank[b], out=least[1 << b:2 << b])
    outside = tables_for(ideal).divisor_mask & ~np.arange(1 << mu)
    return least, least[outside]


def unpacked_readout(ideal, least, court_rank):
    """(obstruction, length, minimal) arrays of a block of orders, from
    ``block_ranks``."""
    size, count = least.shape
    unpreserved = court_rank < least
    for b in range(ideal.mu):
        halves = unpreserved.reshape(-1, 2, 1 << b, count)
        halves[:, 1] |= halves[:, 0]
    popcount = np.array([m.bit_count() for m in range(size)], np.int8)[:, None]
    lengths = (popcount * ~unpreserved).max(axis=0)
    by_size = {}
    for m in cover_table(ideal).clutter:
        by_size.setdefault(m.bit_count(), []).append(m)
    obs = np.zeros(count, np.int8)
    for k, edges in sorted(by_size.items()):
        obs[~unpreserved[edges].all(axis=0)] = k
    return obs, lengths, obs == 0


@dataclass(frozen=True)
class Scan:
    """The aggregates of a scan of every order, and the verdicts they
    settle; the fields are those of ``SearchResult``."""

    scanned: int
    tobsl: int
    tobsl_witness: tuple
    min_l: int
    min_l_witness: tuple
    minimal_count: int
    nonminimal_witness: tuple | None

    @property
    def lyubeznik(self):
        return self.tobsl == 0

    @property
    def totally_lyubeznik(self):
        return self.nonminimal_witness is None

    def almost_lyubeznik(self, projdim):
        return self.min_l == projdim


def exhaustive_scan(ideal):
    """The ``Scan`` of all mu! orders, block by block in lexicographic
    order; a witness changes only when a block holds a strictly lower
    value, so each is the least order that reaches its value."""
    blocks, _ = orders_for_search(ideal)
    # no obstruction or length exceeds mu: mu + 1 is above every value
    tobsl = min_l = ideal.mu + 1
    tobsl_witness = min_l_witness = nonminimal_witness = None
    scanned = minimal_count = 0
    for words in blocks:
        obs, lengths, minimal = unpacked_readout(ideal,
                                                 *block_ranks(ideal, words))
        j, k = int(np.argmin(obs)), int(np.argmin(lengths))
        if obs[j] < tobsl:
            tobsl, tobsl_witness = int(obs[j]), tuple(words[j].tolist())
        if lengths[k] < min_l:
            min_l, min_l_witness = int(lengths[k]), tuple(words[k].tolist())
        if nonminimal_witness is None and not minimal.all():
            nonminimal_witness = tuple(words[int(np.argmin(minimal))].tolist())
        scanned += len(words)
        minimal_count += int(minimal.sum())
    return Scan(scanned, tobsl, tobsl_witness, min_l, min_l_witness,
                minimal_count, nonminimal_witness)


@dataclass(frozen=True)
class BoundaryMatrix:
    """A differential between consecutive face levels.

    Entries are the integer signs; the full scalar on (row, col) is
    entry * lcm(col)/lcm(row), and the monomial factors cancel along
    two-step compositions.
    """

    rows: tuple
    cols: tuple
    entries: tuple

    def compose_is_zero(self, next_matrix):
        """True iff self @ next_matrix vanishes identically."""
        if self.cols != next_matrix.rows:
            raise ValueError("boundary matrices do not chain")
        for col in zip(*next_matrix.entries):
            for row in self.entries:
                if sum(a * b for a, b in zip(row, col)):
                    return False
        return True


def boundary_levels(faces_by_size):
    """Sign matrices between consecutive levels of a face family, by size.

    ``faces_by_size[t]`` lists faces as index tuples; level t maps to
    level t-1, and deleting the j-th member of a face (1-based) has sign
    (-1)^(j+1).  Deletions landing outside the family contribute no
    entry.  Returns {t: matrix} for every t >= 1 with a level t-1.
    """
    out = {}
    for t, cols in faces_by_size.items():
        if t == 0 or t - 1 not in faces_by_size:
            continue
        rows = faces_by_size[t - 1]
        row_index = {f: k for k, f in enumerate(rows)}
        entries = [[0] * len(cols) for _ in rows]
        for c, face in enumerate(cols):
            for j, dropped in enumerate(face, start=1):
                smaller = tuple(i for i in face if i != dropped)
                r = row_index.get(smaller)
                if r is not None:
                    entries[r][c] = 1 if j % 2 else -1
        out[t] = BoundaryMatrix(tuple(rows), tuple(cols),
                                tuple(tuple(r) for r in entries))
    return out


def dense_composes_to_zero(faces_by_size):
    """d_{t-1} . d_t = 0 for every t at which both matrices exist."""
    mats = boundary_levels(faces_by_size)
    return all(mats[t - 1].compose_is_zero(mats[t])
               for t in mats if t - 1 in mats)


def rank_faces(ordered, preserved=None):
    """The faces of the Lyubeznik complex by size, from the Python DP's
    preserved sets, written in increasing rank and listed by their rank
    tuples."""
    preserved = preserved_table(ordered) if preserved is None else preserved
    by_size = {}
    for mask, face in enumerate(preserved):
        if face:
            by_size.setdefault(mask.bit_count(), []).append(
                ordered.sorted_by_rank(indices_of(mask)))
    for faces in by_size.values():
        faces.sort(key=lambda f: tuple(ordered.rank(i) for i in f))
    return by_size


def boundary_matrices(ordered):
    """Dense differentials of the Lyubeznik complex, one per face size."""
    mats = boundary_levels(rank_faces(ordered))
    return [mats[t] for t in sorted(mats)]


def dense_chain_complex(ordered, preserved=None):
    """d^2 = 0 across the Lyubeznik complex, by dense sign matrices."""
    return dense_composes_to_zero(rank_faces(ordered, preserved))


def full_strands(ideal):
    """{lcm exponents: {size: masks}} over every nonempty mask."""
    tables = tables_for(ideal)
    strands = {}
    for mask in range(1, tables.size):
        strands.setdefault(tables.lcm_exps[mask], {}).setdefault(
            mask.bit_count(), []).append(mask)
    return strands


def full_strand_betti(ideal, prime=None):
    """Multigraded Betti numbers of R/I from whole Taylor strands."""
    rank = _rank_function(prime)
    counts = {(0, (0,) * len(ideal.context)): 1}
    for exps, by_size in full_strands(ideal).items():
        for t, h in _strand_homology(by_size, rank).items():
            counts[(t, exps)] = h
    return BettiTable.from_multigraded(QUOTIENT, ideal.context, counts)


def table_projective_dimension(ideal, prime=None):
    """pd(R/I), the top index of the whole multigraded Betti table."""
    return taylor_betti(ideal, prime=prime).projective_dimension


def preserved_betti(ordered):
    """Preserved-set counts by size and lcm, read off ``lcm_exps``."""
    ideal = ordered.ideal
    analysis = order_analysis(ordered)
    lcm_exps = analysis.tables.lcm_exps
    zero = (0,) * len(ideal.context)
    counts = {}
    for mask in analysis.faces:
        key = (mask.bit_count(), lcm_exps[mask] if mask else zero)
        counts[key] = counts.get(key, 0) + 1
    return BettiTable.from_multigraded(QUOTIENT, ideal.context, counts)


def height(ideal):
    """The fewest variables meeting every support of the radical's
    generators, by increasing-size search over sets of variables."""
    supports = [support(m) for m in radical_ideal(ideal).gens]
    universe = sorted(set().union(*supports))
    for k in range(1, len(universe) + 1):
        for combo in combinations(universe, k):
            chosen = set(combo)
            if all(chosen & s for s in supports):
                return k
    return len(universe)


def monomial_text(names, exponents):
    """``x^2*y`` text of an exponent tuple, ``1`` for the zero tuple."""
    parts = []
    for name, e in zip(names, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def cover_listing(ideal):
    """Entry u - 1: the masks that cover generator u, by size then members."""
    tables = tables_for(ideal)
    covered = tables.covered_mask.tolist()
    ordered = sorted((m for m in range(tables.size) if covered[m]),
                     key=lambda m: (m.bit_count(), indices_of(m)))
    return tuple(tuple(m for m in ordered if covered[m] >> b & 1)
                 for b in range(tables.mu))


class CoverWalk:
    """The fields of ``covers._CoverTable``, by a walk over the masks,
    and ``eminimal``, the union of the E-minimal covers."""

    def __init__(self, ideal):
        tables = tables_for(ideal)
        covered = tables.covered_mask.tolist()
        by_generator = [[] for _ in range(tables.mu)]
        eminimal = []
        for mask in range(1, tables.size):
            left = covered[mask]
            # covers of u are upward closed, so u stays E-minimal in the
            # mask unless a one-smaller subset still covers it
            for b in iter_bits(mask):
                if not left:
                    break
                left &= ~covered[mask ^ (1 << b)]
            if left:
                eminimal.append(mask)
                for b in iter_bits(left):
                    by_generator[b].append(mask)
        # by size, each set need only be tested against the minimal sets
        # kept so far
        clutter = []
        for mask in sorted(eminimal, key=int.bit_count):
            if not any(k & mask == k for k in clutter):
                clutter.append(mask)
        self.by_generator = tuple(map(tuple, by_generator))
        self.eminimal = tuple(eminimal)
        self.clutter = tuple(sorted(clutter))


def tokenize(text):
    """Yield (token, 1-based column) pairs, skipping whitespace."""
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = monomials._TOKEN_RE.match(text, pos)
        assert match is not None
        yield match.group(), pos + 1
        pos = match.end()


def redundant(gens):
    """Whether each generator is divisible by another that is either not
    equal to it or listed before it, one pair at a time."""
    flags = []
    for i, m in enumerate(gens):
        flags.append(False)
        for j, other in enumerate(gens):
            if j == i:
                continue
            if divides(other, m) and (other != m or j < i):
                flags[i] = True
                break
    return flags


def minimize_generators(gens):
    """Drop every generator divisible by another, keeping first
    occurrences, one pair at a time."""
    gens = list(gens)
    return tuple(m for m, r in zip(gens, redundant(gens)) if not r)


def first_division(gens):
    """The message with which ``MonomialIdeal`` refuses a non-minimal
    generating set of one context, or None for a minimal one."""
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i != j and divides(a, b):
                return (f"generating set is not minimal: {a} divides {b}; "
                        "call minimize_generators or from_generators first")
    return None


def parse_ideal(text):
    """The ideal file format, read with the routes above."""
    with mock.patch.object(monomials, "_tokenize", tokenize), \
            mock.patch.object(monomials, "_redundant", redundant):
        return monomials.parse_ideal(text)
