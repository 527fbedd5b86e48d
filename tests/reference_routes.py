"""The checking routes: one per identity of the library.

Each production route in ``src`` has one checking route here, which
shares as little code with it as the inputs' sizes allow, and one test
module that compares the two.  Per identity: the production route,
then its checking route, then the test.

* ``order_analysis``'s courts, preserved sets, faces and length:
  ``court_table`` (least ranks by a loop over the masks),
  ``preserved_table`` (a set is preserved iff it has no court and all
  its one-smaller subsets are), and ``closure_length`` (the largest set
  outside the up-closure of the broken sets);
  ``tests/test_preserved_kernel.py``.
* ``_OrderAnalysis.facets``, read off the faces' lone bits: ``facets``,
  each face's one-larger masks scanned; ``tests/test_preserved_kernel.py``
  and ``tests/test_complexes.py``, and at the table bound
  ``ci/test_past_the_bound.py``.
* ``complexes.classification_census``, per-size counts of faces,
  covering faces and covers: ``census_by_keys``, one key per mask
  counted over all 2^mu masks; ``tests/test_complexes.py``.
* ``is_minimal_resolution``, read off the order's covering faces (no
  face covers a member, ``_OrderAnalysis.covering``):
  ``facets_stable``, every facet of the complex a stable symbol, read
  off the monomials; ``tests/test_preserved_kernel.py``, and at the
  table bound ``ci/test_past_the_bound.py``.
* ``obstruction``, read off the order's covering faces (the largest
  covering face none of whose one-smaller subsets covers): the largest
  edge of the cover table's clutter that ``preserved_table`` keeps;
  ``tests/test_preserved_kernel.py``, and at the table bound
  ``ci/test_past_the_bound.py``.
* ``prefix.PrefixWalk``'s count and least order, and
  ``SearchResult._at_most``: ``InsideWalk``, the walk that settles a
  state only once an alive family set lies inside the prefix, without
  the ``sure`` table; ``tests/test_prefix_search.py``, and over the
  seed-1 pool ``ci/test_past_the_bound.py``.
* ``search_scan``'s aggregates and witnesses: ``inside_scan``, each
  value the least k from 0 up at which an ``InsideWalk`` finds an
  order, into a ``Scan``; ``tests/test_prefix_search.py``.
* ``prefix._masks``' closed table (closed, and no member covered):
  ``closed_by_up_closure``, one up-closure of the open masks;
  ``tests/test_prefix_search.py``.
* ``oracle._chain_verdict`` (d^2 = 0) and ``oracle._cone_verdicts``,
  read off the lone bits of the faces (``subsets.lone_bits``):
  ``closed_by_one_smaller``, one ``subsets.one_smaller`` pass of the
  unmarked masks, and ``cones_by_lattice``, the lone bits of every
  mask by two masked ORs per bit over the views of
  ``subsets.bit_pairs`` before one up-closure;
  ``tests/test_oracle_reductions.py``, and at the table bound
  ``ci/test_past_the_bound.py``.
* ``taylor_betti`` over Q and GF(p), the Morse-reduced strands ranked
  once over Z with rank certificates: ``full_strands`` and
  ``full_strand_betti``, every nonempty mask grouped by lcm and then by
  size, each whole Taylor strand ranked over the field itself;
  ``tests/test_oracle_reductions.py`` and ``tests/test_oracle.py``, and
  at mu 14 and 16 ``ci/test_past_the_bound.py``.
* ``oracle._projective_dimension``, the walk down the strands:
  ``table_projective_dimension``, the top index of ``taylor_betti``'s
  whole table; ``tests/test_oracle_callers.py``.
* ``oracle._verify_rows``, ordered by one ``np.lexsort``:
  ``verify_rows_by_sort``, the rows sorted by a Python key;
  ``tests/test_oracle_reductions.py``.
* ``subsets.SubsetTables``' divisor masks, covered masks and lcm
  tuples: ``RankTables``, the same read in exponent-rank space, its
  covered masks by ``covered_by_gathers``; ``tests/test_subsets.py``.
* ``invariants._preserved_betti``, a gather over the faces only:
  ``preserved_betti``, keyed by the lcm tuples of ``lcm_exps``;
  ``tests/test_oracle_callers.py``.
* ``invariants.height``, a bitmask search: ``height`` (with
  ``support``), the supports of the re-minimised radical searched as
  sets by increasing size; ``tests/test_oracle_callers.py``.
* ``monomials.monomial_text``: ``monomial_text``, as
  ``Monomial.__str__`` built it before; ``tests/test_oracle_callers.py``.
* ``covers._listing_rows``: ``cover_listing``, the covering masks
  sorted by a Python key and filtered per generator, and
  ``canonical_edges``, a clutter's edges sorted the same way;
  ``tests/test_cli_routes.py`` and ``tests/test_covers.py``.
* ``jsontext._covers_fragments``: ``covers_fragments``, one join of a
  Python list of parts; ``tests/test_cli_routes.py``, and past the CLI
  bound ``ci/test_past_the_bound.py``.
* ``covers._CoverTable``: ``CoverWalk``, a walk over every mask and its
  one-smaller subsets; ``tests/test_table_routes.py``.
* ``monomials``' reader, its ``finditer`` pass and divisibility matrix:
  ``tokenize``, ``directive_lines``, ``parse_monomial`` and
  ``parse_ideal``, a line and a token at a time, and ``redundant``,
  ``minimize_generators`` and ``first_division``, one pair of
  generators at a time; ``tests/test_reader_routes.py``.
* ``cmdline.read_argv``: ``argparse_parser``, the command line declared
  to argparse; ``tests/test_cli_argv.py``.

Two more names are not checking routes.  ``all_orders`` lists the mu!
orders, lexicographic on the permutation word, for the tests' loops
over every order: the library's searches list none.
``equivalence_audit`` reads the paper's five equivalent
characterisations of minimality one by one, and
``tests/test_acceptance.py`` checks that they agree with
``is_minimal_resolution``.
"""

import argparse
import re
import warnings
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, permutations
from math import factorial

import numpy as np

from lyubeznik import (OrderedIdeal, is_minimal_resolution, is_stable_symbol,
                       monomials, oracle, symbol_of, taylor_betti)
from lyubeznik.betti import BettiTable
from lyubeznik.cmdline import DEFAULT_MAX_EXHAUSTIVE, _field, _positive_int
from lyubeznik.complexes import SubsetClass, order_analysis
from lyubeznik.covers import cover_table
from lyubeznik.jsontext import _Fragment, _layout
from lyubeznik.monomials import (EXPONENT_LIMIT, ExponentLimitError,
                                 MinimizationWarning, Monomial,
                                 MonomialIdeal, ParseError,
                                 VariableContext, divides, radical_ideal)
from lyubeznik.oracle import _rank_function, _strand_homology
from lyubeznik.subsets import (bit_pairs, indices_of, iter_bits, mask_of,
                              one_smaller, popcounts, tables_for, up_closure)


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


def census_by_keys(ordered):
    """The four-class census, by one key per mask (size, preserved,
    covering) counted over all 2^mu masks."""
    mu = ordered.ideal.mu
    covered = tables_for(ordered.ideal).covered_mask != 0
    keys = (popcounts(mu).astype(np.intp) * 4
            + order_analysis(ordered).preserved * 2 + covered)
    counts = np.bincount(keys, minlength=4 * (mu + 1)).reshape(-1, 2, 2)
    return {t: {SubsetClass.PRESERVED_COVER: int(counts[t, 1, 1]),
                SubsetClass.UNPRESERVED_COVER: int(counts[t, 0, 1]),
                SubsetClass.PRESERVED_NONCOVER: int(counts[t, 1, 0]),
                SubsetClass.UNPRESERVED_NONCOVER: int(counts[t, 0, 0])}
            for t in range(1, mu + 1)}


def facets_stable(ordered, preserved=None):
    """Minimality by facet stability: deleting any member of any facet
    strictly drops its lcm."""
    preserved = preserved_table(ordered) if preserved is None else preserved
    return all(is_stable_symbol(symbol_of(indices_of(f), ordered), ordered.ideal)
               for f in facets(preserved))


def all_orders(ideal):
    """All mu! orders, lexicographic on the permutation word."""
    return (OrderedIdeal(ideal, word)
            for word in permutations(ideal.indices()))


def packed_rows(marks):
    """Each column of a bool array of shape (family sets, prefixes) as
    one int, bit i for row i."""
    packed = np.packbits(marks, axis=0, bitorder="little").T
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class InsideWalk:
    """The prefix walk that settles a state only once an alive family
    set lies inside the prefix (``inside[P]``), with no other shortcut:
    the route the ``sure`` table of ``prefix.PrefixWalk`` replaced.
    Both tables are built for all family sets at once."""

    def __init__(self, ideal, sets):
        mu = ideal.mu
        self.mu = mu
        self.full = (1 << mu) - 1
        self.alive = (1 << len(sets)) - 1
        prefixes = np.arange(1 << mu, dtype=np.int64)
        rest = np.array(sets, np.int64).reshape(-1, 1) & ~prefixes
        divisor = tables_for(ideal).divisor_mask
        self.keep = packed_rows(divisor[rest] & prefixes == 0)
        self.inside = packed_rows(rest == 0)
        self.counts = {}

    def count(self):
        """The number of orders that preserve no family set."""
        full, mu, counts = self.full, self.mu, self.counts
        keep, inside = self.keep, self.inside

        def walk(prefix, alive):
            key = alive << mu | prefix
            if key not in counts:
                total = 0
                for b in iter_bits(full & ~prefix):
                    nxt = prefix | 1 << b
                    if not alive & inside[nxt]:
                        total += (1 if nxt == full
                                  else walk(nxt, alive & keep[nxt]))
                counts[key] = total
            return counts[key]

        return walk(0, self.alive)

    def first(self):
        """The least order preserving no family set, or None."""
        full, mu, counts = self.full, self.mu, self.counts
        keep, inside = self.keep, self.inside
        seen = {}

        def sought(nxt, alive):
            if alive & inside[nxt]:
                return False
            if nxt == full:
                return True
            alive &= keep[nxt]
            key = alive << mu | nxt
            if key in counts:
                return counts[key] > 0
            if key not in seen:
                seen[key] = any(sought(nxt | 1 << b, alive)
                                for b in iter_bits(full & ~nxt))
            return seen[key]

        prefix, alive, word = 0, self.alive, []
        while prefix != full:
            for b in iter_bits(full & ~prefix):
                if sought(prefix | 1 << b, alive):
                    break
            else:
                return None
            word.append(b + 1)
            prefix |= 1 << b
            alive &= keep[prefix]
        return tuple(word)


@dataclass(frozen=True)
class Scan:
    """The aggregates of every order, and the verdicts they settle; the
    fields are those of ``SearchResult``."""

    scanned: int
    tobsl: int
    tobsl_witness: tuple
    min_l: int
    min_l_witness: tuple
    minimal_count: int

    @property
    def lyubeznik(self):
        return self.tobsl == 0

    @property
    def totally_lyubeznik(self):
        return self.minimal_count == self.scanned

    def almost_lyubeznik(self, projdim):
        return self.min_l == projdim


def inside_scan(ideal):
    """The ``Scan`` of all mu! orders, each value the least k from 0 up
    at which an ``InsideWalk`` finds an order and each witness the order
    it finds: an order's obstruction is at most k when it preserves no
    clutter edge larger than k, and its length is at most k when it
    preserves no (k + 1)-set.  The minimal orders preserve no edge."""
    clutter = cover_table(ideal).clutter

    def least(families):
        for k, sets in enumerate(families):
            word = InsideWalk(ideal, sets).first()
            if word is not None:
                return k, word

    tobsl = least([m for m in clutter if m.bit_count() > k]
                  for k in range(ideal.mu + 1))
    min_l = least([mask_of(c) for c in combinations(ideal.indices(), k + 1)]
                  for k in range(ideal.mu + 1))
    return Scan(factorial(ideal.mu), *tobsl, *min_l,
                InsideWalk(ideal, clutter).count())


def closed_by_up_closure(tables):
    """Whether each mask has only closed subsets (no generator outside
    a subset divides its lcm), by one up-closure of the open masks over
    the subset lattice: the route the closed-mask identity of
    ``prefix._masks`` replaced."""
    prefixes = np.arange(tables.size, dtype=np.int64)
    return ~up_closure(tables.divisor_mask != prefixes)


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
    return BettiTable.from_multigraded(ideal.context, counts)


def table_projective_dimension(ideal, prime=None):
    """pd(R/I), the top index of the whole multigraded Betti table."""
    return taylor_betti(ideal, prime=prime).projective_dimension


def closed_by_one_smaller(preserved):
    """Whether no marked mask has an unmarked one-smaller subset, by one
    OR per bit of the unmarked masks over the lattice."""
    return not np.any(preserved & one_smaller(~preserved))


def cones_by_lattice(preserved, vertex_sets, apexes):
    """Whether the faces inside each vertex set form a cone over its
    apex bit.  One pass per bit marks bit g of ``lone[F]`` for every
    face F whose F ^ g is not a face, on the masks without the bit and
    with it, and one up-closure ORs the marks over the subset lattice;
    V is a cone over g exactly when bit g of ``lone[V]`` is clear."""
    mu = len(preserved).bit_length() - 1
    lone = np.zeros(len(preserved), np.min_scalar_type((1 << mu) - 1))
    for b in range(mu):
        bit = lone.dtype.type(1 << b)
        for (without, with_), (lone_without, lone_with) in zip(
                bit_pairs(preserved, b), bit_pairs(lone, b)):
            np.bitwise_or(lone_without, bit, out=lone_without,
                          where=without > with_)
            np.bitwise_or(lone_with, bit, out=lone_with,
                          where=with_ > without)
    return (up_closure(lone)[vertex_sets] & apexes) == 0


def verify_rows_by_sort(ordered):
    """(exponents of a, verdict) per lattice point a, sorted by
    (degree, exponents) with Python's ``sorted``.  The verdicts are
    ``oracle._cone_verdicts``', looked up on the module when called, so
    that a test that replaces them replaces them here too."""
    classes = oracle._lcm_classes(ordered.ideal)
    analysis = order_analysis(ordered)
    word = np.array(ordered.order)
    apexes = 1 << (word[analysis.least[classes.vertex_sets]] - 1)
    verdicts = oracle._cone_verdicts(analysis.preserved, analysis.lone,
                                     classes.vertex_sets, apexes).tolist()
    return sorted(zip(classes.exponents, verdicts),
                  key=lambda row: (sum(row[0]), row[0]))


def covered_by_gathers(tables):
    """``covered_mask``, one fancy-indexed gather of the divisor masks
    per bit: u is covered in m when m minus u's divisor mask holds u."""
    masks = np.arange(tables.size)
    covered = np.zeros(tables.size, np.int64)
    for b in range(tables.mu):
        bit = 1 << b
        high = masks[masks & bit != 0]
        covered[high] |= tables.divisor_mask[high ^ bit] & bit
    return covered


class RankTables:
    """``divisor_mask``, ``covered_mask`` (by ``covered_by_gathers``)
    and ``lcm_tuples`` of an ideal's subsets, read in exponent-rank
    space."""

    def __init__(self, ideal):
        self.mu = mu = ideal.mu
        self.size = 1 << mu
        exps = np.zeros((mu + 1, len(ideal.context)), np.int64)
        exps[1:] = [m.exponents for m in ideal.gens]
        # rank[g, v]: the smaller exponents of v among the generators and
        # 0 (row 0); values[v, r]: the exponent of rank r
        rank = (exps[None, :, :] < exps[:, None, :]).sum(axis=1,
                                                        dtype=np.int8)
        self._values = np.zeros(exps.shape[::-1], np.int64)
        self._values[np.arange(exps.shape[1]), rank] = exps
        rank = rank[1:]
        self._lcm = np.zeros((exps.shape[1], self.size), np.int8)
        for b in range(mu):
            low = 1 << b
            np.maximum(self._lcm[:, :low], rank[b, :, None],
                       out=self._lcm[:, low:2 * low])
        # below[v, r]: the generators whose exponent of v has rank <= r
        bits = 1 << np.arange(mu, dtype=np.int64)
        below = ((rank[:, :, None] <= np.arange(mu + 1, dtype=np.int8))
                 * bits[:, None, None]).sum(axis=0)
        divisors = below[0].take(self._lcm[0])
        for v in range(1, exps.shape[1]):
            divisors &= below[v].take(self._lcm[v])
        self.divisor_mask = divisors
        self.covered_mask = covered_by_gathers(self)

    def lcm_tuples(self, masks):
        exps = np.take_along_axis(self._values, self._lcm[:, masks], axis=1)
        return list(zip(*exps.tolist()))


def preserved_betti(ordered):
    """Preserved-set counts by size and lcm, read off ``lcm_exps``."""
    ideal = ordered.ideal
    analysis = order_analysis(ordered)
    lcm_exps = tables_for(ideal).lcm_exps
    zero = (0,) * len(ideal.context)
    counts = {}
    for mask in analysis.faces:
        key = (mask.bit_count(), lcm_exps[mask] if mask else zero)
        counts[key] = counts.get(key, 0) + 1
    return BettiTable.from_multigraded(ideal.context, counts)


def support(m):
    """0-based positions of the variables occurring in m."""
    return frozenset(i for i, e in enumerate(m.exponents) if e > 0)


@dataclass(frozen=True)
class EquivalenceAudit:
    """The five minimality conditions, evaluated independently."""

    minimal: bool
    covers_unpreserved: bool
    cover_witness_condition: bool
    eminimal_covers_unpreserved: bool
    eminimal_witness_condition: bool

    @property
    def consistent(self):
        return (self.minimal == self.covers_unpreserved ==
                self.cover_witness_condition ==
                self.eminimal_covers_unpreserved ==
                self.eminimal_witness_condition)


def equivalence_audit(ordered):
    """Evaluate all five equivalent characterizations of minimality.

    The witness conditions are checked literally: for every (E-minimal)
    cover C there must be a non-empty D inside C whose complete cover
    reaches below min(D) — for the E-minimal variant, additionally via
    some v for which D plus v is an E-minimal cover of v.
    """
    emin_set = frozenset(cover_table(ordered.ideal).eminimal.tolist())
    analysis = order_analysis(ordered)
    tables = tables_for(ordered.ideal)
    cover_masks = np.flatnonzero(tables.covered_mask).tolist()

    def has_low_subset(cover, eminimal):
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


def canonical_edges(clutter):
    """An ``OrientedClutter``'s edges as member tuples, by size then
    members: the order the ``covers`` command lists them in."""
    return tuple(sorted((tuple(sorted(e)) for e in clutter.edges),
                        key=lambda t: (len(t), t)))


def covers_fragments(rows, mu):
    """``jsontext._covers_fragments(rows, mu)`` by a list of parts: per
    generator u, a fragment whose render at a depth joins the constant
    text between entries with the per-mask list texts and flag texts
    picked by u's rows (``covers._listing_rows``) read as Python ints;
    the texts are made once per depth, each list text whole."""
    @cache
    def texts(depth):
        start, sep, end = _layout(depth)
        # an entry is {"covered": <list>, "eminimal": <flag>, "members": <list>}
        open_, next_, close = _layout(depth + 1, "{}")
        lstart, lsep, lend = _layout(depth + 2)
        # the members text of each mask, by doubling over the bits
        members = [""]
        for b in range(1, mu + 1):
            members += [f"{t}{lsep}{b}" if t else str(b) for t in members]
        lists = [lstart + t + lend for t in members]
        flag = tuple(f'{next_}"eminimal": {v}{next_}"members": '
                     for v in ("false", "true"))
        return (f'{start}{open_}"covered": ', flag, lists,
                f'{close}{sep}{open_}"covered": ', close + end)

    def block(u, depth):
        masks, eminimal, covered = rows(u)
        if not len(masks):
            return "[]"
        first, flag, lists, between, last = texts(depth)
        parts = [between] * (4 * len(masks) + 1)
        parts[0], parts[-1] = first, last
        parts[1::4] = map(lists.__getitem__, covered.tolist())
        parts[2::4] = map(flag.__getitem__, eminimal.tolist())
        parts[3::4] = map(lists.__getitem__, masks.tolist())
        return "".join(parts)
    return [{"generator": u, "covers": _Fragment(partial(block, u))}
            for u in range(1, mu + 1)]


class CoverWalk:
    """What ``covers._CoverTable`` holds, by a walk over the masks:
    ``by_generator[u - 1]``, the E-minimal covers of generator u (its
    ``eminimal_of(u)``), ``eminimal``, their union, and ``clutter``,
    its inclusion-minimal members, each ascending."""

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


def directive_lines(text, directives):
    """(line number, directive, its column, the rest of the line, the
    rest's offset) per directive line, every line matched by the
    directive expression; lines end at ``\\n``, ``\\r\\n`` or ``\\r``."""
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        head = monomials._DIRECTIVE_RE.match(raw)
        if head is None:
            raise ParseError(f"unexpected {stripped[0]!r}", lineno,
                             len(raw) - len(raw.lstrip()) + 1)
        word = head.group(1)
        column = head.start(1) + 1
        if word not in directives:
            raise ParseError(f"unknown directive {word!r}", lineno, column)
        yield lineno, word, column, raw[head.end(1):], head.end(1)


def parse_monomial(text, context, line, offset):
    """One monomial's text, read a token of ``tokenize`` at a time."""
    exps = [0] * len(context)
    tokens = list(tokenize(text))
    if not tokens:
        raise ParseError("expected a monomial", line, offset + 1)
    pos = 0
    expect_factor = True
    while pos < len(tokens):
        tok, col = tokens[pos]
        col += offset
        if not expect_factor:
            # between factors a '*' is optional
            if tok == "*":
                pos += 1
            expect_factor = True
            continue
        if not monomials._NAME_RE.match(tok):
            raise ParseError(f"expected a variable, got {tok!r}", line, col)
        if tok not in context.names:
            raise ParseError(f"unknown variable {tok!r}", line, col)
        var = context.names.index(tok)
        exponent = 1
        pos += 1
        if pos < len(tokens) and tokens[pos][0] == "^":
            pos += 1
            if pos >= len(tokens):
                raise ParseError("expected an exponent after '^'", line,
                                 tokens[pos - 1][1] + offset)
            etok, ecol = tokens[pos]
            ecol += offset
            if etok.startswith("-"):
                raise ParseError(f"negative exponent {etok}", line, ecol)
            if not (etok.isascii() and etok.isdigit()):
                raise ParseError(f"expected an exponent, got {etok!r}",
                                 line, ecol)
            exponent = int(etok)
            pos += 1
        exps[var] += exponent
        if exps[var] > EXPONENT_LIMIT:
            raise ExponentLimitError(
                f"exponent of {tok!r} exceeds {EXPONENT_LIMIT}" +
                (f" (line {line})" if line is not None else ""))
        expect_factor = False
    if expect_factor:
        raise ParseError("dangling '*'", line, tokens[-1][1] + offset)
    return Monomial(context, tuple(exps))


def parse_ideal(text):
    """The ideal file format, read a line and a token at a time, the
    generators minimized one pair at a time and the ideal built by the
    checking constructor."""
    context = None
    gens, lines = [], []
    for lineno, word, column, rest, offset in directive_lines(
            text, ("vars", "gen")):
        if word == "vars":
            if context is not None:
                raise ParseError("duplicate vars line", lineno, column)
            names = rest.split()
            if not names:
                raise ParseError("vars line lists no variables", lineno,
                                 column)
            try:
                context = VariableContext(tuple(names))
            except ValueError as exc:
                raise ParseError(str(exc), lineno, column) from None
        else:
            if context is None:
                raise ParseError("gen line before vars line", lineno, column)
            mono = parse_monomial(rest, context, lineno, offset)
            if mono.is_one():
                raise ParseError("generator equals 1", lineno, column)
            gens.append(mono)
            lines.append(lineno)
    if context is None:
        raise ParseError("missing vars line")
    if not gens:
        raise ParseError("no generators")
    flags = redundant(gens)
    dropped = [f"{m} (line {n})" for m, n, r in zip(gens, lines, flags) if r]
    if dropped:
        warnings.warn(
            f"generating set was not minimal; dropped {len(dropped)} "
            f"redundant generator(s): {', '.join(dropped)}",
            MinimizationWarning)
    return MonomialIdeal(context, tuple(
        m for m, r in zip(gens, flags) if not r))


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2; here that means a refused bound,
    so usage errors are remapped to the generic input-error code."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_args(self, args=None, namespace=None):
        """argparse's ``parse_args``, naming only the unknown options
        when there are any: an unknown option leaves its value to fill
        a positional, which moves a later word among the unrecognized
        (``verify --field q <path>`` would name ``<path>``)."""
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            options = [word for word in extras if word.startswith("-")]
            self.error("unrecognized arguments: "
                       + " ".join(options or extras))
        return args


def _argparse_type(convert):
    """The converter as an argparse type, its ``ValueError`` message
    reported as argparse reports a type's own message."""
    def read(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def argparse_parser() -> argparse.ArgumentParser:
    """The command line as argparse declared it: ``parse_args`` gives
    the request's namespace, or ends in ``SystemExit`` with code 0
    (``--help``) or 1 (a usage error)."""
    positive_int, field = _argparse_type(_positive_int), _argparse_type(_field)
    parser = _Parser(prog="lyubeznik",
                     description="Covers, preserved sets, and minimality of "
                                 "Lyubeznik resolutions of monomial ideals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, *, order=False, search=False,
            field_=False, graph=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("path", help="graph file" if graph else "ideal file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if order:
            p.add_argument("--order", metavar="i1,i2,...",
                           help="generator order override (1-based indices)")
        if search and not graph:
            p.add_argument("--search", choices=("exhaustive",),
                           default=None if name == "analyze" else "exhaustive",
                           help="order search mode")
        if search:
            p.add_argument("--max-exhaustive", type=positive_int,
                           default=DEFAULT_MAX_EXHAUSTIVE, metavar="MU",
                           help="largest generator count searched exhaustively")
            p.add_argument("--jobs", type=positive_int, default=1,
                           help="has no effect")
        if field_:
            p.add_argument("--field", type=field, default="q",
                           metavar="q|p:<prime>",
                           help="coefficient field for homology ranks")
        return p

    add("covers", "covers and the E-minimal cover clutter", order=True)
    add("complex", "faces, facets, and the subset census", order=True)
    add("analyze", "per-order invariant report",
        order=True, search=True, field_=True)
    add("search", "scan orders for obstruction and length minima",
        search=True)
    add("oracle-betti", "Betti numbers from Taylor-strand homology",
        field_=True)
    add("verify", "check d^2 = 0 and, per multidegree, Lyubeznik's "
                  "cone of faces", order=True)
    add("radical-gens", "polynomials generating the ideal up to radical",
        order=True)
    graph_p = add("graph", "edge-ideal tools for simple graphs",
                  search=True, graph=True)
    graph_p.add_argument("--edge-ideal", action="store_true",
                         help="emit the edge ideal in ideal-file syntax")
    graph_p.add_argument("--check-props", action="store_true",
                         help="evaluate the graph-family statements")
    return parser
