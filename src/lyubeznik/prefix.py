"""Exact order searches over prefix sets, without listing the mu! orders.

An order places the generators one at a time; the generators placed
before some point form its *prefix set* P.  Place x right after P and
let S be a set holding x.  Some D inside S with least member x is
broken exactly when ``divisor_mask[S & ~P] & P`` is non-zero: the
largest candidate is D = S minus P, whose lcm is divisible by an
earlier generator iff some smaller candidate's is.  So whether that
placement *kills* S (rules out that S is preserved) depends on P and S
only, not on x or on the order inside P, and S is preserved by an order
exactly when no placement of one of its members kills it.  Once P is
such that a placement after it would kill S, S is doomed: S minus the
prefix stays the same until a member is placed, while the prefix only
grows, so that placement kills S.

A walk need not wait until a set lies inside P to know that it is
preserved.  Call a mask
R *closed* when ``divisor_mask[R] == R``, no generator outside R
dividing lcm(R), and *open* otherwise.  A set S that is neither killed
nor doomed at P is preserved by every order extending P exactly when
every nonempty R inside S minus P is closed; S is then *sure* at P.
If so, each later placement of a member of S finds S minus the prefix
to be such an R, disjoint from the prefix, and
``divisor_mask[R] & prefix`` is ``R & prefix``, zero.  If some such R
is open, a generator g outside R divides lcm(R), and g is not in P, for
``divisor_mask[S & ~P]`` holds ``divisor_mask[R]`` and meets no member
of P; an order that places every generator outside R first, g among
them, leaves R as S minus the prefix when R's first member is placed,
and that placement kills S.  A set inside P is sure: no nonempty R is
left.

A ``PrefixWalk`` searches the orders for one family of sets as a walk
over states (P, alive), alive holding the family sets not doomed so
far, a Held-Karp style subset search (Held & Karp 1962).  A state is
settled once an alive set is sure, for then every completion preserves
a family set, or once no set is left alive, for then each of the
(mu - |P|)! completions preserves none.  Short of that, (P, alive) is
the whole state, and the walk memoises it.  Two rows per prefix set,
each a Python int with one bit per family set, drive every step:

* ``keep[P]``: the family sets not doomed at P;
* ``sure[P]``: the sets of ``keep[P]`` with no open subset inside
  S minus P.

A walk reads the rows of few of the 2^mu prefix sets, since most
states settle early.  So a prefix set's pair is built the first
time a walk reads it and kept for every later read (``_Rows``).  A
pair is built one of two ways, for neither is quick at every width.  A
narrow family loops in Python over its sets, indexing lists of the
divisor masks and of the closed masks: it makes no numpy call, whose
fixed cost (about 5 microseconds) would be most of a row of a few sets.
A family of ``_WIDE_FAMILY`` sets or more takes one numpy pass over its
mask array (gather, compare, pack into bytes, one int), whose cost
grows slowly with the width while the loop's grows by a Python step a
set: at 1,024 sets the pass takes about 9 microseconds and the loop
about 90.  Whether a mask has only closed subsets depends on the ideal
alone: exactly when it is closed and no member is covered in it, read
off the subset tables once per ideal and kept with them (``_masks``).

Children are tried in generator order, so the first order a descent
finds is the lexicographically least.  ``count`` counts the orders that
preserve no family set, and ``first`` finds the least such order.
``first`` is one depth-first recursion that returns a state's least
completion: a state with a sure set has none, one with no set alive
places the rest in generator order, and any other state's is that of
its first child that has one.  So a state with a completion is entered
once, on the path to the answer, and a state found to have none is
kept in the count's memo as 0, where the count, when it has run, names
more of them without a descent.  When the identity order preserves no
family set, the walk goes straight down its path and reads one row per
prefix until a state settles.
``first`` may start from a subfamily root, the state (no prefix, the
family sets named by ``alive``), so one walk over a family answers for
each of its subfamilies on the same rows.
The count's memo is keyed by (alive, P) and holds the same whatever
root reached the state.  A settled state answers each of them as the
walk to the end of every completion would, so the counts and the
witnesses are those of a walk that stops only once a set lies inside
the prefix.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

import numpy as np

from .monomials import MonomialIdeal
from .subsets import SubsetTables, iter_bits, tables_for

# the family width from which a numpy pass builds a row quicker than a
# Python loop over the sets: both take about 5.5 microseconds at 64 sets
# (mu 9, 14 and 16; README, "Cost of an exhaustive search")
_WIDE_FAMILY = 64


def _masks(tables: SubsetTables) -> tuple[np.ndarray, np.ndarray,
                                          list[int], list[bool]]:
    """(divisor, closed, the two as lists): the ideal's divisor masks,
    and whether each mask has only closed subsets, as the arrays a wide
    row gathers from and the lists a narrow row indexes.

    R has only closed subsets iff it is closed and no member is covered
    in it: a covered u leaves R minus u open, and g | lcm(Q), Q inside R,
    puts g in R, then in Q, or g would be covered in R.
    """
    divisor, covered = tables.divisor_mask, tables.covered_mask
    closed = (divisor == np.arange(tables.size)) & (covered == 0)
    return divisor, closed, divisor.tolist(), closed.tolist()


class _Rows(dict):
    """The (keep, sure) pair of each prefix set read so far, built on
    its first read by the route for the family's width."""

    def __init__(self, tables: SubsetTables, sets: Sequence[int]) -> None:
        super().__init__()
        divisor, closed, divisor_list, closed_list = tables.derived(_masks)
        self.wide = len(sets) >= _WIDE_FAMILY
        if self.wide:
            self.divisor, self.closed = divisor, closed
            self.masks = np.array(sets, np.int64)
        else:
            self.divisor, self.closed = divisor_list, closed_list
            self.bits = [(1 << i, s) for i, s in enumerate(sets)]

    def __missing__(self, prefix: int) -> tuple[int, int]:
        row = self[prefix] = (self._wide(prefix) if self.wide
                              else self._narrow(prefix))
        return row

    def _narrow(self, prefix: int) -> tuple[int, int]:
        divisor, closed, out = self.divisor, self.closed, ~prefix
        keep = sure = 0
        for bit, s in self.bits:
            rest = s & out
            if not divisor[rest] & prefix:
                keep |= bit
                if closed[rest]:
                    sure |= bit
        return keep, sure

    def _wide(self, prefix: int) -> tuple[int, int]:
        rest = self.masks & ~prefix
        kept = self.divisor[rest] & prefix == 0
        keep = _packed(kept)
        kept &= self.closed[rest]
        return keep, _packed(kept)


def _packed(marks: np.ndarray) -> int:
    """A bool array as one int, bit i for entry i."""
    return int.from_bytes(np.packbits(marks, bitorder="little").tobytes(),
                          "little")


class PrefixWalk:
    """Orders that preserve none of the sets of one family.

    ``sets`` are generator masks; a walk over an empty family finds
    every order avoiding it.  Building a walk builds no row: ``rows``
    maps each prefix set the walk has read to its (keep, sure) pair,
    built on that first read; ``count`` reads one pair per child it
    tries, and ``first`` one per state it enters.  A family narrower
    than ``_WIDE_FAMILY`` builds a pair by a Python loop over its sets,
    which beats numpy's fixed cost per call; a wider one by one numpy
    pass over its mask array, which beats a loop's cost per set.  Both
    read the ideal's closed masks, built once per ideal, not once per
    walk.  Bit i of an alive set names ``sets[i]``, and
    ``first(alive=...)`` starts the walk from the root of that
    subfamily, on the same rows and count memo.
    """

    def __init__(self, ideal: MonomialIdeal, sets: Sequence[int]) -> None:
        mu = ideal.mu
        self.mu = mu
        self.full = (1 << mu) - 1
        # the root state: no generator placed, every family set alive
        self.alive = (1 << len(sets)) - 1
        self.rows = _Rows(tables_for(ideal), sets)
        # orders completing each state without preserving a family set,
        # keyed by alive << mu | P: the count fills it, and first adds
        # each state it finds to have none as 0
        self.counts: dict[int, int] = {}

    def count(self) -> int:
        """The number of orders that preserve no family set."""
        full, mu, counts, rows = self.full, self.mu, self.counts, self.rows

        def walk(prefix: int, alive: int) -> int:
            key = alive << mu | prefix
            total = counts.get(key)
            if total is not None:
                return total
            total = 0
            free = full & ~prefix
            while free:
                low = free & -free
                free ^= low
                nxt = prefix | low
                keep, sure = rows[nxt]
                if not alive & sure:
                    left = alive & keep
                    total += (walk(nxt, left) if left
                              else factorial(mu - nxt.bit_count()))
            counts[key] = total
            return total

        try:
            return walk(0, self.alive)
        finally:
            # walk refers to itself through its closure: unbind it, so
            # that the memo it holds is freed by reference counting, not
            # at some later garbage collection
            del walk

    def first(self, alive: int | None = None) -> tuple[int, ...] | None:
        """The lexicographically least order that preserves no family
        set, as a permutation word; None when there is none.  ``alive``,
        bits of ``sets``, walks that subfamily in place of the whole
        family."""
        full, mu, counts, rows = self.full, self.mu, self.counts, self.rows

        def least(prefix: int, alive: int) -> tuple[int, ...] | None:
            """The least completion of the state (prefix, alive), its
            generators placed after the prefix, or None."""
            keep, sure = rows[prefix]
            if alive & sure:
                # settled: every completion preserves a sure set
                return None
            alive &= keep
            if not alive:
                # settled: no completion preserves a set of a dead
                # family, and the least places the rest in generator order
                return tuple(b + 1 for b in iter_bits(full & ~prefix))
            key = alive << mu | prefix
            if counts.get(key) == 0:
                return None
            free = full & ~prefix
            while free:
                low = free & -free
                free ^= low
                rest = least(prefix | low, alive)
                if rest is not None:
                    return low.bit_length(), *rest
            counts[key] = 0
            return None

        try:
            return least(0, self.alive if alive is None else alive)
        finally:
            # as in count: free the recursion now, not at a collection
            del least
