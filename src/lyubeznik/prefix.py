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
the whole state, and the walk memoises it.  Two tables per family,
built by whole-array numpy passes over the 2^mu prefix sets and packed
into Python ints with one bit per family set, drive every step:

* ``keep[P]``: the family sets not doomed at P;
* ``sure[P]``: the sets of ``keep[P]`` with no open subset inside
  S minus P, read off one up-closure of the open masks per walk.

Children are tried in generator order, so the first order a descent
finds is the lexicographically least.  ``count`` counts the orders that
preserve no family set; ``first(avoid=True)`` finds the least such
order and ``first(avoid=False)`` the least order that preserves one,
each by a memoised depth-first search (which reads the count's memo
when the count has run).  A settled state answers each of them as the
walk to the end of every completion would, so the counts and the
witnesses are those of a walk that stops only once a set lies inside
the prefix.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

import numpy as np

from .monomials import MonomialIdeal
from .subsets import tables_for, up_closure


def _ints(packed: np.ndarray) -> list[int]:
    """Each row of a uint8 array, whole 64-bit words wide, as one
    little-endian int."""
    if packed.shape[1] == 8:
        return packed.view("<u8")[:, 0].tolist()
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


# elements of the int64 temporaries of one block of family sets
_BLOCK = 1 << 20


class PrefixWalk:
    """Orders that preserve (or avoid) the sets of one family.

    ``sets`` are generator masks; a walk over an empty family finds
    every order avoiding it.  The tables are built a block of family
    sets at a time, so that the numpy temporaries stay near ``_BLOCK``
    elements whatever the family's size.
    """

    def __init__(self, ideal: MonomialIdeal, sets: Sequence[int]) -> None:
        mu = ideal.mu
        self.mu = mu
        self.full = (1 << mu) - 1
        # the root state: no generator placed, every family set alive
        self.alive = (1 << len(sets)) - 1
        prefixes = np.arange(1 << mu, dtype=np.int64)
        divisor = tables_for(ideal).divisor_mask
        # the masks whose subsets are all closed: up-close the open ones
        closed = ~up_closure(divisor != prefixes)
        masks = np.array(sets, np.int64).reshape(-1, 1)
        width = 8 * max(1, -(-len(sets) // 64))
        keep = np.zeros((1 << mu, width), np.uint8)
        sure = np.zeros_like(keep)
        step = max(8, (_BLOCK >> mu) // 8 * 8)
        for start in range(0, len(sets), step):
            rest = masks[start:start + step] & ~prefixes
            cols = slice(start // 8, start // 8 + -(-len(rest) // 8))
            kept = divisor[rest] & prefixes == 0
            keep[:, cols] = np.packbits(kept, axis=0, bitorder="little").T
            kept &= closed[rest]
            sure[:, cols] = np.packbits(kept, axis=0, bitorder="little").T
        self.keep = _ints(keep)
        self.sure = _ints(sure)
        # orders completing each state without preserving a family set,
        # keyed by alive << mu | P; only the full walk fills it
        self.counts: dict[int, int] = {}

    def count(self) -> int:
        """The number of orders that preserve no family set."""
        full, mu, counts = self.full, self.mu, self.counts
        keep, sure = self.keep, self.sure

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
                if not alive & sure[nxt]:
                    left = alive & keep[nxt]
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

    def first(self, avoid: bool = True) -> tuple[int, ...] | None:
        """The lexicographically least order that preserves no family
        set (``avoid``) or some family set (not ``avoid``), as a
        permutation word; None when there is none."""
        full, mu, counts = self.full, self.mu, self.counts
        keep, sure = self.keep, self.sure
        seen: dict[int, bool] = {}

        def sought(nxt: int, alive: int) -> bool:
            """Whether placing a generator to make prefix set ``nxt``
            can lead to an order of the kind sought."""
            if alive & sure[nxt]:
                return not avoid
            alive &= keep[nxt]
            if not alive:
                return avoid
            key = alive << mu | nxt
            if key in counts:
                left = counts[key]
                return left > 0 if avoid else left < factorial(
                    mu - nxt.bit_count())
            hit = seen.get(key)
            if hit is None:
                hit = False
                free = full & ~nxt
                while free and not hit:
                    low = free & -free
                    free ^= low
                    hit = sought(nxt | low, alive)
                seen[key] = hit
            return hit

        prefix, alive, word = 0, self.alive, []
        try:
            while prefix != full:
                free = full & ~prefix
                while free:
                    low = free & -free
                    free ^= low
                    if sought(prefix | low, alive):
                        break
                else:
                    return None
                # a sure set stays sure and a dead family stays dead, so
                # once a state is settled every later placement is sought
                # and the rest come in generator order
                word.append(low.bit_length())
                prefix |= low
                alive &= keep[prefix]
            return tuple(word)
        finally:
            # as in count: free the seen memo now, not at a collection
            del sought
