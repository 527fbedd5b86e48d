"""Bitmask tables over the subset lattice of a generator set.

Subsets of the generators {1..mu} are encoded as mu-bit integers, bit
(i-1) standing for generator i.  Everything that depends only on the
ideal (lcms, divisor sets, cover membership) is tabulated once here and
shared by every total order: per-order work then reduces to rank
comparisons against these masks.

The tables are built by whole-array numpy passes over the 2^mu masks,
a constant number per generator: the lcm exponents by doubling over
the bits (int64, exact up to ``EXPONENT_LIMIT``), the divisor masks by
one divisibility test per generator, the cover masks by one gather per
bit.  The three mask tables stay the read-only int64 arrays those
passes build, so the consumers' numpy passes read them as they are; a
public function that hands back one entry converts it to a Python int.
The lcm array is kept as it is too, and becomes a list of exponent
tuples of Python ints only when ``lcm_exps`` (or ``lcm_monomial``) is
first read: the Betti counts from preserved sets (``invariants``) and
the lcm classes of the oracle hash them as dict keys, and the
benchmark's generator and tracer and CI's Euler-characteristic step
read them as tuples, while the complex, the covers and the order
searches never do.

Tables cost O(2^mu) memory, so construction refuses ideals with more
than MAX_TABLE_GENERATORS generators, before it allocates anything.
That is the library's one bound: the covers, the per-order tables,
the order searches and the homology oracle all read these tables and
refuse where they do, and the path search of ``graphs`` refuses more
edges than this.  The command line keeps lower bounds of its own
(``cli``): mu <= 12 and ``--max-exhaustive``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .monomials import BoundExceededError, Monomial, MonomialIdeal

MAX_TABLE_GENERATORS = 16


def mask_of(indices: Iterable[int], mu: int | None = None) -> int:
    """Bitmask for a collection of 1-based generator indices.

    With ``mu`` given, every index is first checked to lie in 1..mu, as
    the entry points that take a caller's subset do.
    """
    mask = 0
    for i in indices:
        if mu is not None and not 1 <= i <= mu:
            raise ValueError(f"generator index {i} is not in 1..{mu}")
        mask |= 1 << (i - 1)
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based generator indices of a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def iter_bits(mask: int) -> Iterator[int]:
    """0-based bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcounts(mu: int) -> np.ndarray:
    """int8 array of the popcounts of the masks 0 .. 2^mu - 1."""
    counts = np.zeros(1, np.int8)
    for _ in range(mu):
        # masks with the next bit set repeat the lower half plus one
        counts = np.concatenate([counts, counts + 1])
    return counts


def up_closure(marked: np.ndarray) -> np.ndarray:
    """Mark, in place, every mask that has a marked subset, and return
    ``marked``: a bool array over the 2^mu masks, closed by one OR per
    bit (the zeta transform over the subset lattice)."""
    for b in range(len(marked).bit_length() - 1):
        # masks with bit b set take the mark of the mask without it
        halves = marked.reshape(-1, 2, 1 << b)
        halves[:, 1] |= halves[:, 0]
    return marked


class SubsetTables:
    """Order-free per-ideal tables indexed by subset mask.

    lcm_exps[mask]   exponent tuple of lcm of the subset (None for mask 0)
    divisor_mask[m]  generators dividing lcm(m) (the complete cover of m)
    outside_mask[m]  divisor_mask[m] with the members removed (possible courts)
    covered_mask[m]  members u of m with m_u | lcm(m minus u)

    The three mask tables are read-only int64 arrays of shape (2^mu,);
    ``lcm_exps`` is a list of tuples of Python ints, hashable as keys,
    built from the int64 lcm array on its first read.
    """

    __slots__ = ("ideal", "mu", "size", "_lcm", "_lcm_exps", "divisor_mask",
                 "outside_mask", "covered_mask")

    def __init__(self, ideal: MonomialIdeal) -> None:
        mu = ideal.mu
        if mu > MAX_TABLE_GENERATORS:
            raise BoundExceededError(
                f"subset tables support at most {MAX_TABLE_GENERATORS} "
                f"generators, got {mu}")
        self.ideal = ideal
        self.mu = mu
        self.size = 1 << mu
        exps = np.array([m.exponents for m in ideal.gens], np.int64)
        masks = np.arange(self.size)

        # lcm by doubling: the masks with top bit b are those below 2^b
        # joined with generator b+1, and mask 0 stays the zero vector.
        # Rows are variables, so the divisibility tests reduce over the
        # short leading axis.
        lcm = np.zeros((exps.shape[1], self.size), np.int64)
        for b in range(mu):
            low = 1 << b
            np.maximum(lcm[:, :low], exps[b, :, None], out=lcm[:, low:2 * low])

        div = np.zeros(self.size, np.int64)
        for g in range(mu):
            div[(lcm >= exps[g, :, None]).all(axis=0)] |= 1 << g

        # u is covered in m when m minus u is non-empty and its divisor
        # mask holds u
        cov = np.zeros(self.size, np.int64)
        for b in range(mu):
            bit = 1 << b
            sel = (masks & bit != 0) & (masks != bit)
            cov[sel] |= div[masks[sel] ^ bit] & bit

        self._lcm = lcm
        self._lcm_exps = None
        self.divisor_mask = div
        self.outside_mask = div & ~masks
        self.covered_mask = cov
        # the tables are cached and shared: an in-place write must raise
        for table in (lcm, self.divisor_mask, self.outside_mask,
                      self.covered_mask):
            table.flags.writeable = False

    @property
    def lcm_exps(self) -> list:
        if self._lcm_exps is None:
            self._lcm_exps = [None, *zip(*(row.tolist()
                                           for row in self._lcm[:, 1:]))]
            # the tuples hold the same values: keep one copy
            self._lcm = None
        return self._lcm_exps

    def lcm_monomial(self, mask: int) -> Monomial:
        exps = self.lcm_exps[mask]
        if exps is None:
            raise ValueError("lcm of the empty subset is undefined")
        return Monomial(self.ideal.context, exps)

    def is_cover(self, mask: int) -> bool:
        return bool(self.covered_mask[mask])


# one entry: a command reads one ideal, and more entries would hold
# 2^mu tables for every ideal a process has seen
@lru_cache(maxsize=1)
def tables_for(ideal: MonomialIdeal) -> SubsetTables:
    return SubsetTables(ideal)
