"""Bitmask tables over the subset lattice of a generator set.

Subsets of the generators {1..mu} are encoded as mu-bit integers, bit
(i-1) standing for generator i.  Everything that depends only on the
ideal (lcms, divisor sets, cover membership) is tabulated once here and
shared by every total order: per-order work then reduces to rank
comparisons against these masks.

The tables are built in rank space, by whole-array numpy passes over
the 2^mu masks, a constant number per generator or variable.  Each
variable's exponents are first replaced by their rank, the number of
smaller exponents of that variable among the generators and 0, counted
by comparing the generators pairwise; divisibility and lcms only
compare exponents, and the ranks keep their order, so ranks answer them
exactly.  The lcm ranks are taken by doubling over the bits, as an int8
array of shape (variables, 2^mu); the divisor masks are the AND over the
variables of a small per-rank table, "the generators whose exponent is
at most this rank", gathered at the lcm ranks, one gather per
variable; the cover masks take one OR per bit over reshaped views.
The two mask tables stay the read-only int64 arrays those passes
build, so the consumers' numpy passes read them as they are; a public
function that hands back one entry converts it to a Python int.  A
set's possible courts are its divisor mask less its members.  The
lcm ranks are kept with each variable's rank-to-exponent array, and
become exponent tuples of Python ints, exact up to ``EXPONENT_LIMIT``,
only for the masks a caller names, by one gather of the ranks
(``lcm_tuples``): the Betti counts from preserved sets (``invariants``)
gather their faces' tuples and the oracle its lattice points', and hash
them as dict keys.  ``lcm_exps``, the tuples of all 2^mu masks from the
same gather, is built on its first read (or ``lcm_monomial``'s), and
nothing in the library reads it: the benchmark's generator, tracer and
output checks and CI's Euler-characteristic step do.  The complex, the
covers and the order searches read no lcm tuples at all.  The lattice
passes other modules need are here too, one OR per bit each
(``up_closure``, ``one_smaller`` and ``one_larger``), and the split
they make of a mask array into the masks without and with a bit
(``bit_halves``), which the oracle's matchings read as well: no other
module reshapes a mask array.

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


def bit_halves(values: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(low, high): two views of an array over the 2^mu masks, its
    entries at the masks without bit b and at the same masks with bit b,
    in the same order and shape; writes through them write ``values``."""
    halves = values.reshape(-1, 2, 1 << b)
    return halves[:, 0], halves[:, 1]


def up_closure(marked: np.ndarray) -> np.ndarray:
    """Mark, in place, every mask that has a marked subset, and return
    ``marked``: a bool array over the 2^mu masks, closed by one OR per
    bit (the zeta transform over the subset lattice)."""
    for b in range(len(marked).bit_length() - 1):
        # masks with bit b set take the mark of the mask without it
        low, high = bit_halves(marked, b)
        high |= low
    return marked


def one_smaller(values: np.ndarray) -> np.ndarray:
    """A new array of ``values``' dtype over the 2^mu masks: entry m is
    the OR of ``values`` over m's one-smaller subsets, 0 for m = 0."""
    out = np.zeros_like(values)
    for b in range(len(values).bit_length() - 1):
        high = bit_halves(out, b)[1]
        high |= bit_halves(values, b)[0]
    return out


def one_larger(values: np.ndarray) -> np.ndarray:
    """A new array of ``values``' dtype over the 2^mu masks: entry m is
    the OR of ``values`` over m's one-larger supersets, 0 for the full m."""
    out = np.zeros_like(values)
    for b in range(len(values).bit_length() - 1):
        low = bit_halves(out, b)[0]
        low |= bit_halves(values, b)[1]
    return out


def _exponent_ranks(ideal: MonomialIdeal) -> tuple[np.ndarray, np.ndarray]:
    """(rank, values): ``rank[g, v]``, an int8 array of shape (mu, n), is
    the rank of generator g+1's exponent of variable v: the number of
    smaller exponents of v among the generators and 0, so that equal
    exponents share a rank and the order is kept.  ``values[v, r]``, an
    int64 array of shape (n, mu + 1), is the exponent of rank r (0 at a
    rank no exponent takes).

    The ranks come from comparing the (mu + 1)^2 pairs of exponent rows,
    a zero row first.  Sorting the columns would do the same; at
    mu <= 16 the pairs are as cheap, and numpy's sort kernels add about
    0.3 MiB of peak resident memory to a process that sorts nothing
    else.
    """
    exps = np.zeros((ideal.mu + 1, len(ideal.context)), np.int64)
    exps[1:] = [m.exponents for m in ideal.gens]
    rank = (exps[None, :, :] < exps[:, None, :]).sum(axis=1, dtype=np.int8)
    values = np.zeros(exps.shape[::-1], np.int64)
    values[np.arange(exps.shape[1]), rank] = exps
    return rank[1:], values


class SubsetTables:
    """Order-free per-ideal tables indexed by subset mask.

    lcm_exps[mask]   exponent tuple of lcm of the subset (None for mask 0)
    divisor_mask[m]  generators dividing lcm(m) (the complete cover of m):
                     its members and the possible courts of m
    covered_mask[m]  members u of m with m_u | lcm(m minus u)

    The two mask tables are read-only int64 arrays of shape (2^mu,);
    ``lcm_exps`` is a list of tuples of Python ints, hashable as keys,
    built from the int8 lcm ranks on its first read.  ``lcm_tuples``
    gathers the tuples of the named masks only, from the same ranks,
    which stay: the library reads the lcms that way.
    """

    __slots__ = ("ideal", "mu", "size", "_lcm", "_values", "_lcm_exps",
                 "divisor_mask", "covered_mask")

    def __init__(self, ideal: MonomialIdeal) -> None:
        mu = ideal.mu
        if mu > MAX_TABLE_GENERATORS:
            raise BoundExceededError(
                f"subset tables support at most {MAX_TABLE_GENERATORS} "
                f"generators, got {mu}")
        self.ideal = ideal
        self.mu = mu
        self.size = 1 << mu
        rank, values = _exponent_ranks(ideal)
        nvars = rank.shape[1]

        # lcm ranks by doubling: the masks with top bit b are those below
        # 2^b joined with generator b+1, and mask 0 stays rank 0 (the
        # exponent 0).  Rows are variables.
        lcm = np.zeros((nvars, self.size), np.int8)
        for b in range(mu):
            low = 1 << b
            np.maximum(lcm[:, :low], rank[b, :, None], out=lcm[:, low:2 * low])

        # below[v, r]: the generators whose exponent of variable v has
        # rank at most r; g divides lcm(m) iff it is in below[v, lcm[v, m]]
        # for every v
        bits = np.int64(1) << np.arange(mu, dtype=np.int64)
        below = ((rank[:, :, None] <= np.arange(mu + 1, dtype=np.int8))
                 * bits[:, None, None]).sum(axis=0)
        div = below[0].take(lcm[0])
        for v in range(1, nvars):
            div &= below[v].take(lcm[v])

        # u is covered in m when divisor_mask[m minus u] holds u; for
        # m = u that is the empty mask, whose divisor mask is 0
        cov = np.zeros(self.size, np.int64)
        for b in range(mu):
            bit = 1 << b
            high = bit_halves(cov, b)[1]
            high |= bit_halves(div, b)[0] & bit

        self._lcm = lcm
        self._values = values
        self._lcm_exps = None
        self.divisor_mask = div
        self.covered_mask = cov
        # the tables are cached and shared: an in-place write must raise
        for table in (lcm, div, cov):
            table.flags.writeable = False

    def lcm_tuples(self, masks) -> list[tuple[int, ...]]:
        """The exponent tuples of the lcms of ``masks`` (an int sequence
        or array), by one gather of the lcm ranks; the empty mask's is
        the zero tuple."""
        exps = np.take_along_axis(self._values, self._lcm[:, masks], axis=1)
        return list(zip(*exps.tolist()))

    @property
    def lcm_exps(self) -> list:
        if self._lcm_exps is None:
            self._lcm_exps = [None,
                              *self.lcm_tuples(np.arange(1, self.size))]
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
