"""Bitmask tables over the subset lattice of a generator set.

Subsets of the generators {1..mu} are encoded as mu-bit integers, bit
(i-1) standing for generator i.  The divisor sets and cover membership
of every subset depend only on the ideal; they are tabulated once here
and shared by every total order: per-order work then reduces to rank
comparisons against these masks.  What is derived from the tables
alone (the cover table, the searches' closed masks, the oracle's lcm
classes and strands) is kept with them (``SubsetTables.derived``), so
the one entry of ``tables_for`` decides how long an ideal's state lives.

The tables are built by whole-array numpy passes over the 2^mu masks,
a constant number per generator or variable, and hold no lcm.  A
generator g divides lcm(m) exactly when, for every variable, some
member of m has an exponent at least g's; for each variable, the
generators whose exponent is at most a member's form nested sets, and
their OR over m's members is built for all masks by doubling over the
bits, on a (variables, 2^mu) array.  The divisor masks are its AND
over the variables; the cover masks take one OR per bit over the split
of the masks by that bit (``bit_pairs``).  These mask passes run on
the smallest unsigned dtype that holds mu bits (at most a quarter of
int64's bytes), and the two mask tables are widened once into the
read-only int64 arrays they are kept as, so the consumers' numpy
passes read them as they are; a public function that hands back one
entry converts it to a Python int.  A set's possible courts are its
divisor mask less its members.  The generators' int64 exponent rows
are kept with the tables, and the lcms become exponent tuples of
Python ints, exact up to ``EXPONENT_LIMIT``, only for the masks a
caller names, by one masked maximum of the rows per generator
(``lcm_tuples``, the columns of ``lcm_matrix``): the Betti counts
from preserved sets (``invariants``) compute their faces' tuples and
the oracle its lattice points', and hash them as dict keys; the oracle
keeps its lattice points' matrix as well, by which ``verify`` orders
its rows.  ``lcm_exps``, the tuples of all 2^mu masks from the same
call, is built on its first read (or ``lcm_monomial``'s), and nothing
in the library reads it: the benchmark's generator, tracer and output
checks and the Euler-characteristic check past the bound (``ci/``)
do.  The complex, the covers and the order searches read no lcm tuples
at all.  The
lattice passes other modules need are here too, one OR per bit each
(``up_closure`` and ``one_smaller``), and the split they make of a
mask array into the masks without and with a bit (``bit_pairs``),
which the tables' covered-mask pass reads as well: no other module
reshapes a mask array.  The split decides every pass's memory layout.
The masks without bit b come in runs of 2^b, so one reshaped pair of
views walks rows of 2^b elements; at bits 1 and 2 of a long array
numpy's cost per row is most of such a pass, and the split hands out
instead one pair of long strided columns per offset in the run.
``lone_bits`` reads, for the marked masks of a bool array only, the
bits at which each one's toggle is unmarked, by gathers over those
masks.  Its one reader is the order's analysis
(``complexes._OrderAnalysis.lone``), which hands an order's faces to
it; the complex reads its facets, and the oracle both of its
resolution certificates, off the table it keeps.

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


# one entry per generator count, at most 2^16 bytes each: every
# per-order analysis and oracle call reads it
@lru_cache(maxsize=None)
def popcounts(mu: int) -> np.ndarray:
    """Read-only int8 array of the popcounts of the masks 0 .. 2^mu - 1."""
    counts = np.zeros(1, np.int8)
    for _ in range(mu):
        # masks with the next bit set repeat the lower half plus one
        counts = np.concatenate([counts, counts + 1])
    counts.flags.writeable = False
    return counts


# the layout of a lattice pass: below bit _COLUMN_BITS, on arrays of at
# least _COLUMN_SIZE masks, a bit's views are 2^b long strided columns,
# and otherwise one reshaped pair.  Measured as one in-place OR of the
# high views with the low ones (2-vCPU VM, numpy 2.4; bool, uint16 and
# int64 alike): at 2^12 masks, bit 1's reshaped pair took 16-20 us and
# its two columns 4-5 us, bit 2's 10 us against 6-9 us, while bit 3's
# eight columns took 8-16 us against the pair's 6-9 us; at 2^16 masks,
# bits 1 and 2 took 224-258 and 125-140 us against 27-53 us.  At 2^11
# masks bit 2 is a tie, and bit 0's column pair is the reshaped one.
_COLUMN_BITS = 3
_COLUMN_SIZE = 1 << 12


def bit_pairs(values: np.ndarray, b: int
              ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(low, high) pairs of views of an array over the 2^mu masks: low
    holds its entries at masks without bit b, high the entries at the
    same masks with bit b, in the same order and shape, and the pairs
    hold every mask once between them; writes through them write
    ``values``.  On a long array a low bit comes as one pair of strided
    columns per offset below 2^b, and otherwise as one reshaped pair."""
    run = 1 << b
    if b < _COLUMN_BITS and len(values) >= _COLUMN_SIZE:
        rows = values.reshape(-1, 2 * run)
        return [(rows[:, j], rows[:, run + j]) for j in range(run)]
    halves = values.reshape(-1, 2, run)
    return [(halves[:, 0], halves[:, 1])]


def up_closure(marked: np.ndarray) -> np.ndarray:
    """OR into every mask, in place, the marks of all its subsets, and
    return ``marked``: a bool array over the 2^mu masks, or an unsigned
    int array whose bits are separate marks, closed by one OR per bit
    (the zeta transform over the subset lattice)."""
    for b in range(len(marked).bit_length() - 1):
        # masks with bit b set take the mark of the mask without it
        for low, high in bit_pairs(marked, b):
            high |= low
    return marked


def one_smaller(values: np.ndarray) -> np.ndarray:
    """A new array of ``values``' dtype over the 2^mu masks: entry m is
    the OR of ``values`` over m's one-smaller subsets, 0 for m = 0."""
    out = np.zeros_like(values)
    for b in range(len(values).bit_length() - 1):
        for (_, high), (low, _) in zip(bit_pairs(out, b),
                                       bit_pairs(values, b)):
            high |= low
    return out


# marked masks per block of ``lone_bits``' gathers: at mu 20 a block's
# index, bool and bit arrays take about 1 MB.  Measured on a 2-vCPU VM
# (numpy 2.4): one whole-block gather halves the cost of one gather per
# bit at 256-704 marks, and at 786,432 marks (the C20 edge ideal's
# faces) blocks of 2^12 took 29 ms, 2^10 42 ms and 2^16 32 ms.
_LONE_BLOCK = 1 << 12


def lone_bits(marked: np.ndarray) -> np.ndarray:
    """The lone bits of each mask marked in a bool array over the 2^mu
    masks, in ascending order of the masks: bit g is set when m ^ g is
    not marked.  They take the smallest unsigned dtype that holds mu
    bits.

    Per block of marked masks, each mask toggled at every bit makes one
    (mu, block) index array, and one gather reads which toggles are
    marked; the bits of the unmarked ones add up to the lone bits.  The
    cost follows the marked masks, not the 2^mu lattice, and no array
    of the marked masks is kept: ``np.flatnonzero(marked)`` lists them,
    and ``marked`` as a bool index scatters the bits back to them."""
    narrow = np.min_scalar_type(len(marked) - 1)
    bits = 1 << np.arange(len(marked).bit_length() - 1)[:, None]
    weights = bits.astype(narrow)
    masks = np.flatnonzero(marked)
    lone = np.empty(len(masks), narrow)
    for start in range(0, len(masks), _LONE_BLOCK):
        block = slice(start, start + _LONE_BLOCK)
        unmarked = ~marked.take(masks[block] ^ bits)
        # distinct bits: their sum is their OR
        lone[block] = (unmarked * weights).sum(axis=0, dtype=narrow)
    return lone


def _divisor_masks(rows: np.ndarray, narrow: np.dtype) -> np.ndarray:
    """The generators dividing the lcm of each mask, as a ``narrow``
    array over the 2^mu masks, from the (mu, n) exponent rows.

    g divides lcm(m) iff every variable has a member of m whose
    exponent is at least g's.  ``at_most[i, v]`` holds the generators
    whose exponent of v is at most generator i+1's; their OR over m's
    members is taken for all masks by doubling over the bits (the masks
    with top bit b are those below 2^b joined with generator b+1), and
    the divisor mask is its AND over the variables.  No generator is 1,
    so none divides the empty mask's lcm.  The (n, 2^mu) array of ORs
    is freed on return, before the tables are widened.
    """
    mu = len(rows)
    bits = np.ones(1, narrow) << np.arange(mu, dtype=narrow)
    at_most = ((rows[None, :, :] <= rows[:, None, :])
               * bits[None, :, None]).sum(axis=1, dtype=narrow)
    reach = np.zeros((rows.shape[1], 1 << mu), narrow)
    for b in range(mu):
        low = 1 << b
        np.bitwise_or(reach[:, :low], at_most[b, :, None],
                      out=reach[:, low:2 * low])
    return np.bitwise_and.reduce(reach, axis=0)


class SubsetTables:
    """Order-free per-ideal tables indexed by subset mask.

    divisor_mask[m]  generators dividing lcm(m) (the complete cover of m):
                     its members and the possible courts of m
    covered_mask[m]  members u of m with m_u | lcm(m minus u)

    The two mask tables are read-only int64 arrays of shape (2^mu,).
    The lcms are not tabulated: ``lcm_tuples`` computes those of the
    masks a caller names from the generators' exponent rows, and
    ``lcm_exps``, a list of tuples of Python ints for every mask (None
    for mask 0), is built by it on its first read.
    """

    __slots__ = ("ideal", "mu", "size", "_rows", "_lcm_exps", "_derived",
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
        rows = np.array([m.exponents for m in ideal.gens], np.int64)

        # the mask passes run on the smallest unsigned dtype that holds mu
        # bits, uint16 at most, and the tables are widened once at the end:
        # at mu 14 and 16 the build takes about a third less time
        narrow = np.min_scalar_type(self.size - 1)
        div = _divisor_masks(rows, narrow)

        # u is covered in m when divisor_mask[m minus u] holds u; for
        # m = u that is the empty mask, whose divisor mask is 0
        cov = np.zeros(self.size, narrow)
        for b in range(mu):
            bit = 1 << b
            for (_, high), (low, _) in zip(bit_pairs(cov, b),
                                           bit_pairs(div, b)):
                high |= low & bit
        div, cov = div.astype(np.int64), cov.astype(np.int64)

        self._rows = rows
        self._lcm_exps = None
        self._derived = {}
        self.divisor_mask = div
        self.covered_mask = cov
        # the tables are cached and shared: an in-place write must raise
        for table in (div, cov):
            table.flags.writeable = False

    def lcm_matrix(self, masks) -> np.ndarray:
        """The exponents of the lcms of ``masks`` (an int sequence or
        array), an int64 array with one column per mask and one row per
        variable: one masked maximum of the exponent rows per
        generator.  The empty mask's column is zero."""
        masks = np.asarray(masks, np.int64)
        held = masks >> np.arange(self.mu)[:, None] & 1 != 0
        exps = np.zeros((self._rows.shape[1], len(masks)), np.int64)
        for row, member in zip(self._rows, held):
            np.maximum(exps, row[:, None], out=exps, where=member)
        return exps

    def lcm_tuples(self, masks) -> list[tuple[int, ...]]:
        """The columns of ``lcm_matrix(masks)``, as tuples of Python
        ints."""
        return list(zip(*self.lcm_matrix(masks).tolist()))

    def derived(self, build):
        """``build(self)``, built once and kept as long as the tables."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

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


# one entry: a command reads one ideal, and more entries would hold
# 2^mu tables for every ideal a process has seen
@lru_cache(maxsize=1)
def tables_for(ideal: MonomialIdeal) -> SubsetTables:
    return SubsetTables(ideal)
