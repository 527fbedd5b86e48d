"""Covers of generators and their refinements.

A set C of generators *covers* a member u when m_u divides
lcm(C minus {u}); u is then redundant inside C.  The complete cover of
any C collects every generator dividing lcm(C).  A cover of u is
E-minimal when no proper subset of it covers u (minimal as a set).

The E-minimal covers of every generator are found together, by one
whole-array numpy pass over the subset masks (the OR over one-smaller
subsets, a lattice pass of ``subsets``), and kept in one table per
ideal, with its subset tables (``cover_table``): the union of the
E-minimal covers, each mask with the generators it is an E-minimal
cover of, and the inclusion-minimal members of that union.  Those
minimal sets form the edge set of a clutter (an antichain of subsets);
an order on the generators orients it.  Covers are upward closed, so
the clutter is exactly the set of inclusion-minimal covers: the masks
that cover some member while no one-smaller subset covers any, which
the same pass gives.  ``e_minimal_covers_of``, ``cover_clutter`` and
the minimality tests, obstruction and order search of ``invariants``
all read this one table.  Downstream, an order gives a minimal
resolution exactly when none of these sets is preserved.

The covers listing has one route, ``_listing_rows``: it orders the
masks that cover anything once, by size then lexicographically, with
one numpy ``lexsort``, and hands out one generator's entries at a time
as arrays (the masks, their E-minimal flags from the cover table and
their covered masks), filtered with one boolean array; each listed
mask's E-minimal generators are found once, by one ``searchsorted``
into the table's ascending E-minimal masks.  The ``covers``
command reads a generator's entries when its output reaches that
generator, so it never holds the listing as Python ints; it writes each
entry from per-mask member texts, and its clutter edges are the
table's, in the listing's order.  ``covers_of`` wraps the entries of
the one generator it is asked for, and ``e_minimal_covers_of`` orders
that generator's E-minimal covers the same way.

All of it reads the subset tables' ``covered_mask`` and
``divisor_mask`` as the int64 arrays they are; Python ints appear only
in what a function hands back (one ``tolist`` per generator's covers,
one ``int`` per lookup).  A function given a generator index checks it
before it builds any table.

Enumeration walks all 2^mu subsets via the shared bitmask tables, so
every function here answers up to the tables' bound and refuses above
it, where ``tables_for`` does (``subsets.MAX_TABLE_GENERATORS``),
before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .monomials import MonomialIdeal
from .orders import OrderedIdeal
from .subsets import (SubsetTables, indices_of, mask_of, one_smaller,
                      popcounts, tables_for)

#: the command line's bound on the generator count; in the package
#: ``cli`` is its only reader (the benchmark's input generator reads it
#: too), and the functions here stop only at the subset tables' bound
MAX_ENUMERATION_GENERATORS = 12


@dataclass(frozen=True)
class Cover:
    """A cover: its member set and every member it covers."""

    members: frozenset[int]
    covered: frozenset[int]

    def __post_init__(self) -> None:
        if not self.covered:
            raise ValueError("a cover must cover at least one member")
        if not self.covered <= self.members:
            raise ValueError("covered elements must be members")

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in sorted(self.members)) + "}"


def is_cover_of(members, u: int, ideal: MonomialIdeal) -> bool:
    """True iff the set covers u, i.e. m_u | lcm(members minus u)."""
    mask = mask_of(members, ideal.mu)
    bit = mask_of((u,), ideal.mu)
    if not mask & bit:
        raise ValueError(f"generator {u} is not a member of the set")
    rest = mask ^ bit
    if rest == 0:
        return False
    return bool(tables_for(ideal).divisor_mask[rest] & bit)


def complete_cover(members, ideal: MonomialIdeal) -> frozenset[int]:
    """All generators dividing lcm(members).  Always contains the members."""
    mask = mask_of(members, ideal.mu)
    if mask == 0:
        raise ValueError("complete cover of the empty set is undefined")
    return frozenset(indices_of(int(tables_for(ideal).divisor_mask[mask])))


def _by_size_then_members(masks: np.ndarray, mu: int) -> np.ndarray:
    """The distinct masks by size, then lexicographically by members."""
    # read with generator 1 as the most significant bit, the members
    # ascend lexicographically exactly when that number descends
    reversed_bits = np.zeros_like(masks)
    for b in range(mu):
        reversed_bits |= (masks >> b & 1) << (mu - 1 - b)
    # lexsort's last key is the primary one
    return masks[np.lexsort((-reversed_bits, popcounts(mu)[masks]))]


def _wrap(masks: np.ndarray, covered: np.ndarray) -> tuple[Cover, ...]:
    return tuple(Cover(frozenset(indices_of(m)), frozenset(indices_of(c)))
                 for m, c in zip(masks.tolist(), covered.tolist()))


def _listing_rows(ideal: MonomialIdeal) -> Callable[
        [int], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``rows(u)``: generator u's entries of the listing as arrays, made
    when asked for: the masks that cover u, by size then
    lexicographically, whether each is an E-minimal cover of u, and the
    generators each covers.  The masks that cover anything are ordered
    once, here, and each one's E-minimal generators are looked up once,
    by one search of the cover table's ascending ``eminimal``."""
    tables = tables_for(ideal)
    masks = _by_size_then_members(np.flatnonzero(tables.covered_mask),
                                  tables.mu)
    covered = tables.covered_mask[masks]
    table = cover_table(ideal)
    # a mask past the last E-minimal one reads the first and misses it;
    # with no E-minimal mask, no mask covers anything and none is listed
    at = np.searchsorted(table.eminimal, masks)
    at[at == len(table.eminimal)] = 0
    minimal_for = table._minimal_for[at]
    minimal_for[table.eminimal[at] != masks] = 0

    def rows(u: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        bit = 1 << (u - 1)
        mine = covered & bit != 0
        return masks[mine], minimal_for[mine] & bit != 0, covered[mine]
    return rows


def covers_of(u: int, ideal: MonomialIdeal) -> tuple[Cover, ...]:
    """Every subset that covers u, by size then lexicographically."""
    if not 1 <= u <= ideal.mu:
        raise ValueError(f"generator {u} is not in 1..{ideal.mu}")
    masks, _, covered = _listing_rows(ideal)(u)
    return _wrap(masks, covered)


class _CoverTable:
    """The E-minimal covers of one ideal, found by whole-array passes.

    ``eminimal`` holds the masks that are an E-minimal cover of some
    generator, ascending, as a read-only int64 array, and ``clutter`` its
    inclusion-minimal members, ascending, as Python ints.  Minimality
    and obstruction sizes are read on the clutter: whether some
    E-minimal cover is preserved is the same question on it, because
    subsets of preserved sets are preserved.  So ``analyze``,
    ``radical-gens`` and the searches read only the clutter; the
    ``covers`` command and ``e_minimal_covers_of`` read one generator's
    E-minimal covers at a time as an array (``eminimal_of``), and the
    listing looks its masks up in ``eminimal``.
    """

    __slots__ = ("clutter", "eminimal", "_minimal_for")

    def __init__(self, tables: SubsetTables) -> None:
        covered = tables.covered_mask
        below = one_smaller(covered)
        # a member covered in m is covered in every superset of m, so
        # the covering masks form an up-set.  Its minimal members are
        # E-minimal covers and every E-minimal cover contains one, so
        # they are the clutter; a member of an up-set is minimal iff none
        # of its one-smaller subsets is in it
        self.clutter = tuple(
            np.flatnonzero((covered != 0) & (below == 0)).tolist())
        # so u stays E-minimal in a mask unless a one-smaller subset
        # still covers it (the complement taken in place)
        left = np.invert(below, out=below)
        left &= covered
        eminimal = np.flatnonzero(left)
        # the generators each E-minimal mask is an E-minimal cover of
        self.eminimal, self._minimal_for = eminimal, left[eminimal]
        eminimal.flags.writeable = False

    def eminimal_of(self, u: int) -> np.ndarray:
        """The masks of the E-minimal covers of generator u, ascending."""
        return self.eminimal[self._minimal_for >> (u - 1) & 1 != 0]


def cover_table(ideal: MonomialIdeal) -> _CoverTable:
    """The ideal's E-minimal cover table, kept with its subset tables."""
    return tables_for(ideal).derived(_CoverTable)


def e_minimal_covers_of(u: int, ideal: MonomialIdeal) -> tuple[Cover, ...]:
    """Covers of u with no proper subset covering u."""
    if not 1 <= u <= ideal.mu:
        raise ValueError(f"generator {u} is not in 1..{ideal.mu}")
    masks = _by_size_then_members(cover_table(ideal).eminimal_of(u), ideal.mu)
    return _wrap(masks, tables_for(ideal).covered_mask[masks])


@dataclass(frozen=True)
class OrientedClutter:
    """Edge sets of E-minimal covers, oriented by a generator order."""

    order: OrderedIdeal
    edges: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        for e in self.edges:
            for f in self.edges:
                if e != f and e < f:
                    raise ValueError(
                        f"clutter edges must form an antichain: "
                        f"{sorted(e)} is contained in {sorted(f)}")


def cover_clutter(ordered: OrderedIdeal) -> OrientedClutter:
    """The oriented clutter of all E-minimal covers of the ideal."""
    table = cover_table(ordered.ideal)
    return OrientedClutter(
        ordered, frozenset(frozenset(indices_of(m)) for m in table.clutter))
