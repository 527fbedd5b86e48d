"""Covers of generators and their refinements.

A set C of generators *covers* a member u when m_u divides
lcm(C minus {u}); u is then redundant inside C.  The complete cover of
any C collects every generator dividing lcm(C).  Two refinements:

* E-minimal: no proper subset of C covers u (minimal as a set);
* M-minimal: no cover of anything has an lcm properly dividing lcm(C)
  (minimal in multidegree).

The E-minimal covers, collected over all generators and deduplicated by
member set, form the edge set of a clutter (an antichain of subsets);
an order on the generators orients it.  Downstream, an order gives a
minimal resolution exactly when none of these edges is preserved.

Enumeration walks all 2^mu subsets via the shared bitmask tables, which
is exact and fast at the sizes this package targets; it refuses above
``MAX_ENUMERATION_GENERATORS`` (library callers pass ``max_generators``
to lift it, up to the table bound; the command line has no such option).
"""

from __future__ import annotations

from dataclasses import dataclass

from .monomials import BoundExceededError, MonomialIdeal
from .orders import OrderedIdeal
from .subsets import indices_of, iter_bits, mask_of, tables_for

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

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in sorted(self.members)) + "}"


def _check_enumeration_bound(ideal: MonomialIdeal, max_generators: int) -> None:
    if ideal.mu > max_generators:
        raise BoundExceededError(
            f"cover enumeration over 2^{ideal.mu} subsets exceeds the bound "
            f"mu <= {max_generators}; no command-line option lifts it (the "
            "library functions take a max_generators argument)")


def _cover_at(mask: int, ideal: MonomialIdeal) -> Cover:
    tables = tables_for(ideal)
    covered = tables.covered_mask[mask]
    return Cover(frozenset(indices_of(mask)), frozenset(indices_of(covered)))


def is_cover_of(members, u: int, ideal: MonomialIdeal) -> bool:
    """True iff the set covers u, i.e. m_u | lcm(members minus u)."""
    mask = mask_of(members)
    bit = 1 << (u - 1)
    if not mask & bit:
        raise ValueError(f"generator {u} is not a member of the set")
    rest = mask ^ bit
    if rest == 0:
        return False
    return bool(tables_for(ideal).divisor_mask[rest] & bit)


def complete_cover(members, ideal: MonomialIdeal) -> frozenset[int]:
    """All generators dividing lcm(members).  Always contains the members."""
    mask = mask_of(members)
    if mask == 0:
        raise ValueError("complete cover of the empty set is undefined")
    return frozenset(indices_of(tables_for(ideal).divisor_mask[mask]))


def _canonical(covers: list[int], ideal: MonomialIdeal) -> tuple[Cover, ...]:
    ordered = sorted(covers, key=lambda m: (bin(m).count("1"), indices_of(m)))
    return tuple(_cover_at(m, ideal) for m in ordered)


def covers_of(u: int, ideal: MonomialIdeal, *,
              max_generators: int = MAX_ENUMERATION_GENERATORS) -> tuple[Cover, ...]:
    """Every subset that covers u, by size then lexicographically."""
    _check_enumeration_bound(ideal, max_generators)
    tables = tables_for(ideal)
    bit = 1 << (u - 1)
    found = [mask for mask in range(tables.size)
             if mask & bit and tables.covered_mask[mask] & bit]
    return _canonical(found, ideal)


def _e_minimal_masks_of(u: int, ideal: MonomialIdeal) -> list[int]:
    tables = tables_for(ideal)
    bit = 1 << (u - 1)
    out = []
    for mask in range(tables.size):
        if not (mask & bit and tables.covered_mask[mask] & bit):
            continue
        # covers of u are upward closed, so dropping one element at a
        # time detects any covering proper subset
        for b in iter_bits(mask ^ bit):
            if tables.covered_mask[mask ^ (1 << b)] & bit:
                break
        else:
            out.append(mask)
    return out


def e_minimal_covers_of(u: int, ideal: MonomialIdeal, *,
                        max_generators: int = MAX_ENUMERATION_GENERATORS
                        ) -> tuple[Cover, ...]:
    """Covers of u with no proper subset covering u."""
    _check_enumeration_bound(ideal, max_generators)
    return _canonical(_e_minimal_masks_of(u, ideal), ideal)


def m_minimal_covers(ideal: MonomialIdeal, *,
                     max_generators: int = MAX_ENUMERATION_GENERATORS
                     ) -> tuple[Cover, ...]:
    """Covers whose lcm no other cover's lcm properly divides.

    A standalone query: nothing downstream consumes it.
    """
    _check_enumeration_bound(ideal, max_generators)
    tables = tables_for(ideal)
    cover_masks = [m for m in range(tables.size) if tables.covered_mask[m]]
    lcms = [tables.lcm_exps[m] for m in cover_masks]
    out = []
    for mask, lm in zip(cover_masks, lcms):
        dominated = False
        for other in lcms:
            if other != lm and all(a <= b for a, b in zip(other, lm)):
                dominated = True
                break
        if not dominated:
            out.append(mask)
    return _canonical(out, ideal)


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

    def canonical_edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted((tuple(sorted(e)) for e in self.edges),
                            key=lambda t: (len(t), t)))


def cover_clutter(ordered: OrderedIdeal, *,
                  max_generators: int = MAX_ENUMERATION_GENERATORS
                  ) -> OrientedClutter:
    """The oriented clutter of all E-minimal covers of the ideal."""
    ideal = ordered.ideal
    _check_enumeration_bound(ideal, max_generators)
    masks: set[int] = set()
    for u in ideal.indices():
        masks.update(_e_minimal_masks_of(u, ideal))
    # deduplicated by member set; drop any set containing another so the
    # clutter invariant holds even if E-minimality alone did not give an
    # antichain
    kept = [m for m in masks
            if not any(other != m and other & m == other for other in masks)]
    edges = frozenset(frozenset(indices_of(m)) for m in kept)
    return OrientedClutter(ordered, edges)
