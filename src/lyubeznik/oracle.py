"""Independent homology oracle for Betti numbers and resolution checks.

The Betti numbers trust nothing of the preserved-set machinery.  Those
of R/I are read off the Taylor complex: for a multidegree a in the
lcm-lattice, the degree-a strand of (Taylor ⊗ K) has basis
{S ⊆ G(I) : lcm(S) = a} graded by |S|, and the differential keeps
exactly the deletions that do not change the lcm (all other
coefficients land in the maximal ideal and die in K).  beta_{i,a}(R/I)
is the homology rank of that strand at index i, obtained from two
matrix ranks, computed exactly.

The resolution checks work per multidegree as well.  A complex of free
modules indexed by faces is exact in degree a iff the simplicial chain
complex of the induced subcomplex on V_a = {i : m_i | a} has vanishing
reduced homology in all degrees >= 0.  Distinct multidegrees with the
same V_a give the same subcomplex, so the work is deduplicated by V_a.
The faces under test are the order's face list
(``complexes.order_analysis(ordered).faces``), read as masks.

Every differential is handed around as sparse columns: each face, a
bitmask, becomes a map {smaller face: +-1} over the deletions that stay
in the family (``_boundary_columns``), so no dense matrix is built.
The homology computations give these columns to ``linalg``; the
d^2 = 0 check of the Lyubeznik complex composes them, face by face.

The parenthetical sign convention throughout: deleting the j-th member
(in increasing bit position, 1-based) contributes (-1)^(j+1).  For the
d^2 = 0 check the faces are first relabelled into rank positions, so
that the members count in increasing rank under the order.  Columns
store only that sign; the monomial part of a boundary coefficient is
lcm(face)/lcm(smaller face) and telescopes along two-step paths, so
checking that the signs compose to zero checks the real composition
too.
"""

from __future__ import annotations

import numpy as np

from .betti import QUOTIENT, BettiTable
from .complexes import order_analysis
from .linalg import exact_rank, rank_mod_p
from .monomials import BoundExceededError, Monomial, MonomialIdeal
from .orders import OrderedIdeal
from .subsets import tables_for

DEFAULT_MAX_ORACLE_GENERATORS = 12


def _check_bound(ideal: MonomialIdeal, max_generators: int) -> None:
    if ideal.mu > max_generators:
        raise BoundExceededError(
            f"the homology oracle enumerates 2^{ideal.mu} subsets, above its "
            f"bound mu <= {max_generators}; no command-line option lifts it "
            "(the library functions take a max_generators argument)")


def _boundary_columns(masks: list[int], below: set[int]
                      ) -> list[dict[int, int]]:
    """One sparse column per face: {smaller face: sign}.

    Only the deletions that land in ``below`` are kept; deleting the
    j-th lowest bit of a face has sign (-1)^(j+1).
    """
    columns = []
    for mask in masks:
        column = {}
        sign = 1
        rest = mask
        while rest:
            bit = rest & -rest
            if mask ^ bit in below:
                column[mask ^ bit] = sign
            sign = -sign
            rest ^= bit
        columns.append(column)
    return columns


def _strand_homology(masks_by_size: dict[int, list[int]],
                     rank) -> dict[int, int]:
    """Homology rank at each level: dim - rank(out) - rank(in).

    ``masks_by_size[t]`` lists the faces of size t as bitmasks.  The
    differential out of level t is handed to ``rank`` as the
    ``_boundary_columns`` of its faces against level t-1.
    """
    ranks = {}
    for t, masks in masks_by_size.items():
        if t - 1 in masks_by_size:
            ranks[t] = rank(_boundary_columns(masks, set(masks_by_size[t - 1])))
    hom = {}
    for t, basis in masks_by_size.items():
        h = len(basis) - ranks.get(t, 0) - ranks.get(t + 1, 0)
        if h:
            hom[t] = h
    return hom


def _rank_function(prime: int | None):
    if prime is None:
        return exact_rank
    return lambda vectors: rank_mod_p(vectors, prime)


def taylor_betti(ideal: MonomialIdeal, *,
                 max_generators: int = DEFAULT_MAX_ORACLE_GENERATORS,
                 prime: int | None = None) -> BettiTable:
    """Multigraded Betti numbers of R/I from Taylor-strand homology.

    Characteristic zero by default (exact integer elimination); pass a
    prime to compute over GF(p) instead.
    """
    _check_bound(ideal, max_generators)
    tables = tables_for(ideal)
    rank = _rank_function(prime)

    strands: dict[tuple[int, ...], dict[int, list[int]]] = {}
    for mask in range(1, tables.size):
        exps = tables.lcm_exps[mask]
        strands.setdefault(exps, {}).setdefault(
            mask.bit_count(), []).append(mask)

    counts: dict[tuple[int, tuple[int, ...]], int] = {
        (0, (0,) * len(ideal.context)): 1}
    for exps, by_size in strands.items():
        for t, h in _strand_homology(by_size, rank).items():
            counts[(t, exps)] = h
    return BettiTable.from_multigraded(QUOTIENT, ideal.context, counts)


def _composes_to_zero(masks: list[int]) -> bool:
    """True iff d . d vanishes on a face family given as masks.

    The columns of all levels are built at once (a deletion of a face
    lands one level down, so the whole family stands in for the level
    below); each face's column is composed with its smaller faces'
    columns, and any nonzero sum fails the check.
    """
    columns = dict(zip(masks, _boundary_columns(masks, set(masks))))
    for column in columns.values():
        total: dict[int, int] = {}
        for smaller, a in column.items():
            for lower, b in columns[smaller].items():
                total[lower] = total.get(lower, 0) + a * b
        if any(total.values()):
            return False
    return True


def verify_chain_complex(ordered: OrderedIdeal) -> bool:
    """Check d_{t-1} . d_t = 0 across the Lyubeznik complex.

    Each face is relabelled into rank positions (bit k is the generator
    at rank k), so the deletion signs count members in increasing rank.
    """
    faces = np.array(order_analysis(ordered).faces, np.int64)
    ranked = np.zeros_like(faces)
    for rank, g in enumerate(ordered.order):
        ranked |= ((faces >> (g - 1)) & 1) << rank
    return _composes_to_zero(ranked.tolist())


def _acyclic(face_masks: list[int], rank) -> bool:
    """Vanishing reduced homology in degrees >= 0 for a face-mask family.

    Level s=0 is the empty face; homology there is H~_{-1} shifted, and
    it vanishes exactly when the complex has a vertex.
    """
    by_size: dict[int, list[int]] = {}
    for m in face_masks:
        by_size.setdefault(m.bit_count(), []).append(m)
    return not _strand_homology(by_size, rank)


def verify_resolution(ordered: OrderedIdeal, *,
                      max_generators: int = DEFAULT_MAX_ORACLE_GENERATORS,
                      prime: int | None = None) -> bool:
    """True iff the Lyubeznik complex resolves R/I.

    Exactness in every multidegree of the lcm-lattice; multidegrees
    sharing a vertex set share one homology computation.
    """
    return all(ok for _, ok in
               verify_resolution_report(ordered, max_generators=max_generators,
                                        prime=prime))


def verify_resolution_report(ordered: OrderedIdeal, *,
                             max_generators: int = DEFAULT_MAX_ORACLE_GENERATORS,
                             prime: int | None = None
                             ) -> tuple[tuple[Monomial, bool], ...]:
    """Per-multidegree acyclicity verdicts, sorted by (degree, exponents)."""
    ideal = ordered.ideal
    _check_bound(ideal, max_generators)
    tables = tables_for(ideal)
    rank = _rank_function(prime)
    face_masks = order_analysis(ordered).faces

    lattice: dict[tuple[int, ...], int] = {}
    for mask in range(1, tables.size):
        exps = tables.lcm_exps[mask]
        lattice.setdefault(exps, tables.divisor_mask[mask])

    verdict_by_vertexset: dict[int, bool] = {}
    report = []
    for exps in sorted(lattice, key=lambda e: (sum(e), e)):
        vset = lattice[exps]
        if vset not in verdict_by_vertexset:
            members = [m for m in face_masks if m & vset == m]
            verdict_by_vertexset[vset] = _acyclic(members, rank)
        report.append((Monomial(ideal.context, exps), verdict_by_vertexset[vset]))
    return tuple(report)
