"""Independent homology oracle for Betti numbers and resolution checks.

The Betti numbers trust nothing of the preserved-set machinery.  Those
of R/I are read off the Taylor complex: for a multidegree a in the
lcm-lattice, the degree-a strand of (Taylor ⊗ K) has basis
{S ⊆ G(I) : lcm(S) = a} graded by |S|, and the differential keeps
exactly the deletions that do not change the lcm (all other
coefficients land in the maximal ideal and die in K).  beta_{i,a}(R/I)
is the homology rank of that strand at index i.

Before any rank, each strand is cut down by algebraic discrete Morse
theory (Sköldberg 2006; Jöllenbeck & Welker 2009), the route by which
Batzies & Welker (2002) obtain the Lyubeznik resolution from Taylor's.
Let V_a = {j : m_j | a}, the strand's vertex set, and pick a generator
i in V_a.  If lcm(S) = a and i is not in S, then lcm(S + i) = a too, so
S <-> S + i matches every set of the strand that lacks i.  The matched
pairs carry the coefficient +-1 and each pair is toggled by one fixed
element, so the matching is acyclic.  The critical sets are the S that
hold i with lcm(S - i) != a.  A gradient path from a critical c goes
down to some c - j, j != i, and then up along the matching; but c - j
still holds i, so it is either critical or matched with the smaller
c - j - i, and the path ends after one step.  The Morse differential is
therefore the Taylor differential restricted to the critical sets,
which ``_boundary_columns`` builds unchanged (c - i leaves the strand
and drops out).  Its homology is the strand's, so only the critical
sets reach ``linalg``: i is chosen per strand to leave the fewest of
them, and a level with no neighbouring level needs no rank at all.

The resolution checks work per multidegree as well.  A complex of free
modules indexed by faces is exact in degree a iff the simplicial chain
complex of the induced subcomplex on V_a has vanishing reduced homology
in all degrees >= 0.  The faces are the order's preserved masks, read
as the bool array ``order_analysis(ordered).preserved``.  Let g be the
member of V_a ranked first under the order.  If every face F ⊆ V_a has
F △ {g} among the faces, the induced complex (downward closed) is a
cone with apex g and is acyclic: F <-> F △ {g} pairs every face, the
empty one included, with a +-1 coefficient.  On Lyubeznik faces the
cone always holds, because g precedes everything else in V_a and every
divisor of a lies in V_a, so adding g to a face inside V_a creates no
court; that is Lyubeznik's own argument, and production runs no rank
here.  Any other family falls back to ranks, the exact verdict.

A nonempty subset S lies in the class of lcm(S), which is named by its
vertex set: every member of V_a divides a, so lcm(V_a) = a and distinct
multidegrees have distinct vertex sets.  Both the Betti numbers and the
resolution check read this one grouping of the masks (``_lcm_classes``).

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

Every function here reads the subset tables first, so it answers up to
their bound and refuses above it, where ``tables_for`` does.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .betti import QUOTIENT, BettiTable
from .complexes import order_analysis
from .linalg import exact_rank, rank_mod_p
from .monomials import Monomial, MonomialIdeal
from .orders import OrderedIdeal
from .subsets import popcounts, tables_for, up_closure

class _LcmClasses:
    """The ideal's lcm lattice, as classes of subset masks.

    vertex_sets  int64 array: the distinct vertex sets V_a, ascending,
                 one per lattice point a
    exponents    the exponent tuple of each class's a = lcm(V_a)
    class_of     int64 array over the masks 0 .. 2^mu - 1: the index of
                 each nonempty mask's class, -1 for the empty mask
    """

    __slots__ = ("vertex_sets", "exponents", "class_of")

    def __init__(self, ideal: MonomialIdeal) -> None:
        tables = tables_for(ideal)
        divisors = tables.divisor_mask
        # vertex sets are masks themselves, so a table over the masks
        # groups them without a sort; the empty mask's divisor set is
        # empty, and no nonempty mask's is
        index = np.full(tables.size, -1)
        index[divisors[1:]] = 0
        self.vertex_sets = np.flatnonzero(index == 0)
        index[self.vertex_sets] = np.arange(len(self.vertex_sets))
        self.exponents = [tables.lcm_exps[v] for v in self.vertex_sets.tolist()]
        self.class_of = index[divisors]


# one entry, as for the subset tables: a command reads one ideal
@lru_cache(maxsize=1)
def _lcm_classes(ideal: MonomialIdeal) -> _LcmClasses:
    return _LcmClasses(ideal)


def _critical_strands(ideal: MonomialIdeal
                      ) -> dict[tuple[int, ...], dict[int, list[int]]]:
    """Each strand's critical masks by size, under its best matching.

    For every class a and generator i in V_a, count the masks of the
    class that hold i and lose the lcm without it; the generator with
    the fewest (the lowest on a tie) is the class's pivot, and its
    critical masks are listed in ascending order.  Classes with no
    critical mask are left out: their strands are acyclic.
    """
    classes = _lcm_classes(ideal)
    class_of = classes.class_of
    mu = ideal.mu
    masks = np.arange(1, len(class_of))
    cls = class_of[1:]
    n = len(classes.vertex_sets)

    def critical(bit):
        return (masks & bit != 0) & (class_of[masks ^ bit] != cls)

    fewest = np.full(n, len(masks) + 1)
    pivot = np.zeros(n, np.int64)
    for b in range(mu):
        bit = 1 << b
        count = np.bincount(cls[critical(bit)], minlength=n)
        # no mask of a class holds a generator outside its V_a, so that
        # generator's count reads 0; it matches nothing and is never a
        # pivot
        better = (count < fewest) & (classes.vertex_sets & bit != 0)
        fewest[better] = count[better]
        pivot[better] = bit
    chosen = masks[critical(pivot[cls])]

    strands: dict[tuple[int, ...], dict[int, list[int]]] = {}
    for mask, c, t in zip(chosen.tolist(), class_of[chosen].tolist(),
                          popcounts(mu)[chosen].tolist()):
        strands.setdefault(classes.exponents[c], {}).setdefault(
            t, []).append(mask)
    return strands


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
                 prime: int | None = None) -> BettiTable:
    """Multigraded Betti numbers of R/I from Morse-reduced Taylor strands.

    Characteristic zero by default (exact integer elimination); pass a
    prime to compute over GF(p) instead.
    """
    rank = _rank_function(prime)
    counts: dict[tuple[int, tuple[int, ...]], int] = {
        (0, (0,) * len(ideal.context)): 1}
    for exps, by_size in _critical_strands(ideal).items():
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
    faces = np.flatnonzero(order_analysis(ordered).preserved)
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


def _cones(preserved: np.ndarray, vertex_sets: np.ndarray,
           apexes: np.ndarray) -> np.ndarray:
    """Whether the faces (``preserved``'s marks) inside each vertex set
    form a cone over its apex bit: every such face F has F ^ g among the
    faces.  Per apex, the faces whose partner is missing are marked and
    up-closed over the subset lattice; a vertex set is a cone exactly
    when no marked face lies inside it.
    """
    masks = np.arange(len(preserved))
    cones = np.empty(len(vertex_sets), bool)
    for bit in set(apexes.tolist()):
        lone = up_closure(preserved & ~preserved[masks ^ bit])
        at = apexes == bit
        cones[at] = ~lone[vertex_sets[at]]
    return cones


def _acyclic_verdicts(preserved: np.ndarray, vertex_sets: np.ndarray,
                      apexes: np.ndarray, rank) -> list[bool]:
    """Acyclicity of the faces inside each vertex set.

    The faces, marked by ``preserved``, must be downward closed, as an
    order's are; then a cone over the set's apex is acyclic, and any
    other family is decided by ``_acyclic``'s ranks.
    """
    verdicts = _cones(preserved, vertex_sets, apexes).tolist()
    for k, cone in enumerate(verdicts):
        if not cone:
            faces = np.flatnonzero(preserved)
            inside = faces[faces & ~vertex_sets[k] == 0]
            verdicts[k] = _acyclic(inside.tolist(), rank)
    return verdicts


def verify_resolution(ordered: OrderedIdeal, *,
                      prime: int | None = None) -> bool:
    """True iff the Lyubeznik complex resolves R/I.

    Exactness in every multidegree of the lcm-lattice.
    """
    return all(ok for _, ok in verify_resolution_report(ordered, prime=prime))


def verify_resolution_report(ordered: OrderedIdeal, *,
                             prime: int | None = None
                             ) -> tuple[tuple[Monomial, bool], ...]:
    """Per-multidegree acyclicity verdicts, sorted by (degree, exponents)."""
    ideal = ordered.ideal
    classes = _lcm_classes(ideal)
    analysis = order_analysis(ordered)
    # each vertex set's apex: its member ranked first, by its least rank
    word = np.array(ordered.order)
    apexes = 1 << (word[analysis.least[classes.vertex_sets]] - 1)
    verdicts = _acyclic_verdicts(analysis.preserved, classes.vertex_sets,
                                 apexes, _rank_function(prime))
    report = sorted(zip(classes.exponents, verdicts),
                    key=lambda e: (sum(e[0]), e[0]))
    return tuple((Monomial(ideal.context, exps), ok) for exps, ok in report)
