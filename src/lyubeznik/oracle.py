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
hold i with lcm(S - i) != a.  Since lcm(S - i) = lcm(S) exactly when
m_i divides lcm(S - i), the matching is the cover relation: S is
critical when it holds i and i is not covered in S (the subset tables'
``covered_mask``), and the choice of i below counts these uncovered
members class by class.  A gradient path from a critical c goes
down to some c - j, j != i, and then up along the matching; but c - j
still holds i, so it is either critical or matched with the smaller
c - j - i, and the path ends after one step.  The Morse differential is
therefore the Taylor differential restricted to the critical sets,
which ``_boundary_columns`` builds unchanged (c - i leaves the strand
and drops out).  Its homology is the strand's, so only the critical
sets reach ``linalg``: i is chosen per strand to leave the fewest of
them, and a level with no neighbouring level needs no rank at all.  A
strand left with one level (most of them: 74-85% on the benchmark's
squarefree ideals at mu 10-12) has no differential, and its count of
critical sets is its homology without entering the rank path.  The
strands do not depend on the field and are cached per ideal, with its
subset tables, so the tables over each field and the projective
dimension share them.

Fields.  The strands' homology is ranked once per ideal, over Z, by the
fraction-free loop of ``linalg.certified_rank``, and kept with the
strands (``_Strands.homology``).  The table over Q reads it as it is.
Each strand also keeps its certificate: the landing gcds and stored
leading coefficients of its pivots that are not +-1.  Its ranks, and
so its homology, are the same over GF(p) for every prime p that
divides none of them (the ``linalg`` docstring says why), so a table
over GF(p) re-ranks with ``rank_mod_p`` only the strands whose
certificate p divides; where p divides none, it is the table over Q
itself.  Each table is built once per ideal (``_Strands.table``).  On
the benchmark's squarefree ideals at mu <= 14 every certificate is
empty, and no strand is ranked twice.
The certificate cannot be skipped: the Stanley-Reisner ideal of the
six-vertex real projective plane has beta_{3,6} = beta_{4,6} = 1 over
GF(2) only, since by Hochster's formula its strand at x1*...*x6
carries the reduced homology of RP^2 (Miller & Sturmfels 2005,
Cor. 5.12), and its certificate there names 2.

The projective dimension, which a search holds as ``projdim`` (the
floor of its least length) and ``analyze`` reads for its ara bound, is
the top level with homology in any strand, and no Betti table is
built for it (``_projective_dimension``).  Once a table has ranked the
strands, it is read off their homology over the field, by the rule
above; before that, the levels are walked from the top down, so that a
search, which builds no table, ranks no more than it needs.  While
every strand is exact above level t, the rank of the differential into
level t is the alternating sum of the dimensions above it, so the
homology at t vanishes exactly when the differential out of t has the
rank dim_t less that sum.  The counts decide this alone when that rank
is 0 or exceeds dim_{t-1}; only the other strands are ranked, and the
walk stops at the first level with homology.

The resolution check reads two certificates off the order's faces and
takes no rank and no field.  Both are Lyubeznik's own arguments, and
neither depends on how the generators are numbered.  A face F is lone
at g when F ^ g is not a face.  The order's analysis keeps, for each
face, the bitmask of the generators it is lone at
(``order_analysis(ordered).lone``, built by ``subsets.lone_bits`` with
one gather over the faces per block of them), and both certificates
are read off that one table, so their cost follows the faces, not the
2^mu masks: 444 of 65,536 masks on the benchmark pool's c16-00, 256 of
1,024 on o10-00.

d^2 = 0 (``verify_chain_complex``) is read from closure under subsets.
If every one-smaller subset of a face is a face, every deletion in a
face's Taylor boundary lands in the family, so the faces span a
subcomplex of the Taylor resolution and inherit its d^2 = 0.  An
order's faces are closed by definition (a set is preserved when none of
its subsets is broken), so the check asks that no face be lone at one
of its own members: one AND of the faces with their lone bits.  A
family that is not closed reads false even where its restricted
differential squares to zero, as on {}, {1,2}, whose two levels are not
adjacent: the certificate is the stronger statement.  No order makes
such a family, so that verdict would mean a wrong preserved table.
The verdict is a by-product of the table the cones read.

Exactness (``verify_resolution_report``) works per multidegree.  A
complex of free modules indexed by faces is exact in degree a iff the
simplicial chain complex of the induced subcomplex on V_a has vanishing
reduced homology in all degrees >= 0.  Let g be the member of V_a
ranked first under the order.  If every face F ⊆ V_a has F △ {g} among
the faces, the induced complex (downward closed) is a cone with apex g
and is acyclic: F <-> F △ {g} pairs every face, the empty one included,
with a +-1 coefficient.  On an order's faces the cone always holds.
Any D ⊆ F ∪ {g} that holds g has min(D) = g, and a court of D would
divide lcm(D), so it would lie in V_a and precede g; none does, so
F ∪ {g} is preserved.  The cone is therefore the verdict.  A family
that is not such a cone reads false: no order makes one, so that
verdict would mean a wrong preserved table.

All the cones are read at once, not one closure per apex: the faces'
lone bits are scattered into one array over the masks, in the smallest
unsigned dtype that holds mu bits, and one up-closure ORs them over the
subset lattice (``_cone_verdicts``).  V_a is a cone over g exactly when
bit g is clear at V_a.

A nonempty subset S lies in the class of lcm(S), which is named by its
vertex set: every member of V_a divides a, so lcm(V_a) = a and distinct
multidegrees have distinct vertex sets.  Both the Betti numbers and the
exactness check read this one grouping of the masks (``_lcm_classes``).
It names each lattice point by the exponent tuple of its vertex set
alone, computed from the generators' exponent rows for these masks
only (``SubsetTables.lcm_tuples``): the oracle never builds the tuples
of all 2^mu masks (``lcm_exps``).  The classes also keep each lattice
point's ``monomial_text`` (``texts``), written on first read and shared
by every request on the ideal, which ``oracle-betti``'s multigraded
rows over every field and ``verify``'s rows write.  ``verify`` writes
the rows of ``_verify_rows``, (exponent tuple, verdict) pairs, and
``verify_resolution_report`` makes a ``Monomial`` of each tuple for
library callers.  ``_verify_rows`` sorts the lattice points by
(degree, exponents) itself: ``verify`` runs once per ideal, so nothing
would read a kept order twice.

Every differential the homology computations rank is handed to
``linalg`` as sparse columns: each face, a bitmask, becomes a map
{smaller face: +-1} over the deletions that stay in the family
(``_boundary_columns``), so no dense matrix is built.  Deleting the
j-th member (in increasing bit position, 1-based) contributes
(-1)^(j+1).  A kept deletion keeps the lcm, so the monomial part of its
coefficient is 1 and the sign is the whole coefficient.

Every function here reads the subset tables first, so it answers up to
their bound and refuses above it, where ``tables_for`` does.
"""

from __future__ import annotations

import numpy as np

from .betti import BettiTable
from .complexes import order_analysis
from .linalg import certified_rank, check_prime, exact_rank, rank_mod_p
from .monomials import Monomial, MonomialIdeal, monomial_text
from .orders import OrderedIdeal
from .subsets import SubsetTables, popcounts, tables_for, up_closure

class _Texts(dict):
    """Each lattice point's ``monomial_text``, keyed by its exponent
    tuple and written on its first read."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        super().__init__()
        self.names = names

    def __missing__(self, exps: tuple[int, ...]) -> str:
        text = self[exps] = monomial_text(self.names, exps)
        return text


class _LcmClasses:
    """The ideal's lcm lattice, as classes of subset masks.

    vertex_sets  int64 array: the distinct vertex sets V_a, ascending,
                 one per lattice point a
    exponents    the exponent tuple of each class's a = lcm(V_a)
    class_of     int64 array over the masks 0 .. 2^mu - 1: the index of
                 each nonempty mask's class, -1 for the empty mask

    texts        the ``monomial_text`` of each lattice point (and of
                 the zero tuple), by exponent tuple, each written on its
                 first read
    """

    __slots__ = ("vertex_sets", "exponents", "class_of", "texts")

    def __init__(self, tables: SubsetTables) -> None:
        self.texts = _Texts(tables.ideal.context.names)
        divisors = tables.divisor_mask
        # vertex sets are masks themselves, so a table over the masks
        # groups them without a sort; the empty mask's divisor set is
        # empty, and no nonempty mask's is
        index = np.full(tables.size, -1)
        index[divisors[1:]] = 0
        self.vertex_sets = np.flatnonzero(index == 0)
        index[self.vertex_sets] = np.arange(len(self.vertex_sets))
        self.exponents = tables.lcm_tuples(self.vertex_sets)
        self.class_of = index[divisors]


def _lcm_classes(ideal: MonomialIdeal) -> _LcmClasses:
    return tables_for(ideal).derived(_LcmClasses)


class _Strands:
    """The Morse-reduced strands of one ideal, and their homology.

    critical  {exponents of a: {size: critical masks, ascending}}, for
              every lattice point a whose strand keeps a critical mask

    For every class a and generator i in V_a, count the masks of the
    class that hold i uncovered, and so lose the lcm without it: one
    ``bincount`` of the classes per bit.  The generator with the fewest
    (the lowest on a tie) is the class's pivot, and the masks that hold
    their class's pivot uncovered are its critical masks, listed in
    ascending order.  Classes with no critical mask are left out: their
    strands are acyclic.

    The homology is ranked once, over Z, on first read (``homology``):
    each strand's rank certificates are kept where they are not all
    +-1, and a prime field re-ranks only the strands whose certificate
    the prime divides.  ``ranked`` says whether it has been read.

    The Betti table over each field is built once (``table``), and a
    prime whose homology is the one over Q (no certificate names it)
    reads the table over Q: the sort and the checks of a table are made
    once per homology dict.
    """

    __slots__ = ("critical", "_context", "_homology", "_certificates",
                 "_tables")

    def __init__(self, tables: SubsetTables) -> None:
        classes = tables.derived(_LcmClasses)
        class_of = classes.class_of
        mu = tables.mu
        masks = np.arange(1, tables.size)
        cls = class_of[1:]
        # the members whose deletion moves each mask out of its class,
        # in the smallest unsigned dtype that holds mu bits
        uncovered = (masks & ~tables.covered_mask[1:]).astype(
            np.min_scalar_type(tables.size - 1))

        count = np.empty((mu, len(classes.vertex_sets)), np.int64)
        for b in range(mu):
            count[b] = np.bincount(cls[uncovered & 1 << b != 0],
                                   minlength=count.shape[1])
        # no mask of a class holds a generator outside its V_a: that
        # generator matches nothing and is never a pivot
        outside = classes.vertex_sets >> np.arange(mu)[:, None] & 1 == 0
        count[outside] = tables.size
        pivot = 1 << count.argmin(axis=0)
        chosen = masks[uncovered & pivot[cls] != 0]

        critical: dict[tuple[int, ...], dict[int, list[int]]] = {}
        for mask, c, t in zip(chosen.tolist(), class_of[chosen].tolist(),
                              popcounts(mu)[chosen].tolist()):
            critical.setdefault(classes.exponents[c], {}).setdefault(
                t, []).append(mask)
        self.critical = critical
        self._context = tables.ideal.context
        self._homology = None
        self._certificates: dict[tuple[int, ...], frozenset[int]] = {}
        self._tables: dict[int | None, BettiTable] = {}

    @property
    def ranked(self) -> bool:
        return self._homology is not None

    def homology(self, prime: int | None = None
                 ) -> dict[tuple[int, tuple[int, ...]], int]:
        """{(level, exponents of a): homology rank}, the nonzero ranks
        over Q, or over GF(prime); callers only read it."""
        if self._homology is None:
            self._homology = homology = {}
            for exps, by_size in self.critical.items():
                if len(by_size) == 1:
                    # one level, no differential: its critical sets are
                    # homology
                    (t, masks), = by_size.items()
                    homology[(t, exps)] = len(masks)
                    continue
                certificate: set[int] = set()

                def rank(vectors):
                    r, integers = certified_rank(vectors)
                    certificate.update(integers)
                    return r
                for t, h in _strand_homology(by_size, rank).items():
                    homology[(t, exps)] = h
                if certificate:
                    self._certificates[exps] = frozenset(certificate)
        if prime is None:
            return self._homology
        torsion = [exps for exps, certificate in self._certificates.items()
                   if any(n % prime == 0 for n in certificate)]
        if not torsion:
            return self._homology
        homology = dict(self._homology)
        rank = _rank_function(prime)
        for exps in torsion:
            by_size = self.critical[exps]
            for t in by_size:
                homology.pop((t, exps), None)
            for t, h in _strand_homology(by_size, rank).items():
                homology[(t, exps)] = h
        return homology

    def table(self, prime: int | None = None) -> BettiTable:
        """The Betti table of R/I over Q, or over GF(prime), built on its
        first read from ``homology(prime)``; callers only read it."""
        table = self._tables.get(prime)
        if table is None:
            homology = self.homology(prime)
            if homology is self._homology:
                table = self._tables.get(None)
            if table is None:
                counts = {(0, (0,) * len(self._context)): 1}
                counts.update(homology)
                table = BettiTable.from_multigraded(self._context, counts)
            self._tables[prime] = table
        return table


def _critical_strands(ideal: MonomialIdeal) -> _Strands:
    return tables_for(ideal).derived(_Strands)


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
    prime to compute over GF(p) instead.  Both read the strands'
    homology over Z, ranked once per ideal, and each field's table is
    built once per ideal, shared by every prime that does not change
    the homology.
    """
    if prime is not None:
        check_prime(prime)
    return _critical_strands(ideal).table(prime)


def _projective_dimension(ideal: MonomialIdeal, *,
                          prime: int | None = None) -> int:
    """pd(R/I): the highest level at which some Morse-reduced strand has
    homology.

    Strands whose homology was ranked (a Betti table read them) give it
    at once.  Otherwise it is found from the top level down without
    ranking every strand.  While every strand is exact above level t,
    the differential into level t has rank ``into``, the alternating
    sum of the dimensions above it, and H_t vanishes exactly when the
    differential out of level t has rank dim_t - into.  The counts
    settle that alone when this rank is 0 (exact) or exceeds dim_{t-1}
    (homology); only the strands left over are ranked, after every
    strand of the level has been counted.
    """
    if prime is not None:
        check_prime(prime)
    strands = _critical_strands(ideal)
    if strands.ranked:
        return max((t for t, _ in strands.homology(prime)), default=0)
    rank = _rank_function(prime)
    critical = list(strands.critical.values())
    into = [0] * len(critical)
    top = max((t for by_size in critical for t in by_size), default=0)
    for t in range(top, 0, -1):
        unsettled = []
        for k, by_size in enumerate(critical):
            masks = by_size.get(t, ())
            below = by_size.get(t - 1, ())
            out = len(masks) - into[k]
            if out > len(below):
                return t
            if out:
                unsettled.append((masks, below, out))
            # if level t is exact, this is the rank into level t - 1
            into[k] = out
        for masks, below, out in unsettled:
            if rank(_boundary_columns(masks, set(below))) < out:
                return t
    return 0


def _chain_verdict(preserved: np.ndarray, lone: np.ndarray) -> bool:
    """Whether no face (``preserved``'s marks, whose lone bits are
    ``lone``) is lone at one of its own members: every one-smaller
    subset of a face is a face."""
    return not np.any(lone & np.flatnonzero(preserved))


def _cone_verdicts(preserved: np.ndarray, lone: np.ndarray,
                   vertex_sets: np.ndarray, apexes: np.ndarray
                   ) -> np.ndarray:
    """Whether the faces inside each vertex set form a cone over its
    apex bit: the lone bits are scattered into one array over the masks
    and up-closed, and a vertex set V is a cone over g exactly when bit
    g of the closure at V is clear."""
    closure = np.zeros(len(preserved), lone.dtype)
    closure[preserved] = lone
    return (up_closure(closure)[vertex_sets] & apexes) == 0


def verify_chain_complex(ordered: OrderedIdeal) -> bool:
    """Check d_{t-1} . d_t = 0 across the Lyubeznik complex.

    Faces closed under taking subsets span a subcomplex of the Taylor
    resolution and inherit its d^2 = 0; an order's faces always are, so
    a false verdict marks a wrong preserved table.
    """
    analysis = order_analysis(ordered)
    return _chain_verdict(analysis.preserved, analysis.lone)


def _verify_rows(ordered: OrderedIdeal
                 ) -> list[tuple[tuple[int, ...], bool]]:
    """(exponents of a, verdict) per lattice point a, sorted by
    (degree, exponents): ``verify_resolution_report``'s rows with the
    exponent tuples as they are, which the command line writes."""
    classes = _lcm_classes(ordered.ideal)
    analysis = order_analysis(ordered)
    # each vertex set's apex: its member ranked first, by its least rank
    word = np.array(ordered.order)
    apexes = 1 << (word[analysis.least[classes.vertex_sets]] - 1)
    verdicts = _cone_verdicts(analysis.preserved, analysis.lone,
                              classes.vertex_sets, apexes).tolist()
    return sorted(zip(classes.exponents, verdicts),
                  key=lambda row: (sum(row[0]), row[0]))


def verify_resolution_report(ordered: OrderedIdeal
                             ) -> tuple[tuple[Monomial, bool], ...]:
    """Per-multidegree exactness verdicts, sorted by (degree, exponents).

    The verdict at a is whether the faces inside V_a form a cone over
    its member ranked first, which makes them acyclic; every order's
    faces do, so a false verdict marks a wrong preserved table.
    """
    # the lcms' exponents were checked when the ideal was read
    context = ordered.ideal.context
    return tuple((Monomial._unchecked(context, exps), ok)
                 for exps, ok in _verify_rows(ordered))
