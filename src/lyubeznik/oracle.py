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
The faces under test are read as masks straight from the order's
preserved-set table (``complexes.order_analysis``).

Both homology computations hand ``linalg`` sparse columns: each face,
a bitmask of generator indices, becomes a map {smaller face: +-1} over
the deletions that stay in the family, so no dense matrix is built.
``boundary_matrices`` keeps dense sign matrices for the d^2 = 0 check
of the Lyubeznik complex, and ``BoundaryMatrix.compose_is_zero``
multiplies them over their nonzero entries only.

The parenthetical sign convention throughout: deleting the j-th member
(in increasing position, 1-based) contributes (-1)^(j+1).  Matrix
entries store only that sign; the monomial part of a boundary
coefficient is lcm(col)/lcm(row) and telescopes along two-step paths,
so checking that the sign matrices compose to zero checks the real
composition too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import QUOTIENT, BettiTable
from .complexes import order_analysis
from .linalg import exact_rank, rank_mod_p
from .monomials import BoundExceededError, Monomial, MonomialIdeal
from .orders import OrderedIdeal
from .subsets import indices_of, tables_for

DEFAULT_MAX_ORACLE_GENERATORS = 12


@dataclass(frozen=True)
class BoundaryMatrix:
    """A differential between consecutive face levels.

    Entries are the integer signs; the full scalar on (row, col) is
    entry * lcm(col)/lcm(row), and the monomial factors cancel along
    two-step compositions.
    """

    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[int, ...], ...]

    def compose_is_zero(self, next_matrix: "BoundaryMatrix") -> bool:
        """True iff self @ next_matrix vanishes identically."""
        if self.cols != next_matrix.rows:
            raise ValueError("boundary matrices do not chain")
        # column k of self as its nonzero (row, entry) pairs
        self_cols = [[(r, a) for r, a in enumerate(col) if a]
                     for col in zip(*self.entries)]
        for col in zip(*next_matrix.entries):
            total: dict[int, int] = {}
            for k, b in enumerate(col):
                if b:
                    for r, a in self_cols[k]:
                        total[r] = total.get(r, 0) + a * b
            if any(total.values()):
                return False
        return True


def _check_bound(ideal: MonomialIdeal, max_generators: int) -> None:
    if ideal.mu > max_generators:
        raise BoundExceededError(
            f"the homology oracle enumerates 2^{ideal.mu} subsets, above its "
            f"bound mu <= {max_generators}; no command-line option lifts it "
            "(the library functions take a max_generators argument)")


def _boundary_levels(faces_by_size: dict[int, list[tuple[int, ...]]]
                     ) -> list[BoundaryMatrix]:
    """Sign matrices between consecutive levels of a face family.

    ``faces_by_size[t]`` lists faces as sorted index tuples; level t maps
    to level t-1.  Deletions landing outside the family contribute no
    entry, as in ``_strand_homology``, whose sparse columns are the
    nonzero entries of these matrices' columns.
    """
    out = []
    sizes = sorted(faces_by_size)
    for t in sizes:
        if t == 0 or t - 1 not in faces_by_size:
            continue
        rows = faces_by_size[t - 1]
        cols = faces_by_size[t]
        row_index = {f: k for k, f in enumerate(rows)}
        entries = [[0] * len(cols) for _ in rows]
        for c, face in enumerate(cols):
            for j, dropped in enumerate(face, start=1):
                smaller = tuple(i for i in face if i != dropped)
                r = row_index.get(smaller)
                if r is not None:
                    entries[r][c] = 1 if j % 2 else -1
        out.append(BoundaryMatrix(tuple(rows), tuple(cols),
                                  tuple(tuple(r) for r in entries)))
    return out


def _strand_homology(masks_by_size: dict[int, list[int]],
                     rank) -> dict[int, int]:
    """Homology rank at each level: dim - rank(out) - rank(in).

    ``masks_by_size[t]`` lists the faces of size t as bitmasks.  The
    differential out of level t is handed to ``rank`` as one sparse
    column per face, {smaller face: sign}, keeping only the deletions
    that land in level t-1 of the family.
    """
    ranks = {}
    for t, masks in masks_by_size.items():
        if t - 1 not in masks_by_size:
            continue
        below = set(masks_by_size[t - 1])
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
        ranks[t] = rank(columns)
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


def projdim_oracle(ideal: MonomialIdeal, *,
                   max_generators: int = DEFAULT_MAX_ORACLE_GENERATORS,
                   prime: int | None = None) -> int:
    """Projective dimension of R/I (largest i with beta_i nonzero)."""
    return taylor_betti(ideal, max_generators=max_generators,
                        prime=prime).projective_dimension


def _face_masks(ordered: OrderedIdeal) -> list[int]:
    """The faces of the Lyubeznik complex as ascending subset masks."""
    return [m for m, face in enumerate(order_analysis(ordered).preserved)
            if face]


def boundary_matrices(ordered: OrderedIdeal) -> list[BoundaryMatrix]:
    """Differentials of the Lyubeznik complex, one per face size.

    Faces are written with members in increasing rank, matching the sign
    convention of the resolution differential.
    """
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for mask in _face_masks(ordered):
        by_size.setdefault(mask.bit_count(), []).append(
            ordered.sorted_by_rank(indices_of(mask)))
    for faces in by_size.values():
        faces.sort(key=lambda f: tuple(ordered.rank(i) for i in f))
    return _boundary_levels(by_size)


def verify_chain_complex(ordered: OrderedIdeal) -> bool:
    """Check d_{t-1} . d_t = 0 across the Lyubeznik complex."""
    mats = boundary_matrices(ordered)
    return all(a.compose_is_zero(b) for a, b in zip(mats, mats[1:]))


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
    face_masks = _face_masks(ordered)

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
