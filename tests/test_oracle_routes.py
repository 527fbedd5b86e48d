"""Differential tests of the oracle's sparse routes.

``taylor_betti`` and ``verify_resolution_report`` hand sparse columns to
the column-reduction loop in ``linalg``.  Here both are recomputed the
slow way: strands and induced subcomplexes are grouped from scratch,
turned into dense sign matrices by ``reference_routes.boundary_levels``
and ranked by plain Gaussian elimination over Q or GF(p).  The d^2 = 0
check, which composes the same sparse columns, is compared with the
dense matrices' products on every order of the sweep ideals, on
hypothesis ideals and on random face families.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from lyubeznik import (OrderedIdeal, all_orders, identity_order,
                       lyubeznik_complex, sweep_ideals, taylor_betti,
                       verify_chain_complex, verify_resolution_report)
from lyubeznik.betti import QUOTIENT, BettiTable
from lyubeznik.corpus import all_ideals
from lyubeznik.oracle import _composes_to_zero

from reference_routes import (boundary_levels, dense_chain_complex,
                              dense_composes_to_zero)
from test_linalg import dense_rank_mod_p, fraction_rank
from test_scan_kernel import exponent_rows, small_ideal

FIELDS = (None, 2, 32003)


def dense_rank(prime):
    if prime is None:
        return fraction_rank
    return lambda rows: dense_rank_mod_p(rows, prime)


def dense_homology(faces_by_size, rank):
    """Homology rank per level from dense boundary matrices."""
    ranks = {t: rank([list(r) for r in m.entries])
             for t, m in boundary_levels(faces_by_size).items()}
    hom = {}
    for t, basis in faces_by_size.items():
        h = len(basis) - ranks.get(t, 0) - ranks.get(t + 1, 0)
        if h:
            hom[t] = h
    return hom


def dense_taylor_betti(ideal, prime):
    strands = {}
    for t in range(1, ideal.mu + 1):
        for face in combinations(ideal.indices(), t):
            exps = ideal.lcm(face).exponents
            strands.setdefault(exps, {}).setdefault(t, []).append(face)
    counts = {(0, (0,) * len(ideal.context)): 1}
    for exps, by_size in strands.items():
        for t, h in dense_homology(by_size, dense_rank(prime)).items():
            counts[(t, exps)] = h
    return BettiTable.from_multigraded(QUOTIENT, ideal.context, counts)


def dense_report(ordered):
    """(exponents, acyclic) per lcm-lattice multidegree, over Q."""
    ideal = ordered.ideal
    faces = [tuple(sorted(f)) for f in lyubeznik_complex(ordered).faces]
    lattice = {ideal.lcm(face).exponents
               for t in range(1, ideal.mu + 1)
               for face in combinations(ideal.indices(), t)}
    report = []
    for exps in sorted(lattice, key=lambda e: (sum(e), e)):
        vset = {i for i in ideal.indices()
                if all(a <= b for a, b in zip(ideal.gen(i).exponents, exps))}
        by_size = {}
        for face in sorted(faces):
            if set(face) <= vset:
                by_size.setdefault(len(face), []).append(face)
        report.append((exps, not dense_homology(by_size, fraction_rank)))
    return report


def check_against_dense(ideal):
    for prime in FIELDS:
        assert taylor_betti(ideal, prime=prime) == \
            dense_taylor_betti(ideal, prime), prime
    orders = [identity_order(ideal),
              OrderedIdeal(ideal, tuple(reversed(ideal.indices())))]
    for ordered in orders:
        report = [(m.exponents, ok)
                  for m, ok in verify_resolution_report(ordered)]
        assert report == dense_report(ordered), ordered.order


def test_corpus_matches_dense_route():
    for name, ideal in all_ideals():
        if ideal.mu <= 12:
            check_against_dense(ideal)


@settings(max_examples=30)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_random_ideals_match_dense_route(rows):
    check_against_dense(small_ideal(rows, max_mu=7))


def test_sparse_d_squared_matches_dense_on_every_sweep_order():
    for name, ideal in sweep_ideals():
        for ordered in all_orders(ideal, max_exhaustive=ideal.mu):
            assert verify_chain_complex(ordered) == \
                dense_chain_complex(ordered), (name, ordered.order)


@settings(max_examples=30)
@given(st.integers(2, 4).flatmap(exponent_rows), st.randoms())
def test_sparse_d_squared_matches_dense_on_random_ideals(rows, rng):
    ideal = small_ideal(rows, max_mu=7)
    word = list(ideal.indices())
    rng.shuffle(word)
    for ordered in (identity_order(ideal), OrderedIdeal(ideal, tuple(word))):
        assert verify_chain_complex(ordered) == dense_chain_complex(ordered)


@settings(max_examples=200)
@given(st.sets(st.integers(0, 31), max_size=20))
def test_sparse_d_squared_matches_dense_on_random_families(family):
    # families of subsets of five generators, closed or not; bit i-1 of
    # a mask is index i, so both routes count members in the same order
    faces_by_size = {}
    for mask in sorted(family):
        face = tuple(b + 1 for b in range(5) if mask >> b & 1)
        faces_by_size.setdefault(len(face), []).append(face)
    assert _composes_to_zero(sorted(family)) == \
        dense_composes_to_zero(faces_by_size)
