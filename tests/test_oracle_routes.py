"""Differential tests of the oracle's sparse routes.

``taylor_betti`` hands sparse columns to the column-reduction loop in
``linalg``; ``verify_resolution_report`` reads each multidegree's
verdict off a cone of faces.  Here both are recomputed the slow way:
strands and induced subcomplexes are grouped from scratch,
turned into dense sign matrices by ``reference_routes.boundary_levels``
and ranked by plain Gaussian elimination over Q or GF(p).  The d^2 = 0
check, which reads closure under subsets off the preserved table, is
compared with the dense matrices' products on every order of the sweep
ideals and on hypothesis ideals.  On random face families of at most
six generators the certificate must read closure exactly, and every
closed family must compose to zero the dense way too.
"""

import random
from itertools import combinations

import numpy as np

from hypothesis import given, settings, strategies as st

from lyubeznik import (OrderedIdeal, identity_order, lyubeznik_complex,
                       sweep_ideals, taylor_betti, verify_chain_complex,
                       verify_resolution_report)
from lyubeznik.betti import BettiTable
from lyubeznik.corpus import all_ideals
from lyubeznik.oracle import _chain_verdict
from lyubeznik.subsets import lone_bits

from reference_routes import (all_orders, boundary_levels,
                              dense_chain_complex, dense_composes_to_zero)
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
    return BettiTable.from_multigraded(ideal.context, counts)


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
    """Betti tables over every field, and the certificate's report under
    the identity, its reverse and one seeded random order, or under
    every order when mu <= 4: the cone's apex depends on the order."""
    for prime in FIELDS:
        assert taylor_betti(ideal, prime=prime) == \
            dense_taylor_betti(ideal, prime), prime
    word = list(ideal.indices())
    random.Random(ideal.mu).shuffle(word)
    orders = [identity_order(ideal),
              OrderedIdeal(ideal, tuple(reversed(ideal.indices()))),
              OrderedIdeal(ideal, tuple(word))]
    if ideal.mu <= 4:
        orders = list(all_orders(ideal))
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
        for ordered in all_orders(ideal):
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


def mask_faces(family):
    """A family of masks as index tuples by size, bit i-1 for index i:
    the dense route counts members in the same order as the columns."""
    faces_by_size = {}
    for mask in sorted(family):
        face = tuple(b + 1 for b in range(mask.bit_length()) if mask >> b & 1)
        faces_by_size.setdefault(len(face), []).append(face)
    return faces_by_size


def family_table(family, mu):
    """The family as a bool array over the 2^mu masks."""
    table = np.zeros(1 << mu, bool)
    table[sorted(family)] = True
    return table


def down_closure(masks):
    family = set()
    for mask in masks:
        sub = mask
        while True:
            family.add(sub)
            if not sub:
                break
            sub = (sub - 1) & mask
    return family


families = st.integers(1, 6).flatmap(lambda mu: st.tuples(
    st.just(mu), st.sets(st.integers(0, (1 << mu) - 1), max_size=24)))


@settings(max_examples=300)
@given(families)
def test_the_closure_certificate_reads_closure_on_random_families(case):
    mu, family = case
    closed = all(mask ^ (1 << b) in family
                 for mask in family for b in range(mu) if mask >> b & 1)
    table = family_table(family, mu)
    assert _chain_verdict(table, lone_bits(table)) == closed
    if closed:
        assert dense_composes_to_zero(mask_faces(family))


@settings(max_examples=200)
@given(families, st.randoms())
def test_closed_families_compose_to_zero_and_lose_closure_inside(case, rng):
    mu, tops = case
    family = down_closure(tops)
    table = family_table(family, mu)
    assert _chain_verdict(table, lone_bits(table))
    assert dense_composes_to_zero(mask_faces(family))
    # a face below another face taken out leaves a family not closed
    inner = sorted(m for m in family
                   if any(m != f and m & f == m for f in family))
    if inner:
        family.discard(rng.choice(inner))
        table = family_table(family, mu)
        assert not _chain_verdict(table, lone_bits(table))
